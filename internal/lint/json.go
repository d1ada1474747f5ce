package lint

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// WriteJSON emits one JSON object per line per diagnostic, then one closing
// {"waivers":[…]} object listing the live waiver set (pass a non-nil slice:
// the line is how a reader tells the stream is complete) — the -json
// machine-readable mode of cmd/amrlint, consumable by CI annotators a line
// at a time without buffering the whole report.
func WriteJSON(w io.Writer, diags []Diagnostic, waivers []Waiver) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, d := range diags {
		if err := enc.Encode(d); err != nil {
			return err
		}
	}
	closing := struct {
		Waivers []Waiver `json:"waivers"`
	}{waivers}
	if err := enc.Encode(closing); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadJSON parses a stream written by WriteJSON back into diagnostics and
// the waiver list.
func ReadJSON(r io.Reader) ([]Diagnostic, []Waiver, error) {
	dec := json.NewDecoder(r)
	var diags []Diagnostic
	for {
		var line struct {
			Diagnostic
			Waivers []Waiver `json:"waivers"`
		}
		if err := dec.Decode(&line); err == io.EOF {
			return nil, nil, fmt.Errorf("lint: stream ended after %d diagnostics without the waivers line", len(diags))
		} else if err != nil {
			return nil, nil, fmt.Errorf("lint: decoding diagnostic %d: %w", len(diags), err)
		}
		if line.Waivers != nil {
			return diags, line.Waivers, nil
		}
		diags = append(diags, line.Diagnostic)
	}
}

// Analyzers returns the production rule set over the module's default
// deterministic-core package list: the rules with a true positive on the real
// tree, or with no runtime check on the same defect (DESIGN.md §8's ledger).
func Analyzers() []Rule {
	return []Rule{
		NewDeterminism(nil),
		MapOrder{},
		Exhaustive{},
		ErrDrop{},
	}
}

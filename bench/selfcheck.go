package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json this program reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// readBenchmarkFile finds BENCHMARK.json in the working directory or its
// parent (the program runs from bench/ under `go run -C bench`).
func readBenchmarkFile() (*benchmarkFile, error) {
	var data []byte
	var err error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// resultLine is the last line a single-workload run prints.
type resultLine struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// selfcheck runs two full sets — every workload, untraced and traced — on
// the same tree with the same seed and compares them: every end-to-end
// median must agree within its bound, every exact per-layer metric exactly.
// It prints the difference it saw for every end-to-end metric, so the bounds
// in BENCHMARK.json can be set from evidence.
func selfcheck(e env, cfg config) int {
	bf, err := readBenchmarkFile()
	if err != nil {
		fmt.Fprintln(e.stderr, "bench:", err)
		return 2
	}
	exact := map[string]bool{}
	for _, d := range perLayer {
		exact[d.name] = d.exact
	}
	runSet := func(set int) (map[string]resultLine, bool) {
		out, ok := map[string]resultLine{}, true
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				var buf bytes.Buffer
				code := e.self(append(cfg.childArgs(w.name), traceArg(traced)), &buf, e.stderr)
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var rl resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rl); err != nil || code != 0 || !rl.Correct {
					fmt.Fprintf(e.stdout, "set %d %s %s: exit %d, correct=%v, %v\n", set, w.name, traceArg(traced), code, rl.Correct, err)
					ok = false
				}
				out[w.name+" "+traceArg(traced)] = rl
			}
		}
		return out, ok
	}
	first, ok1 := runSet(1)
	second, ok2 := runSet(2)
	status := 0
	if !ok1 || !ok2 {
		status = 1
	}
	fmt.Fprintf(e.stdout, "%-16s %-28s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	for _, w := range workloads {
		a, b := first[w.name+" -trace=0"], second[w.name+" -trace=0"]
		for _, m := range bf.EndToEnd {
			va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			diff := math.Abs(vb-va) / va
			verdict := ""
			if !(diff <= m.Bound) {
				verdict, status = "  OUT OF BOUND", 1
			}
			fmt.Fprintf(e.stdout, "%-16s %-28s %14.6g %14.6g %8.2f%% %6.0f%%%s\n",
				w.name, m.Name, va, vb, 100*diff, 100*m.Bound, verdict)
		}
		a, b = first[w.name+" -trace=1"], second[w.name+" -trace=1"]
		for _, d := range perLayer {
			if va, vb := a.Metrics[d.name].Value, b.Metrics[d.name].Value; exact[d.name] && va != vb {
				fmt.Fprintf(e.stdout, "%-16s %-28s %14.6g %14.6g  EXACT METRIC DIFFERS\n", w.name, d.name, va, vb)
				status = 1
			}
		}
	}
	if status == 0 {
		fmt.Fprintln(e.stdout, "selfcheck: both sets agree")
	}
	return status
}

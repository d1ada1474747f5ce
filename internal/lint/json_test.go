package lint

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	in := []Diagnostic{
		{File: "internal/solver/solver.go", Line: 70, Col: 14, Rule: "determinism",
			Message: "wall-clock call time.Now in deterministic core package amrtools/internal/solver",
			Fix:     "derive times from the DES virtual clock"},
		{File: "internal/lint/waiver.go", Line: 3, Col: 1, Rule: "waiver",
			Message: "unused waiver for rule maporder: no diagnostic suppressed"},
		{File: "internal/metrics/metrics.go", Line: 41, Col: 9, Rule: "determinism",
			Message: "wall-clock call time.Now in metrics.(*Counter).Inc, reachable from the deterministic core",
			Fix:     "derive times from the DES virtual clock or hoist the wall-clock read out of core-reachable code",
			Path:    []string{"simnet.(*Network).planLocal", "metrics.(*Counter).Inc"}},
	}
	waivers := []Waiver{
		{File: "internal/driver/driver.go", Line: 597, Rule: "determinism",
			Reason: "telemetry-only: PlacementWall records the host-side cost"},
		{File: "internal/trace/diagnose.go", Line: 312, Rule: "maporder", Reason: "only feeds stats.Median"},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, in, waivers); err != nil {
		t.Fatal(err)
	}
	// One self-contained JSON object per line: CI annotators consume the
	// stream a line at a time without buffering the report. The closing
	// line is the waiver list.
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(in)+1 {
		t.Fatalf("wrote %d lines for %d diagnostics + the waivers line:\n%s", len(lines), len(in), buf.String())
	}
	if !strings.HasPrefix(lines[len(in)], `{"waivers":[{"file":`) {
		t.Fatalf("closing line is not the waiver list: %s", lines[len(in)])
	}
	for i, l := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(l), &m); err != nil {
			t.Fatalf("line %d is not a standalone JSON object: %v", i, err)
		}
	}
	out, outW, err := ReadJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
	if !reflect.DeepEqual(waivers, outW) {
		t.Fatalf("waiver round trip mismatch:\n in: %+v\nout: %+v", waivers, outW)
	}
}

func TestJSONOmitsEmptyFix(t *testing.T) {
	var buf bytes.Buffer
	err := WriteJSON(&buf, []Diagnostic{{File: "a.go", Line: 1, Col: 1, Rule: "waiver", Message: "m"}}, []Waiver{})
	if err != nil {
		t.Fatal(err)
	}
	// A clean, waiver-free tree still closes the stream: "waivers":[] tells
	// a reader the report is complete.
	if !strings.HasSuffix(buf.String(), "{\"waivers\":[]}\n") {
		t.Fatalf("empty waiver list not emitted as []: %s", buf.String())
	}
	if strings.Contains(buf.String(), "fix") {
		t.Fatalf("empty fix serialized: %s", buf.String())
	}
	// Per-package diagnostics have no call-path witness; the field must not
	// appear as "path":null noise in the stream.
	if strings.Contains(buf.String(), "path") {
		t.Fatalf("empty path serialized: %s", buf.String())
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, _, err := ReadJSON(strings.NewReader(`{"file":"a.go"}` + "\nnot json\n")); err == nil {
		t.Fatal("garbage line decoded without error")
	}
	if _, _, err := ReadJSON(strings.NewReader(`{"file":"a.go"}` + "\n")); err == nil {
		t.Fatal("a stream without its closing waivers line decoded without error")
	}
}

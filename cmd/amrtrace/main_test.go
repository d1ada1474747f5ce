package main

// Round-trip acceptance for the trace toolchain: a traced driver run is
// written as a span colfile, read back, sliced with TQL, and exported as
// Chrome trace-event JSON — which must be valid JSON with exactly one
// timeline (thread_name metadata) row per rank in the slice.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"amrtools/internal/colfile"
	"amrtools/internal/driver"
	"amrtools/internal/placement"
	"amrtools/internal/simnet"
	"amrtools/internal/telemetry"
	"amrtools/internal/tql"
	"amrtools/internal/trace"
)

func TestRoundTripColfileTQLPerfetto(t *testing.T) {
	cfg := driver.DefaultConfig([3]int{4, 4, 4}, 2, 10, placement.Baseline{}, 11)
	cfg.Net = simnet.Tuned(4, 16, 11)
	cfg.Trace = &trace.Config{PerRankCap: 8192}
	res, err := driver.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Write and re-read the span stream, as `experiments -trace` would.
	path := filepath.Join(t.TempDir(), "spans.col")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := colfile.WriteTable(f, res.Spans.Table(), 8192); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f, err = os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := colfile.OpenFile(f)
	if err != nil {
		t.Fatal(err)
	}
	table, err := r.Table()
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if table.NumRows() != res.Spans.Len() {
		t.Fatalf("colfile round trip lost rows: %d vs %d", table.NumRows(), res.Spans.Len())
	}

	// Slice the trace with TQL the way the README documents, then export.
	sliced, err := tql.Run("SELECT * FROM t WHERE step >= 2 AND rank < 8",
		map[string]*telemetry.Table{"t": table})
	if err != nil {
		t.Fatal(err)
	}
	if sliced.NumRows() == 0 {
		t.Fatal("TQL slice selected no spans")
	}
	var buf bytes.Buffer
	if err := trace.WritePerfetto(&buf, sliced); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Tid  int64   `json:"tid"`
			Name string  `json:"name"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Perfetto export is not valid JSON: %v", err)
	}

	wantRanks := map[int64]bool{}
	for _, r := range sliced.Ints("rank") {
		wantRanks[r] = true
	}
	gotThreads := map[int64]int{}
	slices := 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name != "thread_name" {
				t.Fatalf("unexpected metadata event %q", ev.Name)
			}
			gotThreads[ev.Tid]++
		case "X":
			slices++
			if ev.Dur <= 0 {
				t.Fatalf("slice %q has non-positive dur %g", ev.Name, ev.Dur)
			}
			if !wantRanks[ev.Tid] {
				t.Fatalf("slice on tid %d, not a rank in the TQL slice", ev.Tid)
			}
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}
	if slices != sliced.NumRows() {
		t.Fatalf("exported %d slices for %d spans", slices, sliced.NumRows())
	}
	if len(gotThreads) != len(wantRanks) {
		t.Fatalf("%d timeline rows for %d ranks", len(gotThreads), len(wantRanks))
	}
	for tid, n := range gotThreads {
		if !wantRanks[tid] {
			t.Fatalf("timeline row for tid %d, not a rank in the slice", tid)
		}
		if n != 1 {
			t.Fatalf("rank %d has %d timeline rows, want exactly 1", tid, n)
		}
	}
}

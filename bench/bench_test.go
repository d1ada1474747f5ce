package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"amrtools/internal/driver"
	"amrtools/internal/placement"
	"amrtools/internal/telemetry"
)

// inProcess is the test environment: child runs happen in this process.
func inProcess(stdout io.Writer) env {
	var e env
	e = env{stdout: stdout, stderr: io.Discard}
	e.self = func(args []string, out, errw io.Writer) int {
		return run(env{stdout: out, stderr: errw, self: e.self}, args)
	}
	return e
}

type lastLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func parseLast(t *testing.T, out string) lastLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var l lastLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&l); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return l
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}

func TestSummarizeFlagsMissingAndInexact(t *testing.T) {
	defs := []metricDef{{name: "a", unit: "s"}, {name: "b", unit: "count", exact: true}, {name: "c", unit: "s"}}
	sums, errs := summarize(defs, samples{"a": {1, 2, 3}, "b": {4, 5}})
	if len(errs) != 2 {
		t.Fatalf("want a missing-samples and an inexact error, got %v", errs)
	}
	if s := sums["a"]; s.Median != 2 || s.N != 3 || s.Unit != "s" {
		t.Errorf("summary of a = %+v", s)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []spanRec{
		{id: 0, parent: -1, layer: "bench", start: 0, end: 100},
		{id: 1, parent: 0, layer: "driver", start: 10, end: 30},
		{id: 2, parent: 0, layer: "driver", start: 20, end: 50},   // overlaps span 1
		{id: 3, parent: 0, layer: "colfile", start: 70, end: 120}, // clipped to the parent
		{id: 4, parent: 2, layer: "placement", start: 25, end: 35},
	}
	self := selfTimes(spans)
	want := []time.Duration{30, 20, 20, 50, 10}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] = %d, want %d", i, self[i], want[i])
		}
	}
	byLayer := layerSelf(spans, func(spanRec) bool { return true })
	if byLayer["driver"] != 40 || byLayer["bench"] != 30 {
		t.Errorf("layerSelf = %v", byLayer)
	}
}

func TestTracerNilSpanIsNoOp(t *testing.T) {
	var tr *tracer
	sp := tr.root(0, "bench", "x")
	sp.child("driver", "y").done()
	sp.done()

	tr = newTracer()
	root := tr.root(7, "bench", "rep")
	c := root.child("driver", "run")
	c.done()
	root.done()
	if recs := tr.records(); len(recs) != 2 || recs[1].parent != 0 || recs[1].rep != 7 || recs[1].end < recs[1].start {
		t.Fatalf("spans = %+v", recs)
	}
	var buf bytes.Buffer
	if err := tr.writeCSV(&buf); err != nil || strings.Count(buf.String(), "\n") != 3 {
		t.Fatalf("writeCSV: %v\n%s", err, buf.String())
	}
}

func TestDigestMasksNondeterministicColumns(t *testing.T) {
	table := func(wall float64, events int) *telemetry.Table {
		tb := telemetry.NewTable(telemetry.StrCol("spec"), telemetry.FloatCol("wall_ms"), telemetry.IntCol("events"))
		tb.Append("a", wall, events)
		return tb
	}
	digest := func(tb *telemetry.Table) string {
		d := newDigester()
		if err := d.table(tb); err != nil {
			t.Fatal(err)
		}
		return d.sum()
	}
	if digest(table(1.5, 10)) != digest(table(99, 10)) {
		t.Error("digest depends on wall_ms, a masked column")
	}
	if digest(table(1.5, 10)) == digest(table(1.5, 11)) {
		t.Error("digest ignores events, a deterministic column")
	}
}

func TestTraceFlagForms(t *testing.T) {
	got := normalizeTrace([]string{"--workload", "x", "--trace", "1", "-trace", "0", "-trace", "-seed", "4", "--trace"})
	want := []string{"--workload", "x", "-trace=1", "-trace=0", "-trace", "-seed", "4", "--trace"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("normalizeTrace = %v, want %v", got, want)
	}
}

// TestSmokeEveryWorkload drives the command line the way the benchmark
// driver does, shrunken: every workload, untraced and traced, must exit 0,
// report exactly its tier's metrics and write its result files.
func TestSmokeEveryWorkload(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []string{"0", "1"} {
			var out bytes.Buffer
			args := []string{"--workload", w.name, "--seed", "3", "--seconds", "1", "--trace", traced,
				"-small", "-reps", "2", "-out", dir}
			if code := run(inProcess(&out), args); code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s", w.name, traced, code, out.String())
			}
			l := parseLast(t, out.String())
			defs, kind := endToEnd, "untraced"
			if traced == "1" {
				defs, kind = perLayer, "traced"
			}
			if !l.Correct || l.Failed != 0 || l.Attempted < 1 {
				t.Errorf("%s %s: correct=%v attempted=%d failed=%d", w.name, kind, l.Correct, l.Attempted, l.Failed)
			}
			if len(l.Metrics) != len(defs) {
				t.Errorf("%s %s: %d metrics, want %d", w.name, kind, len(l.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := l.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s %s: metric %s = %+v (present %v)", w.name, kind, d.name, m, ok)
				}
				if !strings.Contains(out.String(), d.name) {
					t.Errorf("%s %s: metric %s not printed by name", w.name, kind, d.name)
				}
			}
			data, err := os.ReadFile(filepath.Join(dir, w.name+"-"+kind+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var res result
			if err := json.Unmarshal(data, &res); err != nil {
				t.Fatal(err)
			}
			if res.Seed != 3 || res.Reps != 2 || res.Host.Go == "" || res.Host.NProc < 1 || res.Host.GOMAXPROCS < 1 ||
				res.Digest == "" || res.Metrics[defs[0].name].N < 1 {
				t.Errorf("%s %s: result file lacks fingerprint or statistics: %+v", w.name, kind, res)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, w.name+"-spans.csv")); err != nil {
			t.Errorf("%s: traced run wrote no span file: %v", w.name, err)
		}
	}
}

func TestSeedSelectsInputs(t *testing.T) {
	digest := func(seed string) string {
		var out bytes.Buffer
		if code := run(inProcess(&out), []string{"-workload", "placement_scale", "-small", "-reps", "1", "-seed", seed, "-out", ""}); code != 0 {
			t.Fatalf("exit %d\n%s", code, out.String())
		}
		i := strings.Index(out.String(), "digest ")
		return out.String()[i : i+71]
	}
	if a, b := digest("5"), digest("5"); a != b {
		t.Errorf("same seed, different inputs: %s vs %s", a, b)
	}
	if a, b := digest("5"), digest("6"); a == b {
		t.Errorf("different seeds, same inputs: %s", a)
	}
}

func TestBadCommandLine(t *testing.T) {
	for _, args := range [][]string{{"-workload", "nope"}, {"-no-such-flag"}, {"stray"}} {
		if code := run(inProcess(io.Discard), args); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

func TestAllWorkloadsRunWhenNoneNamed(t *testing.T) {
	var out bytes.Buffer
	if code := run(inProcess(&out), []string{"-small", "-reps", "1", "-out", ""}); code != 0 {
		t.Fatalf("exit %d\n%s", code, out.String())
	}
	for _, w := range workloads {
		if !strings.Contains(out.String(), "== "+w.name+" ") {
			t.Errorf("no section for %s", w.name)
		}
	}
}

// A driver.Run that returns an error must count as a failed operation and
// turn the exit status non-zero.
func TestDriverErrorFailsTheRun(t *testing.T) {
	broken := &workload{name: "broken", build: func(seed uint64, small bool) *runner {
		return &runner{
			run: func(sp *span) *repOut {
				cfg := driver.DefaultConfig([3]int{2, 2, 4}, 1, 0, placement.Baseline{}, seed) // zero steps: rejected
				r, err := runDriver(sp, "broken", cfg)
				return &repOut{payload: driverOut{r, err}}
			},
			check: func(o *repOut) {
				p := o.payload.(driverOut)
				checkDriverRun(o, newDigester(), runSummary(), "broken", p.run, p.err)
			},
		}
	}}
	var out bytes.Buffer
	e := inProcess(&out)
	e.self = nil
	if code := measure(e, config{reps: 1, small: true}, broken); code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, out.String())
	}
	if l := parseLast(t, out.String()); l.Correct || l.Failed == 0 || l.Failed > l.Attempted {
		t.Errorf("result line %+v", l)
	}
}

// A query result that disagrees with the oracle must count as a failed
// operation and turn the exit status non-zero.
func TestWrongOracleFailsTheRun(t *testing.T) {
	in := genTelemetry(9, true)
	good := &repOut{payload: telemetryRep(nil, in)}
	var want [][][]interface{}
	checkTelemetry(good, in, &want)
	if good.failed != 0 {
		t.Fatalf("honest oracle disagrees: %v", good.fails)
	}

	wrong := &workload{name: "wrong", build: func(seed uint64, small bool) *runner {
		in := genTelemetry(seed, small)
		want := oracleAll(in)
		want[5][0][2] = want[5][0][2].(float64) * 2 // the top-1 wait, doubled
		return &runner{
			run:   func(sp *span) *repOut { return &repOut{payload: telemetryRep(sp, in)} },
			check: func(o *repOut) { checkTelemetry(o, in, &want) },
		}
	}}
	var out bytes.Buffer
	e := inProcess(&out)
	e.self = nil
	if code := measure(e, config{reps: 1, small: true}, wrong); code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL: oracle topk") {
		t.Errorf("failure not named:\n%s", out.String())
	}
}

// TestSelfcheckVerdicts feeds selfcheck canned result lines: equal sets
// pass, an end-to-end median beyond its bound fails, a differing exact
// count fails.
func TestSelfcheckVerdicts(t *testing.T) {
	canned := func(wallSecond float64, eventsSecond float64) env {
		calls := 0
		return env{stdout: io.Discard, stderr: io.Discard, self: func(args []string, out, _ io.Writer) int {
			calls++
			second := calls > 2*len(workloads)
			m := map[string]map[string]interface{}{}
			for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
				v := 1.0
				if second && d.name == "wall_s" {
					v = wallSecond
				}
				if second && d.name == "driver.events" {
					v = eventsSecond
				}
				m[d.name] = map[string]interface{}{"value": v, "unit": d.unit}
			}
			line, _ := json.Marshal(map[string]interface{}{"correct": true, "attempted": 1, "failed": 0, "metrics": m})
			fmt.Fprintln(out, string(line))
			return 0
		}}
	}
	if code := selfcheck(canned(1.01, 1), config{}); code != 0 {
		t.Errorf("agreeing sets: exit %d", code)
	}
	if code := selfcheck(canned(1.5, 1), config{}); code != 1 {
		t.Errorf("wall_s 50%% apart: exit %d, want 1", code)
	}
	if code := selfcheck(canned(1, 2), config{}); code != 1 {
		t.Errorf("exact count differs: exit %d, want 1", code)
	}
}

// TestBenchmarkFileMatchesProgram keeps BENCHMARK.json and the program's own
// metric and workload lists in step, within the benchmark contract's limits.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q, program has %q", i, bf.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") || !name.MatchString(w.name) {
			t.Errorf("workload %s: name or why outside the contract (%d chars)", w.name, len(w.why))
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: file %d+%d, program %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	check := func(n, u, better string) {
		if !name.MatchString(n) || !unit.MatchString(u) || seen[n] || (better != "lower" && better != "higher") {
			t.Errorf("metric %q unit %q better %q: outside the contract or repeated", n, u, better)
		}
		seen[n] = true
	}
	for i, d := range endToEnd {
		m := bf.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
		check(m.Name, m.Unit, m.Better)
	}
	for i, d := range perLayer {
		m := bf.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
		check(m.Name, m.Unit, m.Better)
	}
	if bf.EndToEnd[0].Name != "setup_s" || bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("setup_s missing or run_seconds %d out of range", bf.RunSeconds)
	}
}

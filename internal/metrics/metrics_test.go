package metrics

import (
	"reflect"
	"strings"
	"testing"

	"amrtools/internal/telemetry"
)

func TestCounterLanes(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sim_x_total", "x", 4)
	c.Inc(0)
	c.Add(2, 5)
	c.Inc(3)
	if got := c.Total(); got != 7 {
		t.Fatalf("Total = %d, want 7", got)
	}
}

func TestSumFoldsInLaneOrder(t *testing.T) {
	// The same per-lane values must fold to the bit-identical total no
	// matter which order the lanes were *updated* in — that is the whole
	// point of laning.
	vals := []float64{0.1, 0.7, 1e-9, 3.14, 0.001, 42, 1e9, 2.5e-7}
	r1 := NewRegistry()
	s1 := r1.Sum("sim_s_total", "s", len(vals))
	for i, v := range vals {
		s1.Add(i, v)
	}
	r2 := NewRegistry()
	s2 := r2.Sum("sim_s_total", "s", len(vals))
	for i := len(vals) - 1; i >= 0; i-- { // reverse update order
		s2.Add(i, vals[i])
	}
	if s1.Total() != s2.Total() {
		t.Fatalf("lane fold not order-free: %v vs %v", s1.Total(), s2.Total())
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate metric name")
		}
	}()
	r := NewRegistry()
	r.Counter("sim_dup_total", "a", 1)
	r.Counter("sim_dup_total", "b", 1)
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sim_h_seconds", "h", 2, []float64{0.001, 0.1})
	h.Observe(0, 0.0005) // bucket 0
	h.Observe(1, 0.05)   // bucket 1
	h.Observe(0, 7)      // +Inf bucket
	if h.Count() != 3 {
		t.Fatalf("Count = %d, want 3", h.Count())
	}
	e := h.export()
	want := []int64{1, 1, 1}
	for i, n := range e.buckets {
		if n != want[i] {
			t.Fatalf("buckets = %v, want %v", e.buckets, want)
		}
	}
	// Lanes fold in ascending lane order: lane 0 (0.0005 then 7), lane 1.
	lane0, lane1 := 0.0005, 0.05
	lane0 += 7
	if want := lane0 + lane1; e.sum != want {
		t.Fatalf("sum = %v, want %v", e.sum, want)
	}
}

func TestSnapshotLayout(t *testing.T) {
	r := NewRegistry()
	r.HostCounter("host_z", "z")          // registered first ...
	c := r.Counter("sim_a_total", "a", 1) // ... but sim sorts first
	h := r.Histogram("sim_b_ms", "b", 1, []float64{1, 10})
	c.Add(0, 3)
	h.Observe(0, 5)
	tab := r.Snapshot()
	got := tab.Render(0)
	// Sim rows first (name-sorted), then host; histogram flattens to
	// cumulative _le_ rows plus _sum/_count.
	for _, want := range []string{
		"sim_a_total", "sim_b_ms_le_1", "sim_b_ms_le_10", "sim_b_ms_le_inf",
		"sim_b_ms_sum", "sim_b_ms_count", "host_z",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("snapshot missing row %q:\n%s", want, got)
		}
	}
	if strings.Index(got, "sim_a_total") > strings.Index(got, "host_z") {
		t.Fatalf("sim rows must precede host rows:\n%s", got)
	}
}

func TestSimSnapshotExcludesHostPlane(t *testing.T) {
	// Two registries with identical sim-plane activity but different
	// host-plane activity: full snapshots differ, sim snapshots are
	// byte-identical — the row-level analogue of telemetry.Table.Sim.
	build := func(hostN int64) *Registry {
		r := NewRegistry()
		c := r.Counter("sim_a_total", "a", 2)
		c.Add(0, 10)
		c.Add(1, 20)
		hc := r.HostCounter("host_b_total", "b")
		hc.Add(0, hostN)
		return r
	}
	r1, r2 := build(1), build(999)
	if telemetry.Equal(r1.Snapshot(), r2.Snapshot()) {
		t.Fatal("full snapshots should differ (host plane diverged)")
	}
	if !telemetry.Equal(r1.SimSnapshot(), r2.SimSnapshot()) {
		t.Fatalf("sim snapshots must be identical:\n%s\nvs\n%s",
			r1.SimSnapshot().Render(0), r2.SimSnapshot().Render(0))
	}
	if strings.Contains(r1.SimSnapshot().Render(0), "host_") {
		t.Fatal("SimSnapshot leaked a host-plane row")
	}
}

// TestWritePromFormat: the exposition writer, through the campaign
// aggregate of one run (the live /metrics renders nothing else).
func TestWritePromFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sim_a_total", "things counted", 1)
	c.Add(0, 2)
	h := r.Histogram("sim_h", "sim hist", 1, []float64{1, 10})
	h.Observe(0, 0.5)
	h.Observe(0, 100)
	camp := NewCampaign()
	camp.AddRun(r)
	var sb strings.Builder
	if err := camp.WriteProm(&sb, Status{}); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		"# HELP sim_a_total things counted\n",
		"# TYPE sim_a_total counter\n",
		`sim_a_total{plane="sim"} 2` + "\n",
		"# TYPE sim_h histogram\n",
		`sim_h_bucket{plane="sim",le="1"} 1` + "\n",
		`sim_h_bucket{plane="sim",le="10"} 1` + "\n",
		`sim_h_bucket{plane="sim",le="+Inf"} 2` + "\n",
		`sim_h_sum{plane="sim"} 100.5` + "\n",
		`sim_h_count{plane="sim"} 2` + "\n",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("exposition missing %q:\n%s", want, got)
		}
	}
}

func TestCampaignAddRunMerges(t *testing.T) {
	camp := NewCampaign()
	for i := 0; i < 2; i++ {
		r := NewRegistry()
		c := r.Counter("sim_a_total", "a", 1)
		c.Add(0, 10)
		hc := r.HostCounter("host_c_total", "c")
		hc.Add(0, int64(i+1))
		h := r.Histogram("sim_h", "h", 1, []float64{1})
		h.Observe(0, 0.5)
		camp.AddRun(r)
	}
	var sb strings.Builder
	if err := camp.WriteProm(&sb, Status{}); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		`sim_a_total{plane="sim"} 20`, // counters add
		`host_c_total{plane="host"} 3`,
		`sim_h_count{plane="sim"} 2`, // histogram counts add
		`sim_h_bucket{plane="sim",le="1"} 2`,
		"host_campaign_runs_total", // live series present
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("campaign exposition missing %q:\n%s", want, got)
		}
	}
}

// TestInstrumentSetsKeepTheirPlane: the two-plane split (DESIGN.md §11) is
// carried by the sets. Every field of a sim-plane set is an instrument
// registered on the sim plane and every field of SchedMetrics one
// registered on the host plane, so a layer handed a set can only update the
// plane the set belongs to. A new set in RunSet must be entered in planeOf.
func TestInstrumentSetsKeepTheirPlane(t *testing.T) {
	planeOf := map[reflect.Type]telemetry.Plane{
		reflect.TypeOf((*MPIMetrics)(nil)):    telemetry.SimPlane,
		reflect.TypeOf((*NetMetrics)(nil)):    telemetry.SimPlane,
		reflect.TypeOf((*DriverMetrics)(nil)): telemetry.SimPlane,
		reflect.TypeOf((*SchedMetrics)(nil)):  telemetry.HostPlane,
	}
	run := reflect.ValueOf(*NewRunSet(2, 1, nil))
	sets := 0
	for i := 0; i < run.NumField(); i++ {
		f := run.Type().Field(i)
		if f.Type == reflect.TypeOf((*Registry)(nil)) {
			continue
		}
		plane, ok := planeOf[f.Type]
		if !ok {
			t.Errorf("RunSet.%s (%v) belongs to no plane", f.Name, f.Type)
			continue
		}
		sets++
		set := run.Field(i).Elem()
		for j := 0; j < set.NumField(); j++ {
			g, v := set.Type().Field(j), set.Field(j)
			in, ok := v.Interface().(instrument)
			switch {
			case !ok:
				t.Errorf("%s.%s is a %v, not an instrument", set.Type().Name(), g.Name, g.Type)
			case v.IsNil():
				t.Errorf("%s.%s is not registered", set.Type().Name(), g.Name)
			case in.export().plane != plane:
				t.Errorf("%s.%s is registered on the %s plane, its set on the %s plane",
					set.Type().Name(), g.Name, in.export().plane, plane)
			}
		}
	}
	if sets != len(planeOf) {
		t.Fatalf("RunSet holds %d of the %d instrument sets", sets, len(planeOf))
	}
}

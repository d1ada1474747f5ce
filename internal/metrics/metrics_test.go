package metrics

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

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
	r.HostGauge("host_z", "z")            // registered first ...
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
	// byte-identical — the row-level analogue of NondetCols masking.
	build := func(hostN int64) *Registry {
		r := NewRegistry()
		c := r.Counter("sim_a_total", "a", 2)
		c.Add(0, 10)
		c.Add(1, 20)
		hc := r.HostCounter("host_b_total", "b", nil)
		hc.Add(hostN)
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

func TestWritePromFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sim_a_total", "things counted", 1)
	c.Add(0, 2)
	h := r.HostHistogram("host_h", "host hist", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(100)
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		"# HELP sim_a_total things counted\n",
		"# TYPE sim_a_total counter\n",
		`sim_a_total{plane="sim"} 2` + "\n",
		"# TYPE host_h histogram\n",
		`host_h_bucket{plane="host",le="1"} 1` + "\n",
		`host_h_bucket{plane="host",le="10"} 1` + "\n",
		`host_h_bucket{plane="host",le="+Inf"} 2` + "\n",
		`host_h_sum{plane="host"} 100.5` + "\n",
		`host_h_count{plane="host"} 2` + "\n",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("exposition missing %q:\n%s", want, got)
		}
	}
}

func TestHostCounterParentMirroring(t *testing.T) {
	camp := NewCampaign()
	rs := NewRunSet(2, 1, camp)
	rs.Sched.Windows.Add(3)
	rs.Sched.Windows.Inc()
	if got := rs.Sched.Windows.Value(); got != 4 {
		t.Fatalf("run-local value = %d, want 4", got)
	}
	if got := camp.StatusNow().LiveWindows; got != 4 {
		t.Fatalf("campaign live mirror = %d, want 4", got)
	}
}

func TestHostGaugeSetMax(t *testing.T) {
	r := NewRegistry()
	g := r.HostGauge("host_g", "g")
	g.SetMax(2)
	g.SetMax(1) // lower: ignored
	g.SetMax(5)
	if g.Value() != 5 {
		t.Fatalf("Value = %v, want 5", g.Value())
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(v float64) {
			defer wg.Done()
			g.SetMax(v)
		}(float64(i))
	}
	wg.Wait()
	if g.Value() != 7 {
		t.Fatalf("concurrent SetMax: Value = %v, want 7", g.Value())
	}
}

func TestCampaignAddRunMerges(t *testing.T) {
	camp := NewCampaign()
	for i := 0; i < 2; i++ {
		r := NewRegistry()
		c := r.Counter("sim_a_total", "a", 1)
		c.Add(0, 10)
		g := r.HostGauge("host_g", "g")
		g.Set(float64(i)) // gauge merge keeps the max
		h := r.Histogram("sim_h", "h", 1, []float64{1})
		h.Observe(0, 0.5)
		camp.AddRun(r)
	}
	var sb strings.Builder
	if err := camp.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		`sim_a_total{plane="sim"} 20`, // counters add
		`host_g{plane="host"} 1`,      // gauges max
		`sim_h_count{plane="sim"} 2`,  // histogram counts add
		`sim_h_bucket{plane="sim",le="1"} 2`,
		"host_campaign_runs_total", // live series present
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("campaign exposition missing %q:\n%s", want, got)
		}
	}
}

func TestCampaignStatus(t *testing.T) {
	camp := NewCampaign()
	camp.BeginCampaign("fig6", 10)
	camp.ObserveRun("fig6/0", "ok", 50*time.Millisecond)
	camp.ObserveRun("fig6/1", "err", 10*time.Millisecond)
	st := camp.StatusNow()
	if st.Campaign != "fig6" || st.Done != 2 || st.Total != 10 {
		t.Fatalf("status = %+v", st)
	}
	if st.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", st.Failed)
	}
	if st.LastID != "fig6/1" || st.LastStatus != "err" {
		t.Fatalf("last run = %s/%s", st.LastID, st.LastStatus)
	}
	if st.ETA <= 0 {
		t.Fatalf("ETA should be positive with 2/10 done, got %v", st.ETA)
	}
}

// TestInstrumentSetsKeepTheirPlane: the two-plane split (DESIGN.md §11) is
// carried by the set types. Every field of a sim-plane set is a laned
// instrument and every field of SchedMetrics an atomic host instrument, so a
// layer handed a set can only update the plane the set belongs to. A new set
// in RunSet must be entered in planeOf.
func TestInstrumentSetsKeepTheirPlane(t *testing.T) {
	simTypes := map[reflect.Type]bool{
		reflect.TypeOf((*Counter)(nil)): true, reflect.TypeOf((*Sum)(nil)): true,
		reflect.TypeOf((*Histogram)(nil)): true,
	}
	hostTypes := map[reflect.Type]bool{
		reflect.TypeOf((*HostCounter)(nil)): true, reflect.TypeOf((*HostGauge)(nil)): true,
		reflect.TypeOf((*HostHistogram)(nil)): true,
	}
	planeOf := map[reflect.Type]map[reflect.Type]bool{
		reflect.TypeOf((*MPIMetrics)(nil)):    simTypes,
		reflect.TypeOf((*NetMetrics)(nil)):    simTypes,
		reflect.TypeOf((*DriverMetrics)(nil)): simTypes,
		reflect.TypeOf((*SchedMetrics)(nil)):  hostTypes,
	}
	run := reflect.TypeOf(RunSet{})
	sets := 0
	for i := 0; i < run.NumField(); i++ {
		f := run.Field(i)
		if f.Type == reflect.TypeOf((*Registry)(nil)) {
			continue
		}
		allowed, ok := planeOf[f.Type]
		if !ok {
			t.Errorf("RunSet.%s (%v) belongs to no plane", f.Name, f.Type)
			continue
		}
		sets++
		set := f.Type.Elem()
		for j := 0; j < set.NumField(); j++ {
			if g := set.Field(j); !allowed[g.Type] {
				t.Errorf("%s.%s is a %v, not an instrument of its set's plane", set.Name(), g.Name, g.Type)
			}
		}
	}
	if sets != len(planeOf) {
		t.Fatalf("RunSet holds %d of the %d instrument sets", sets, len(planeOf))
	}
}

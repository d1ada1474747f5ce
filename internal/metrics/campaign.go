package metrics

// Campaign is the host-plane aggregation layer: everything in this file is
// wall-clock- and completion-order-dependent by design. No simulation code
// reaches it (DESIGN.md §11), so amrlint's determinism rule, which checks
// whatever the core reaches, never sees its clock reads. The per-run
// registries stay the deterministic artifact; the campaign aggregate exists
// for live exposition only.

import (
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"amrtools/internal/telemetry"
)

// Campaign accumulates metrics across the runs of one process: harness run
// outcomes (completed/failed, wall clock), campaign-wide allocation, and
// the merged snapshots of completed runs. The HTTP endpoints (serve.go) read
// it concurrently with runs executing.
//
// Merged sim-plane values accumulate in run-completion order, which varies
// with -j — the campaign aggregate is an exposition surface, never an
// identity surface. Identity checks compare per-run Registry.SimSnapshot
// tables instead.
type Campaign struct {
	// Live counters, updated from worker goroutines without the mutex.
	runsDone   atomic.Int64
	runsFailed atomic.Int64
	runsTotal  atomic.Int64
	allocBytes atomic.Int64
	mallocs    atomic.Int64

	mu       sync.Mutex
	created  time.Time
	name     string    // current (or last) harness campaign
	began    time.Time // when that campaign started
	nameDone int64     // runs completed within the current campaign
	nameTot  int64
	lastID   string
	lastStat string
	lastWall time.Duration
	agg      map[string]export // merged run snapshots, by metric name
}

// NewCampaign returns an empty campaign aggregate.
func NewCampaign() *Campaign {
	return &Campaign{
		created: time.Now(),
		agg:     map[string]export{},
	}
}

// BeginCampaign records the start of a harness campaign with n planned runs.
func (c *Campaign) BeginCampaign(name string, n int) {
	c.runsTotal.Add(int64(n))
	c.mu.Lock()
	c.name = name
	c.began = time.Now()
	c.nameDone = 0
	c.nameTot = int64(n)
	c.mu.Unlock()
}

// ObserveRun records one run completion. status is the harness status string
// ("ok", "err", "panic", "timeout").
func (c *Campaign) ObserveRun(id, status string, wall time.Duration) {
	c.runsDone.Add(1)
	if status != "ok" {
		c.runsFailed.Add(1)
	}
	c.mu.Lock()
	c.nameDone++
	c.lastID = id
	c.lastStat = status
	c.lastWall = wall
	c.mu.Unlock()
}

// AddAlloc accumulates a campaign's process-wide heap growth.
func (c *Campaign) AddAlloc(bytes, mallocs uint64) {
	c.allocBytes.Add(int64(bytes))
	c.mallocs.Add(int64(mallocs))
}

// AddRun merges a completed run's registry into the campaign aggregate:
// counters and histogram buckets add.
func (c *Campaign) AddRun(r *Registry) {
	if r == nil {
		return
	}
	exps := r.exports()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range exps {
		old, ok := c.agg[e.name]
		if !ok {
			// Copy the bucket slice: the export aliases nothing mutable, but
			// merging below writes into it.
			if e.buckets != nil {
				e.buckets = append([]int64(nil), e.buckets...)
			}
			c.agg[e.name] = e
			continue
		}
		switch e.kind {
		case kindCounter:
			old.value += e.value
		case kindHistogram:
			for i := range old.buckets {
				old.buckets[i] += e.buckets[i]
			}
			old.sum += e.sum
			old.count += e.count
		default:
			panic("metrics: unknown kind in campaign merge")
		}
		c.agg[e.name] = old
	}
}

// liveExports synthesizes the campaign's own host-plane series.
func (c *Campaign) liveExports() []export {
	uptime := time.Since(c.created).Seconds()
	return []export{
		{name: "host_campaign_runs_total", help: "runs planned across campaigns",
			plane: telemetry.HostPlane, kind: kindCounter, value: float64(c.runsTotal.Load())},
		{name: "host_campaign_runs_completed_total", help: "runs completed",
			plane: telemetry.HostPlane, kind: kindCounter, value: float64(c.runsDone.Load())},
		{name: "host_campaign_runs_failed_total", help: "runs that ended err/panic/timeout",
			plane: telemetry.HostPlane, kind: kindCounter, value: float64(c.runsFailed.Load())},
		{name: "host_campaign_alloc_bytes_total", help: "process heap growth across campaigns",
			plane: telemetry.HostPlane, kind: kindCounter, value: float64(c.allocBytes.Load())},
		{name: "host_campaign_mallocs_total", help: "process allocations across campaigns",
			plane: telemetry.HostPlane, kind: kindCounter, value: float64(c.mallocs.Load())},
		{name: "host_campaign_uptime_seconds", help: "seconds since the campaign aggregate was created",
			plane: telemetry.HostPlane, kind: kindGauge, value: uptime},
	}
}

// WriteProm renders the campaign aggregate — merged run snapshots plus the
// live campaign series — in the Prometheus text exposition format.
func (c *Campaign) WriteProm(w io.Writer) error {
	c.mu.Lock()
	exps := make([]export, 0, len(c.agg)+8)
	names := make([]string, 0, len(c.agg))
	for name := range c.agg {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e := c.agg[name]
		if e.buckets != nil {
			e.buckets = append([]int64(nil), e.buckets...)
		}
		exps = append(exps, e)
	}
	c.mu.Unlock()
	exps = append(exps, c.liveExports()...)
	sort.Slice(exps, func(i, j int) bool {
		if exps[i].plane != exps[j].plane {
			return exps[i].plane < exps[j].plane
		}
		return exps[i].name < exps[j].name
	})
	return writeProm(w, exps)
}

// Status is a point-in-time campaign progress view for /statusz.
type Status struct {
	Campaign    string // current (or last) harness campaign name
	Done, Total int64  // runs within that campaign
	AllDone     int64  // runs completed across all campaigns
	AllTotal    int64  // runs planned across all campaigns
	Failed      int64
	LastID      string // most recently completed run
	LastStatus  string
	LastWall    time.Duration
	Elapsed     time.Duration // since the current campaign began
	ETA         time.Duration // naive remaining-time estimate (0 = unknown)
	// Event-queue split over completed runs, either engine: events appended
	// behind a process lane's tail, events pushed on the heap, and the heap
	// length summed over pops.
	LaneEvents, HeapEvents, HeapLenAtPop int64
	Uptime                               time.Duration
}

// StatusNow snapshots campaign progress.
func (c *Campaign) StatusNow() Status {
	now := time.Now()
	c.mu.Lock()
	s := Status{
		Campaign:   c.name,
		Done:       c.nameDone,
		Total:      c.nameTot,
		LastID:     c.lastID,
		LastStatus: c.lastStat,
		LastWall:   c.lastWall,
	}
	if !c.began.IsZero() {
		s.Elapsed = now.Sub(c.began)
	}
	s.LaneEvents = int64(c.agg["host_sched_lane_events_total"].value)
	s.HeapEvents = int64(c.agg["host_sched_heap_events_total"].value)
	s.HeapLenAtPop = int64(c.agg["host_sched_heap_len_at_pop_total"].value)
	c.mu.Unlock()
	s.AllDone = c.runsDone.Load()
	s.AllTotal = c.runsTotal.Load()
	s.Failed = c.runsFailed.Load()
	s.Uptime = now.Sub(c.created)
	if s.Done > 0 && s.Total > s.Done {
		s.ETA = time.Duration(float64(s.Elapsed) / float64(s.Done) * float64(s.Total-s.Done))
	}
	return s
}

package metrics

// Campaign is the host-plane aggregation layer: everything in this file is
// completion-order-dependent by design. No simulation code reaches it
// (DESIGN.md §11). The per-run registries stay the deterministic artifact;
// the campaign aggregate exists for live exposition only. How many runs
// were planned, done and failed, and what they allocated, is not kept here:
// the harness Recorder is the one campaign ledger, and the live endpoints
// read it as a Status.

import (
	"io"
	"sort"
	"sync"
	"time"

	"amrtools/internal/telemetry"
)

// Campaign merges the registries of the completed runs of one process. The
// HTTP endpoints (serve.go) read it concurrently with runs executing.
//
// Merged sim-plane values accumulate in run-completion order, which varies
// with -j — the campaign aggregate is an exposition surface, never an
// identity surface. Identity checks compare per-run Registry.SimSnapshot
// tables instead.
type Campaign struct {
	mu  sync.Mutex
	agg map[string]export // merged run snapshots, by metric name
}

// NewCampaign returns an empty campaign aggregate.
func NewCampaign() *Campaign {
	return &Campaign{agg: map[string]export{}}
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

// QueueSplit returns the event-queue split over the merged runs, either
// engine: events appended behind a process lane's tail, events pushed on
// the heap, and the heap length summed over pops.
func (c *Campaign) QueueSplit() (lane, heap, heapLenAtPop int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int64(c.agg["host_sched_lane_events_total"].value),
		int64(c.agg["host_sched_heap_events_total"].value),
		int64(c.agg["host_sched_heap_len_at_pop_total"].value)
}

// WriteProm renders the campaign aggregate — merged run snapshots plus the
// campaign series of st, the ledger's view — in the Prometheus text
// exposition format.
func (c *Campaign) WriteProm(w io.Writer, st Status) error {
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
	exps = append(exps, st.exports()...)
	sort.Slice(exps, func(i, j int) bool {
		if exps[i].plane != exps[j].plane {
			return exps[i].plane < exps[j].plane
		}
		return exps[i].name < exps[j].name
	})
	return writeProm(w, exps)
}

// Status is a point-in-time view of the campaign ledger, rendered on
// /statusz and as the host_campaign_* series.
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
	// AllocBytes and Mallocs are the process-wide heap growth summed over
	// the finished campaigns.
	AllocBytes, Mallocs uint64
	Uptime              time.Duration // since the ledger was created
}

// exports synthesizes the campaign's own host-plane series.
func (st Status) exports() []export {
	series := func(name, help string, k kind, v float64) export {
		return export{name: name, help: help, plane: telemetry.HostPlane, kind: k, value: v}
	}
	return []export{
		series("host_campaign_runs_total", "runs planned across campaigns", kindCounter, float64(st.AllTotal)),
		series("host_campaign_runs_completed_total", "runs completed", kindCounter, float64(st.AllDone)),
		series("host_campaign_runs_failed_total", "runs that ended err/panic/timeout", kindCounter, float64(st.Failed)),
		series("host_campaign_alloc_bytes_total", "process heap growth across campaigns", kindCounter, float64(st.AllocBytes)),
		series("host_campaign_mallocs_total", "process allocations across campaigns", kindCounter, float64(st.Mallocs)),
		series("host_campaign_uptime_seconds", "seconds since the campaign ledger was created", kindGauge, st.Uptime.Seconds()),
	}
}

package harness

import (
	"runtime"
	"sync"
	"time"

	"amrtools/internal/colfile"
	"amrtools/internal/telemetry"
)

// CampaignRow is the spec id used for the per-campaign summary row in the
// metrics table (per-run rows carry the spec's own id).
const CampaignRow = "__campaign__"

// Recorder accumulates harness run metrics across campaigns into one
// telemetry.Table, the same columnar pipeline the simulations themselves
// use, so campaign execution is queryable with amrquery after a colfile
// dump.
//
// Schema: campaign (str), spec (str), status (str), wall_ms (float),
// events (int), rank_bytes (int), heap_mb (float), alloc_mb (float),
// mallocs (int), err (str).
//
// Per-run rows record wall clock, DES events, the run's largest per-rank
// metadata footprint (Meter.SetRankBytes; 0 when untracked — the
// distributed-forest scaling metric), and the process heap right after the
// run; alloc columns are zero (Go exposes no per-goroutine allocation
// counters). Each campaign then gets one summary row (spec = CampaignRow)
// whose wall_ms is the campaign's end-to-end wall clock — under parallel
// execution this is less than the sum of its runs — whose rank_bytes and
// heap_mb are the maxima over the campaign's runs, and whose
// alloc_mb/mallocs are the process-wide heap growth across the campaign
// measured with runtime.ReadMemStats.
type Recorder struct {
	mu    sync.Mutex
	table *telemetry.Table
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{table: telemetry.NewTable(
		telemetry.StrCol("campaign"), telemetry.StrCol("spec"),
		telemetry.StrCol("status"), telemetry.FloatCol("wall_ms"),
		telemetry.IntCol("events"), telemetry.IntCol("rank_bytes"),
		telemetry.FloatCol("heap_mb"), telemetry.FloatCol("alloc_mb"),
		telemetry.IntCol("mallocs"), telemetry.StrCol("err"),
	)}
}

// Table returns the accumulated metrics table. The recorder keeps appending
// to the same table, so call it after the campaigns of interest finish.
func (r *Recorder) Table() *telemetry.Table {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.table
}

// WriteFile dumps the accumulated table as an amrquery-readable colfile.
func (r *Recorder) WriteFile(path string) error {
	return colfile.WriteFile(path, r.Table(), 256)
}

// recording measures process-wide allocation across one campaign.
type recording struct {
	before runtime.MemStats
}

func (r *recording) begin() { runtime.ReadMemStats(&r.before) }

// allocDelta is the heap growth over one campaign.
type allocDelta struct {
	bytes   uint64
	mallocs uint64
}

func (r *recording) end() allocDelta {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return allocDelta{
		bytes:   after.TotalAlloc - r.before.TotalAlloc,
		mallocs: after.Mallocs - r.before.Mallocs,
	}
}

// recordCampaign appends the campaign's per-run rows (in spec order) and
// its summary row. (Package-level because Go methods cannot be generic.)
func recordCampaign[T any](r *Recorder, campaign string, elapsed time.Duration, alloc allocDelta, results []Result[T]) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var events, maxRankBytes int64
	maxHeap := 0.0
	for _, res := range results {
		errStr := ""
		if res.Err != nil {
			errStr = res.Err.Error()
		}
		r.table.Append(campaign, res.ID, res.Status.String(),
			float64(res.Wall)/float64(time.Millisecond), res.Events,
			int(res.RankBytes), res.HeapMB, 0.0, 0, errStr)
		events += res.Events
		if res.RankBytes > maxRankBytes {
			maxRankBytes = res.RankBytes
		}
		if res.HeapMB > maxHeap {
			maxHeap = res.HeapMB
		}
	}
	r.table.Append(campaign, CampaignRow, StatusOK.String(),
		float64(elapsed)/float64(time.Millisecond), events,
		int(maxRankBytes), maxHeap,
		float64(alloc.bytes)/(1<<20), int(alloc.mallocs), "")
}

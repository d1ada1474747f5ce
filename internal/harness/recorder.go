package harness

import (
	"runtime"
	"sync"
	"time"

	"amrtools/internal/colfile"
	"amrtools/internal/metrics"
	"amrtools/internal/telemetry"
)

// CampaignRow is the spec id used for the per-campaign summary row in the
// metrics table (per-run rows carry the spec's own id).
const CampaignRow = "__campaign__"

// Recorder is the campaign ledger: harness.Run reports every campaign to it
// and to nothing else. It accumulates per-run metrics across campaigns into
// one telemetry.Table, the same columnar pipeline the simulations themselves
// use, so campaign execution is queryable with amrquery after a colfile
// dump; and it keeps the running counts behind Status, which the live
// endpoints (metrics.Serve) render on /statusz and as the host_campaign_*
// series.
//
// Schema: campaign (str), spec (str), status (str), wall_ms (float),
// events (int), rank_bytes (int), heap_mb (float), alloc_mb (float),
// mallocs (int), err (str); wall_ms and the heap columns are host-plane.
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
	mu      sync.Mutex
	table   *telemetry.Table
	created time.Time
	began   time.Time      // when the current campaign began
	st      metrics.Status // the ledger; Status fills in its clock fields
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{created: time.Now(), table: telemetry.NewTable(
		telemetry.StrCol("campaign"), telemetry.StrCol("spec"),
		telemetry.StrCol("status"), telemetry.FloatCol("wall_ms").Host(),
		telemetry.IntCol("events"), telemetry.IntCol("rank_bytes"),
		telemetry.FloatCol("heap_mb").Host(), telemetry.FloatCol("alloc_mb").Host(),
		telemetry.IntCol("mallocs").Host(), telemetry.StrCol("err"),
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

// Status returns the ledger as it stands: the current (or last) campaign
// and its progress, the counts over all campaigns, the last completed run,
// and the heap growth of the finished campaigns. It is safe to call while
// campaigns run.
func (r *Recorder) Status() metrics.Status {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.st
	if !r.began.IsZero() {
		s.Elapsed = now.Sub(r.began)
	}
	if s.Done > 0 && s.Total > s.Done {
		s.ETA = time.Duration(float64(s.Elapsed) / float64(s.Done) * float64(s.Total-s.Done))
	}
	s.Uptime = now.Sub(r.created)
	return s
}

// mark is where a campaign began: the wall clock and the process's
// cumulative allocation counters, which its end measures against.
type mark struct {
	at             time.Time
	bytes, mallocs uint64
}

// begin opens a campaign of n runs in the ledger.
func (r *Recorder) begin(campaign string, n int) mark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := mark{at: time.Now(), bytes: ms.TotalAlloc, mallocs: ms.Mallocs}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.began = m.at
	r.st.Campaign, r.st.Done, r.st.Total = campaign, 0, int64(n)
	r.st.AllTotal += int64(n)
	return m
}

// observe counts one run completion in.
func (r *Recorder) observe(id string, status Status, wall time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.st.Done++
	r.st.AllDone++
	if status != StatusOK {
		r.st.Failed++
	}
	r.st.LastID, r.st.LastStatus, r.st.LastWall = id, status.String(), wall
}

// recordCampaign closes the campaign begun at m: it appends the campaign's
// per-run rows (in spec order) and its summary row, and adds the campaign's
// heap growth to the ledger. (Package-level because Go methods cannot be
// generic.)
func recordCampaign[T any](r *Recorder, campaign string, m mark, results []Result[T]) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	elapsed := time.Since(m.at)
	bytes, mallocs := ms.TotalAlloc-m.bytes, ms.Mallocs-m.mallocs
	r.mu.Lock()
	defer r.mu.Unlock()
	r.st.AllocBytes += bytes
	r.st.Mallocs += mallocs
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
		float64(bytes)/(1<<20), int(mallocs), "")
}

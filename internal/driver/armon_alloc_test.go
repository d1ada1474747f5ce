package driver

import (
	"math"
	"runtime"
	"testing"

	"amrtools/internal/placement"
	"amrtools/internal/telemetry"
	"amrtools/internal/trace"
)

// TestArmOnReadsOneCell: the arming condition runs after every step row,
// while the step table is still growing, so what it reads must cost a cell
// read, not a join of the column. Over a driver run whose step table spans
// more than three chunks, the condition's evaluations allocate less than a
// byte per row; a join of the comm column each time a chunk seals would cost
// tens.
func TestArmOnReadsOneCell(t *testing.T) {
	cond := trace.WaitSpikeCondition(math.Inf(1)) // never fires: evaluated on every row
	var alloc uint64
	var before, after runtime.MemStats
	cfg := DefaultConfig([3]int{8, 8, 8}, 0, 50, placement.Baseline{}, 1)
	cfg.Trace = &trace.Config{PerRankCap: 64, ArmOn: func(tb *telemetry.Table, row int) bool {
		runtime.ReadMemStats(&before)
		hit := cond(tb, row)
		runtime.ReadMemStats(&after)
		alloc += after.TotalAlloc - before.TotalAlloc
		return hit
	}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Steps.NumRows()
	if rows <= 3*telemetry.ChunkRows {
		t.Fatalf("step table has %d rows, want more than three chunks (%d)", rows, 3*telemetry.ChunkRows)
	}
	if res.Spans.Armed() {
		t.Fatal("the condition armed the recorder")
	}
	if alloc >= uint64(rows) {
		t.Errorf("evaluating the condition on %d rows allocated %d B, budget %d B", rows, alloc, rows)
	}
}

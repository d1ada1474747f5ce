package harness

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// plan builds n specs whose value encodes the spec index, with a tunable
// per-spec body.
func plan(n int, body func(i int, m *Meter) (int, error)) []Spec[int] {
	specs := make([]Spec[int], n)
	for i := range specs {
		i := i
		specs[i] = Spec[int]{
			ID:  fmt.Sprintf("spec-%02d", i),
			Run: func(m *Meter) (int, error) { return body(i, m) },
		}
	}
	return specs
}

func TestResultsInSpecOrderAcrossWorkerCounts(t *testing.T) {
	// Skewed per-spec delays so completion order differs wildly from spec
	// order under parallelism.
	body := func(i int, m *Meter) (int, error) {
		time.Sleep(time.Duration((i%3)*2) * time.Millisecond)
		m.AddEvents(int64(i))
		return i * i, nil
	}
	var sequential []Result[int]
	for _, workers := range []int{1, 2, 7, 32} {
		results := Run(Exec{Workers: workers}, "order", plan(12, body))
		if len(results) != 12 {
			t.Fatalf("workers=%d: %d results", workers, len(results))
		}
		for i, r := range results {
			if r.Value != i*i || r.ID != fmt.Sprintf("spec-%02d", i) {
				t.Fatalf("workers=%d: result %d = {%q, %d}", workers, i, r.ID, r.Value)
			}
			if r.Status != StatusOK || r.Err != nil {
				t.Fatalf("workers=%d: result %d status %v err %v", workers, i, r.Status, r.Err)
			}
			if r.Events != int64(i) {
				t.Fatalf("workers=%d: result %d events %d", workers, i, r.Events)
			}
		}
		if workers == 1 {
			sequential = results
		} else {
			for i := range results {
				if results[i].Value != sequential[i].Value {
					t.Fatalf("parallel value diverged at %d", i)
				}
			}
		}
	}
}

func TestPanicRecoveredIntoResult(t *testing.T) {
	specs := plan(5, func(i int, m *Meter) (int, error) {
		if i == 2 {
			panic("boom at two")
		}
		return i, nil
	})
	results := Run(Exec{Workers: 3}, "panics", specs)
	for i, r := range results {
		if i == 2 {
			if r.Status != StatusPanic {
				t.Fatalf("spec 2 status %v, want panic", r.Status)
			}
			var pe *PanicError
			if !errors.As(r.Err, &pe) {
				t.Fatalf("spec 2 err %T, want *PanicError", r.Err)
			}
			if pe.ID != "spec-02" || pe.Value != "boom at two" || len(pe.Stack) == 0 {
				t.Fatalf("panic error %+v incomplete", pe)
			}
			continue
		}
		// A panicking sibling must not take down the rest of the plan.
		if r.Status != StatusOK || r.Value != i {
			t.Fatalf("spec %d: status %v value %d", i, r.Status, r.Value)
		}
	}
	if _, err := Values(results); err == nil {
		t.Fatal("Values ignored the panic")
	}
}

func TestSpecErrorDoesNotStopPlan(t *testing.T) {
	wantErr := errors.New("spec failure")
	specs := plan(4, func(i int, m *Meter) (int, error) {
		if i == 1 {
			return 0, wantErr
		}
		return i, nil
	})
	results := Run(Exec{Workers: 2}, "errors", specs)
	if results[1].Status != StatusErr || !errors.Is(results[1].Err, wantErr) {
		t.Fatalf("result 1 = %+v", results[1])
	}
	if results[3].Status != StatusOK || results[3].Value != 3 {
		t.Fatalf("result 3 = %+v", results[3])
	}
	if _, err := Values(results); !errors.Is(err, wantErr) || !strings.Contains(err.Error(), `"spec-01"`) {
		t.Fatalf("Values err = %v, want spec-01's error naming the spec", err)
	}
}

// TestTimeoutAbortsRunGoroutine locks in the cooperative-abort fix: a
// timed-out spec that polls Meter.Aborted must exit shortly after its
// result is recorded, returning the process to its pre-campaign goroutine
// count instead of leaking an abandoned run until exit.
func TestTimeoutAbortsRunGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	var exited atomic.Bool
	specs := plan(1, func(i int, m *Meter) (int, error) {
		defer exited.Store(true)
		for !m.Aborted() {
			time.Sleep(time.Millisecond)
		}
		return 0, errors.New("aborted")
	})
	results := Run(Exec{Workers: 1, Timeout: 20 * time.Millisecond}, "abort", specs)
	if results[0].Status != StatusTimeout {
		t.Fatalf("status %v, want timeout", results[0].Status)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !exited.Load() || runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("abandoned run still alive: exited=%v goroutines %d > %d",
				exited.Load(), runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestTimeoutMarksRunAndOthersComplete(t *testing.T) {
	release := make(chan struct{})
	defer close(release) // unblock the abandoned goroutine at test end
	specs := plan(3, func(i int, m *Meter) (int, error) {
		if i == 0 {
			<-release // simulated deadlock
		}
		return i, nil
	})
	results := Run(Exec{Workers: 2, Timeout: 20 * time.Millisecond}, "timeouts", specs)
	if results[0].Status != StatusTimeout {
		t.Fatalf("stuck spec status %v, want timeout", results[0].Status)
	}
	var te *TimeoutError
	if !errors.As(results[0].Err, &te) || te.ID != "spec-00" {
		t.Fatalf("timeout err = %v", results[0].Err)
	}
	if results[0].Wall < 20*time.Millisecond {
		t.Fatalf("timeout wall %v below the limit", results[0].Wall)
	}
	for i := 1; i < 3; i++ {
		if results[i].Status != StatusOK || results[i].Value != i {
			t.Fatalf("spec %d: %+v", i, results[i])
		}
	}
}

func TestProgressReportsEveryRun(t *testing.T) {
	seen := map[string]Progress{}
	lastDone := 0
	progress := func(p Progress) {
		// Called under the harness mutex, so plain map access is safe.
		if p.Campaign != "progress" || p.Total != 6 {
			t.Errorf("bad progress header: %+v", p)
		}
		if p.Done != lastDone+1 {
			t.Errorf("done %d after %d", p.Done, lastDone)
		}
		lastDone = p.Done
		seen[p.ID] = p
	}
	Run(Exec{Workers: 3, Progress: progress}, "progress",
		plan(6, func(i int, m *Meter) (int, error) { return i, nil }))
	if len(seen) != 6 {
		t.Fatalf("progress saw %d distinct runs", len(seen))
	}
}

func TestRecorderRowsAndSummary(t *testing.T) {
	rec := NewRecorder()
	specs := plan(3, func(i int, m *Meter) (int, error) {
		m.AddEvents(100)
		if i == 1 {
			return 0, errors.New("sad")
		}
		return i, nil
	})
	Run(Exec{Workers: 2, Recorder: rec}, "camp-a", specs)
	Run(Exec{Workers: 1, Recorder: rec}, "camp-b",
		plan(1, func(i int, m *Meter) (int, error) { return 0, nil }))

	tab := rec.Table()
	if tab.NumRows() != 3+1+1+1 { // camp-a runs + summary, camp-b run + summary
		t.Fatalf("metrics rows = %d", tab.NumRows())
	}
	campaigns := tab.Strings("campaign")
	specsCol := tab.Strings("spec")
	status := tab.Strings("status")
	events := tab.Ints("events")
	// Per-run rows come in spec order, summary last.
	if specsCol[0] != "spec-00" || specsCol[1] != "spec-01" || specsCol[2] != "spec-02" {
		t.Fatalf("per-run rows out of order: %v", specsCol[:3])
	}
	if status[1] != "err" || status[0] != "ok" {
		t.Fatalf("status col = %v", status[:3])
	}
	if specsCol[3] != CampaignRow || campaigns[3] != "camp-a" {
		t.Fatalf("summary row = %q/%q", campaigns[3], specsCol[3])
	}
	if events[3] != 300 {
		t.Fatalf("campaign events = %d, want 300", events[3])
	}
	if tab.Floats("alloc_mb")[3] < 0 {
		t.Fatalf("negative alloc delta")
	}
	if campaigns[4] != "camp-b" || specsCol[5] != CampaignRow {
		t.Fatalf("camp-b rows misplaced: %v %v", campaigns[4:], specsCol[4:])
	}
}

// TestRecorderStatusMatchesTable: the ledger behind /statusz and the -out
// table are one record. After a campaign with an erring spec and one with a
// timed-out spec, Status counts the table's per-run rows and its non-ok
// ones, sums its summary rows' allocation, and names the second campaign
// and its last run.
func TestRecorderStatusMatchesTable(t *testing.T) {
	rec := NewRecorder()
	Run(Exec{Workers: 2, Recorder: rec}, "camp-a", plan(4, func(i int, m *Meter) (int, error) {
		if i == 2 {
			return 0, errors.New("sad")
		}
		return i, nil
	}))
	Run(Exec{Workers: 1, Timeout: 20 * time.Millisecond, Recorder: rec}, "camp-b",
		plan(3, func(i int, m *Meter) (int, error) {
			for i == 1 && !m.Aborted() {
				time.Sleep(time.Millisecond)
			}
			return i, nil
		}))

	st, tab := rec.Status(), rec.Table()
	spec, status := tab.Strings("spec"), tab.Strings("status")
	runs, failed, mallocs, allocMB := 0, 0, int64(0), 0.0
	for r := range tab.NumRows() {
		if spec[r] == CampaignRow {
			mallocs += tab.Ints("mallocs")[r]
			allocMB += tab.Floats("alloc_mb")[r]
			continue
		}
		runs++
		if status[r] != StatusOK.String() {
			failed++
		}
	}
	if runs != 7 || failed != 2 {
		t.Fatalf("table: %d runs, %d failed; want 7, 2", runs, failed)
	}
	if st.AllDone != int64(runs) || st.AllTotal != int64(runs) || st.Failed != int64(failed) {
		t.Fatalf("ledger: %d/%d done, %d failed; table: %d runs, %d failed",
			st.AllDone, st.AllTotal, st.Failed, runs, failed)
	}
	if st.Mallocs == 0 || st.Mallocs != uint64(mallocs) {
		t.Fatalf("ledger mallocs %d, summary rows %d", st.Mallocs, mallocs)
	}
	if got := float64(st.AllocBytes) / (1 << 20); math.Abs(got-allocMB) > 1e-9*allocMB {
		t.Fatalf("ledger alloc %v MB, summary rows %v MB", got, allocMB)
	}
	last := tab.NumRows() - 2 // camp-b's last run, before its summary row
	if st.Campaign != "camp-b" || st.Done != 3 || st.Total != 3 ||
		st.LastID != spec[last] || st.LastStatus != status[last] ||
		float64(st.LastWall)/float64(time.Millisecond) != tab.Floats("wall_ms")[last] {
		t.Fatalf("ledger: campaign %q %d/%d, last %s (%s, %v); want camp-b 3/3, last %s (%s, %vms)",
			st.Campaign, st.Done, st.Total, st.LastID, st.LastStatus, st.LastWall,
			spec[last], status[last], tab.Floats("wall_ms")[last])
	}
	if st.ETA != 0 || st.Elapsed <= 0 || st.Uptime < st.Elapsed {
		t.Fatalf("ledger clock: elapsed %v, eta %v, uptime %v", st.Elapsed, st.ETA, st.Uptime)
	}
}

// TestRecorderHostColumns pins the recorder's plane split: its host
// readings are exactly the wall clock and the three heap columns, so every
// other column of -out telemetry joins the identity contract.
func TestRecorderHostColumns(t *testing.T) {
	host := NewRecorder().Table().HostCols()
	if want := []string{"wall_ms", "heap_mb", "alloc_mb", "mallocs"}; !slices.Equal(host, want) {
		t.Fatalf("host-plane columns %v, want %v", host, want)
	}
}

func TestZeroSpecsAndWorkerClamp(t *testing.T) {
	if got := Run[int](Exec{}, "empty", nil); len(got) != 0 {
		t.Fatalf("empty plan returned %d results", len(got))
	}
	// More workers than specs must not deadlock or duplicate work.
	var ran int32
	results := Run(Exec{Workers: 64}, "clamp",
		plan(2, func(i int, m *Meter) (int, error) {
			atomic.AddInt32(&ran, 1)
			return i, nil
		}))
	if ran != 2 || len(results) != 2 {
		t.Fatalf("ran=%d results=%d", ran, len(results))
	}
}

func TestSerialPinsOneWorker(t *testing.T) {
	e := Exec{Workers: 8}.Serial()
	if e.Workers != 1 {
		t.Fatalf("Serial workers = %d", e.Workers)
	}
	var inFlight, maxInFlight int32
	Run(e, "serial", plan(6, func(i int, m *Meter) (int, error) {
		cur := atomic.AddInt32(&inFlight, 1)
		for {
			old := atomic.LoadInt32(&maxInFlight)
			if cur <= old || atomic.CompareAndSwapInt32(&maxInFlight, old, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		atomic.AddInt32(&inFlight, -1)
		return i, nil
	}))
	if maxInFlight != 1 {
		t.Fatalf("serial plan reached %d concurrent runs", maxInFlight)
	}
}

// TestStatusStrings pins the rendered status vocabulary (it lands in the
// metrics table and progress lines).
func TestStatusStrings(t *testing.T) {
	want := []string{"ok", "err", "panic", "timeout"}
	for i, w := range want {
		if got := Status(i).String(); got != w {
			t.Fatalf("Status(%d) = %q, want %q", i, got, w)
		}
	}
	if !strings.Contains((&TimeoutError{ID: "x", Limit: time.Second}).Error(), "x") {
		t.Fatal("timeout error drops spec id")
	}
}

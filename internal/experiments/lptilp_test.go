package experiments

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"amrtools/internal/harness"
)

// TestLPTvsILPHonoursTimeout: the full-size solver campaign under a 1 ms
// timeout reports the timeout, and its abandoned branch-and-bound searches
// stop at their next stop poll instead of spending their whole node budget
// (seconds each) on workers the suite has moved on from.
func TestLPTvsILPHonoursTimeout(t *testing.T) {
	base := runtime.NumGoroutine()
	_, err := LPTvsILP(Options{Seed: 42, Exec: harness.Exec{Workers: 2, Timeout: time.Millisecond}})
	var timeout *harness.TimeoutError
	if !errors.As(err, &timeout) {
		t.Fatalf("LPTvsILP under a 1ms timeout returned %v, want a *harness.TimeoutError", err)
	}
	returned := time.Now()
	n := runtime.NumGoroutine()
	for deadline := returned.Add(250 * time.Millisecond); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > base {
		t.Fatalf("%d goroutines 250ms after the timed-out campaign returned, %d before", n, base)
	}
	t.Logf("goroutines back at baseline %v after the campaign returned", time.Since(returned))
}

package metrics_test

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"amrtools/internal/harness"
	"amrtools/internal/metrics"
)

// get fetches a path from the test server and returns status + body.
func get(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// TestServeEndpoints: the endpoints render the campaign ledger of a
// harness.Recorder mid-campaign (one of three runs done) and the merged
// registries of a Campaign.
func TestServeEndpoints(t *testing.T) {
	rec := harness.NewRecorder()
	release, finished := make(chan struct{}), make(chan struct{})
	specs := make([]harness.Spec[int], 3)
	for i := range specs {
		specs[i] = harness.Spec[int]{ID: fmt.Sprintf("serve-test/%d", i), Run: func(*harness.Meter) (int, error) {
			if i > 0 {
				<-release
			}
			return i, nil
		}}
	}
	go func() {
		harness.Run(harness.Exec{Workers: 3, Recorder: rec}, "serve-test", specs)
		close(finished)
	}()
	defer func() {
		close(release)
		<-finished
	}()
	for deadline := time.Now().Add(10 * time.Second); rec.Status().Done < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the first run never reached the ledger")
		}
	}
	if st := rec.Status(); st.ETA <= 0 {
		t.Fatalf("ETA should be positive with 1/3 done, got %v", st.ETA)
	}

	camp := metrics.NewCampaign()
	r := metrics.NewRegistry()
	c := r.Counter("sim_probe_total", "probe", 1)
	c.Add(0, 11)
	camp.AddRun(r)
	// A run's event queue: 75 of 100 events appended to a lane, 2 000 heap
	// entries summed over the pops.
	rs := metrics.NewRunSet(2, 1, nil)
	rs.Sched.LaneEvents.Add(0, 75)
	rs.Sched.HeapEvents.Add(0, 25)
	rs.Sched.HeapLenAtPop.Add(0, 2000)
	camp.AddRun(rs.Reg)

	srv, err := metrics.Serve("127.0.0.1:0", camp, rec.Status)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr()

	code, body := get(t, addr, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if body == "" {
		t.Fatal("/metrics exposition is empty")
	}
	for _, want := range []string{
		`sim_probe_total{plane="sim"} 11`,
		"host_campaign_runs_total",
		"host_campaign_runs_completed_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = get(t, addr, "/statusz")
	if code != http.StatusOK {
		t.Fatalf("/statusz status = %d", code)
	}
	for _, want := range []string{"serve-test", "1/3", "campaign progress",
		"75 laned, 25 via heap (75.0% laned), mean heap 20 at pop"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/statusz missing %q:\n%s", want, body)
		}
	}

	code, _ = get(t, addr, "/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d", code)
	}

	code, _ = get(t, addr, "/")
	if code != http.StatusOK {
		t.Fatalf("/ status = %d", code)
	}
	code, _ = get(t, addr, "/nope")
	if code != http.StatusNotFound {
		t.Fatalf("/nope status = %d, want 404", code)
	}
}

package metrics

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
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

func TestServeEndpoints(t *testing.T) {
	camp := NewCampaign()
	camp.BeginCampaign("serve-test", 3)
	camp.ObserveRun("serve-test/0", "ok", 5*time.Millisecond)
	r := NewRegistry()
	c := r.Counter("sim_probe_total", "probe", 1)
	c.Add(0, 11)
	camp.AddRun(r)
	// A sharded run's scheduler split: 60 events in windows, 30 of them in
	// forked windows, 40 on the busiest shard.
	rs := NewRunSet(2, 1, camp)
	rs.Sched.WindowEvents.Observe(60)
	rs.Sched.ParallelEvents.Add(30)
	rs.Sched.CriticalEvents.Add(40)
	// Its event queue: 75 of 100 events appended to a lane, 2 000 heap
	// entries summed over the pops.
	rs.Sched.LaneEvents.Add(75)
	rs.Sched.HeapEvents.Add(25)
	rs.Sched.HeapLenAtPop.Add(2000)
	camp.AddRun(rs.Reg)

	srv, err := Serve("127.0.0.1:0", camp)
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
		"60 in windows, 30 forked, 40 critical (ceiling 1.50x)",
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

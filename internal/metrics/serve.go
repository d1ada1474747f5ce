package metrics

// Live serving surface (host plane): an opt-in HTTP server exposing the
// campaign aggregate and the campaign ledger as Prometheus text (/metrics),
// a human progress page (/statusz), and the standard pprof handlers
// (/debug/pprof/). Everything here reads the mutex-guarded Campaign
// aggregate or a Status the ledger hands out — never a live run's registry
// — so serving concurrently with executing runs is safe and cannot perturb
// results. This file is host-plane, and only the binaries' -serve flags
// reach it, never simulation code.

import (
	"fmt"
	"html"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"time"
)

// Server is a live metrics endpoint bound to a campaign aggregate and a
// campaign ledger.
type Server struct {
	c      *Campaign
	status func() Status
	lis    net.Listener
	srv    *http.Server
}

// Serve starts an HTTP server on addr (e.g. ":8080" or "127.0.0.1:0") and
// returns once the listener is bound, so callers can print the resolved
// address before the campaign starts. Close releases it. c supplies the
// merged run series and the event-queue split; status, called on every
// request from the server's goroutines, supplies the campaign ledger's view
// (harness.Recorder.Status).
func Serve(addr string, c *Campaign, status func() Status) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics: serve: %w", err)
	}
	s := &Server{c: c, status: status, lis: lis}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/", s.handleRoot)
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(lis)
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) handleRoot(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, `<html><body><h1>amrtools metrics</h1><ul>
<li><a href="/metrics">/metrics</a> — Prometheus text exposition</li>
<li><a href="/statusz">/statusz</a> — live campaign progress</li>
<li><a href="/debug/pprof/">/debug/pprof/</a> — Go runtime profiles</li>
</ul></body></html>`)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.c.WriteProm(w, s.status()); err != nil {
		// Headers are gone; nothing to do but drop the connection.
		return
	}
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	st := s.status()
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, "<html><head><title>amrtools statusz</title>")
	fmt.Fprint(w, `<meta http-equiv="refresh" content="2"></head><body>`)
	fmt.Fprint(w, "<h1>campaign progress</h1><table>")
	row := func(k, v string) {
		fmt.Fprintf(w, "<tr><td><b>%s</b></td><td>%s</td></tr>", html.EscapeString(k), html.EscapeString(v))
	}
	name := st.Campaign
	if name == "" {
		name = "(no campaign started yet)"
	}
	row("campaign", name)
	row("runs done/total", fmt.Sprintf("%d/%d", st.Done, st.Total))
	row("all campaigns", fmt.Sprintf("%d/%d done, %d failed", st.AllDone, st.AllTotal, st.Failed))
	if st.LastID != "" {
		row("last run", fmt.Sprintf("%s (%s, %v)", st.LastID, st.LastStatus, st.LastWall.Round(time.Millisecond)))
	}
	row("elapsed", st.Elapsed.Round(time.Millisecond).String())
	if st.ETA > 0 {
		row("eta", st.ETA.Round(time.Second).String())
	}
	if lane, heap, heapLen := s.c.QueueSplit(); lane+heap > 0 {
		n := lane + heap
		row("event queue (completed runs)", fmt.Sprintf("%d laned, %d via heap (%.1f%% laned), mean heap %.0f at pop",
			lane, heap, 100*float64(lane)/float64(n), float64(heapLen)/float64(n)))
	}
	row("uptime", st.Uptime.Round(time.Second).String())
	fmt.Fprint(w, "</table>")
	fmt.Fprint(w, `<p><a href="/metrics">/metrics</a> · <a href="/debug/pprof/">/debug/pprof/</a></p>`)
	fmt.Fprint(w, "</body></html>")
}

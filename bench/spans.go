package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// tracer records spans in memory from this package's own call sites — one
// around every call into a layer's public API — and is written out when the
// run ends. A nil *span (and so every untraced run) makes each method a
// no-op, which keeps the call sites identical with tracing on and off.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []*span
}

// span is one interval, held by its call site between child/root and done.
// Spans of one repetition share rep.
type span struct {
	tr         *tracer
	parent     *span // nil for a root
	rep        int
	layer      string
	name       string
	start, end time.Duration // since tracer.t0
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add registers a started span. Harness workers call it concurrently.
func (tr *tracer) add(s *span) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// root opens a span with no parent; rep identifies the repetition (or probe
// sample) every descendant belongs to. A nil tracer yields a nil span.
func (tr *tracer) root(rep int, layer, name string) *span {
	if tr == nil {
		return nil
	}
	s := &span{tr: tr, rep: rep, layer: layer, name: name, start: time.Since(tr.t0)}
	tr.add(s)
	return s
}

// child opens a span caused by s. Safe on a nil span and from any goroutine.
func (s *span) child(layer, name string) *span {
	if s == nil {
		return nil
	}
	c := &span{tr: s.tr, parent: s, rep: s.rep, layer: layer, name: name, start: time.Since(s.tr.t0)}
	s.tr.add(c)
	return c
}

// done closes the span. Only the goroutine that opened it calls done, and
// spans are read only after the work that recorded them has been waited for.
func (s *span) done() {
	if s != nil {
		s.end = time.Since(s.tr.t0)
	}
}

// spanRec is a recorded span with its place in the output: id is its index,
// parent the index of the span that caused it (-1 for a root).
type spanRec struct {
	id, parent int
	rep        int
	layer      string
	name       string
	start, end time.Duration
}

// records numbers the spans in the order they were opened.
func (tr *tracer) records() []spanRec {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	ids := make(map[*span]int, len(tr.spans))
	for i, s := range tr.spans {
		ids[s] = i
	}
	out := make([]spanRec, len(tr.spans))
	for i, s := range tr.spans {
		parent := -1
		if s.parent != nil {
			parent = ids[s.parent]
		}
		out[i] = spanRec{id: i, parent: parent, rep: s.rep, layer: s.layer, name: s.name, start: s.start, end: s.end}
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover. Children may overlap one another
// (harness workers run specs concurrently), so coverage is the union of the
// child intervals clipped to the parent.
func selfTimes(spans []spanRec) []time.Duration {
	kids := make([][]int, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], s.id)
		}
	}
	self := make([]time.Duration, len(spans))
	for _, s := range spans {
		ks := kids[s.id]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].start < spans[ks[b]].start })
		covered, edge := time.Duration(0), s.start
		for _, k := range ks {
			lo, hi := spans[k].start, spans[k].end
			if lo < edge {
				lo = edge
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.id] = s.end - s.start - covered
	}
	return self
}

// layerSelf sums self time per layer over the spans accepted by keep.
func layerSelf(spans []spanRec, keep func(spanRec) bool) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		if keep(s) {
			out[s.layer] += self[s.id]
		}
	}
	return out
}

// writeCSV dumps every span with its derived self time.
func (tr *tracer) writeCSV(w io.Writer) error {
	spans := tr.records()
	self := selfTimes(spans)
	if _, err := fmt.Fprintln(w, "id,parent,rep,layer,name,start_us,end_us,self_us"); err != nil {
		return err
	}
	for _, s := range spans {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%s,%s,%.3f,%.3f,%.3f\n", s.id, s.parent, s.rep, s.layer, s.name,
			us(s.start), us(s.end), us(self[s.id])); err != nil {
			return err
		}
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

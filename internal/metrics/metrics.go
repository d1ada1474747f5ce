// Package metrics is the simulator's aggregate-observability layer: a
// registry of counters, sums, and histograms with two strictly separated
// planes (DESIGN.md §11).
//
// Simulated-plane instruments carry DES-derived quantities — MPI bytes/ops
// per collective class, fabric stall totals, per-epoch migration volume,
// per-phase virtual-time attribution mirroring the paper's profiling
// breakdown. Their values are part of the reproduction surface: a run's
// simulated-plane snapshot must be bit-identical across shard counts and
// harness worker counts, exactly like every result table. Instruments are
// *laned*: every update lands in the caller's lane (rank for MPI-driven
// metrics, node for fabric-driven ones — the ownership discipline of the
// DES itself), and Snapshot folds lanes in ascending lane order, so a float
// total's rounding depends on each lane's own event order, never on which
// shard ran first.
//
// Host-plane instruments carry execution-machinery quantities — the event
// queue's lane and heap split. They depend on the engine by nature and are
// excluded from every equality check, as host-plane table columns are
// (telemetry.Table.Sim). The plane is telemetry.Plane, a registration
// attribute, not a type: Registry.HostCounter registers a one-lane instance
// of the same Counter. A run's registry is written by the one goroutine
// executing the run and read after it; the live HTTP handlers (serve.go)
// read only the Campaign aggregate and the campaign ledger's Status.
//
// The sim-plane MPI and fabric sets are not an optional mirror of some
// other bookkeeping: they are the store. mpi.World and simnet.Network each
// own a set from construction (free-standing until driver.Config.Metrics
// swaps in the run's registered one), every emission site updates its lane
// unconditionally, and mpi.Meter, the census stall counts, the driver's
// per-step rows and Result.Phases are folds over those lanes. Only the
// host-plane scheduler set is optional (a nil check per Run).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"amrtools/internal/telemetry"
)

// kind is the exposition type of an instrument.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

// String returns the Prometheus TYPE keyword.
func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		panic(fmt.Sprintf("metrics: unknown kind %d", k))
	}
}

// export is the snapshot of one instrument: everything the table layout,
// the Prometheus exposition, and the campaign merge need.
type export struct {
	name  string
	help  string
	plane telemetry.Plane
	kind  kind
	value float64 // counter/gauge value
	// Histogram payload (nil for counters/gauges): per-bucket counts
	// aligned with bounds, plus the implicit +Inf bucket at the end.
	bounds  []float64
	buckets []int64
	sum     float64
	count   int64
}

// instrument is anything the registry can snapshot.
type instrument interface {
	export() export
}

// Registry holds one run's instruments. The driver builds it before spawning
// ranks and snapshots it after the engines drain; in between, every update
// comes from the run's own event order, so a snapshot is a pure function of
// the run.
type Registry struct {
	names map[string]bool
	ins   []instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]bool{}}
}

// register panics on duplicate names — metric names are a public, stable
// namespace; a silent collision would merge unrelated series. A nil
// registry registers nothing: its constructors return free-standing
// instruments (NewMPIMetrics, NewNetMetrics).
func (r *Registry) register(name string, in instrument) {
	if r == nil {
		return
	}
	if r.names[name] {
		panic("metrics: duplicate metric name " + name)
	}
	r.names[name] = true
	r.ins = append(r.ins, in)
}

// Counter registers a sim-plane monotonic counter with the given lane count.
func (r *Registry) Counter(name, help string, lanes int) *Counter {
	return r.counter(name, help, telemetry.SimPlane, lanes)
}

// HostCounter registers a one-lane host-plane counter.
func (r *Registry) HostCounter(name, help string) *Counter {
	return r.counter(name, help, telemetry.HostPlane, 1)
}

func (r *Registry) counter(name, help string, plane telemetry.Plane, lanes int) *Counter {
	c := &Counter{name: name, help: help, plane: plane, lanes: make([]int64, lanes)}
	r.register(name, c)
	return c
}

// Sum registers a sim-plane float accumulator with the given lane count.
func (r *Registry) Sum(name, help string, lanes int) *Sum {
	s := &Sum{name: name, help: help, plane: telemetry.SimPlane, lanes: make([]float64, lanes)}
	r.register(name, s)
	return s
}

// Histogram registers a sim-plane histogram with the given lane count and
// ascending upper bucket bounds (an implicit +Inf bucket is appended).
func (r *Registry) Histogram(name, help string, lanes int, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds not strictly ascending: " + name)
		}
	}
	nb := len(bounds) + 1 // + the +Inf bucket
	h := &Histogram{
		name: name, help: help, plane: telemetry.SimPlane, bounds: bounds,
		counts: make([]int64, lanes*nb),
		sums:   make([]float64, lanes),
		ns:     make([]int64, lanes),
		nb:     nb,
	}
	r.register(name, h)
	return h
}

// Counter is a monotonic counter. Each lane is owned by exactly one
// deterministic execution context (a rank's program, a node's fabric
// events; the scheduler for a one-lane host counter), so no sim-plane
// lane's value depends on the shard count.
type Counter struct {
	name, help string
	plane      telemetry.Plane
	lanes      []int64
}

// Inc adds 1 to the caller's lane.
func (c *Counter) Inc(lane int) { c.lanes[lane]++ }

// Add adds n to the caller's lane.
func (c *Counter) Add(lane int, n int64) { c.lanes[lane] += n }

// Lane returns one lane's count.
func (c *Counter) Lane(lane int) int64 { return c.lanes[lane] }

// Total folds the lanes (integer addition — order-free).
func (c *Counter) Total() int64 {
	var t int64
	for _, v := range c.lanes {
		t += v
	}
	return t
}

func (c *Counter) export() export {
	return export{name: c.name, help: c.help, plane: c.plane, kind: kindCounter,
		value: float64(c.Total())}
}

// Sum is a float accumulator. Per-lane accumulation order is fixed by the
// lane owner's deterministic event order, and Total folds lanes in
// ascending lane order — so the result is bit-identical across shard counts
// and GOMAXPROCS even though float addition does not commute in rounding.
type Sum struct {
	name, help string
	plane      telemetry.Plane
	lanes      []float64
}

// Add accumulates v into the caller's lane.
func (s *Sum) Add(lane int, v float64) { s.lanes[lane] += v }

// Lane returns one lane's accumulated value.
func (s *Sum) Lane(lane int) float64 { return s.lanes[lane] }

// Total folds the lanes in ascending lane order.
func (s *Sum) Total() float64 {
	var t float64
	for _, v := range s.lanes {
		t += v
	}
	return t
}

func (s *Sum) export() export {
	return export{name: s.name, help: s.help, plane: s.plane, kind: kindCounter,
		value: s.Total()}
}

// Histogram is a histogram with fixed bounds and laned storage: bucket
// counts are integers (order-free) and the per-lane value sums fold in lane
// order like Sum.
type Histogram struct {
	name, help string
	plane      telemetry.Plane
	bounds     []float64
	counts     []int64 // lane-major: counts[lane*nb+bucket]
	sums       []float64
	ns         []int64
	nb         int
}

// Observe records v in the caller's lane.
func (h *Histogram) Observe(lane int, v float64) {
	b := len(h.bounds) // +Inf bucket
	for i, ub := range h.bounds {
		if v <= ub {
			b = i
			break
		}
	}
	h.counts[lane*h.nb+b]++
	h.sums[lane] += v
	h.ns[lane]++
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var t int64
	for _, n := range h.ns {
		t += n
	}
	return t
}

func (h *Histogram) export() export {
	buckets := make([]int64, h.nb)
	lanes := len(h.ns)
	for lane := 0; lane < lanes; lane++ {
		for b := 0; b < h.nb; b++ {
			buckets[b] += h.counts[lane*h.nb+b]
		}
	}
	var sum float64
	var count int64
	for lane := 0; lane < lanes; lane++ {
		sum += h.sums[lane]
		count += h.ns[lane]
	}
	return export{name: h.name, help: h.help, plane: h.plane, kind: kindHistogram,
		bounds: h.bounds, buckets: buckets, sum: sum, count: count}
}

// exports snapshots every instrument, sim plane first, name-sorted within
// each plane — the deterministic layout every downstream consumer sees.
func (r *Registry) exports() []export {
	out := make([]export, 0, len(r.ins))
	for _, in := range r.ins {
		out = append(out, in.export())
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].plane != out[j].plane {
			return out[i].plane < out[j].plane
		}
		return out[i].name < out[j].name
	})
	return out
}

// Schema returns the snapshot-table schema: plane (str), metric (str),
// value (float). Histograms flatten into `<name>_le_<bound>` bucket rows
// plus `<name>_sum` and `<name>_count`.
func Schema() []telemetry.ColSpec {
	return []telemetry.ColSpec{
		telemetry.StrCol("plane"), telemetry.StrCol("metric"), telemetry.FloatCol("value"),
	}
}

// boundLabel renders a histogram bound for a flattened row name
// ("0.001" → "0_001"; the +Inf bucket is "inf").
func boundLabel(b float64) string {
	if math.IsInf(b, 1) {
		return "inf"
	}
	s := strconv.FormatFloat(b, 'g', -1, 64)
	out := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '.', '+', '-':
			out[i] = '_'
		default:
			out[i] = c
		}
	}
	return string(out)
}

// appendRows flattens one registry export into table rows (a registry
// holds no gauges: those are the campaign's own live series).
func appendRows(t *telemetry.Table, e export) {
	plane := e.plane.String()
	switch e.kind {
	case kindCounter:
		t.Append(plane, e.name, e.value)
	case kindHistogram:
		cum := int64(0)
		for i, n := range e.buckets {
			cum += n
			label := "inf"
			if i < len(e.bounds) {
				label = boundLabel(e.bounds[i])
			}
			t.Append(plane, e.name+"_le_"+label, float64(cum))
		}
		t.Append(plane, e.name+"_sum", e.sum)
		t.Append(plane, e.name+"_count", float64(e.count))
	default:
		panic(fmt.Sprintf("metrics: unknown kind %d", e.kind))
	}
}

// Snapshot renders every instrument (both planes) as a telemetry table:
// sim-plane rows first, then host-plane rows, name-sorted within each plane.
func (r *Registry) Snapshot() *telemetry.Table {
	t := telemetry.NewTable(Schema()...)
	for _, e := range r.exports() {
		appendRows(t, e)
	}
	return t
}

// SimSnapshot renders the simulated-plane instruments only — the
// bit-identity surface the shard/worker identity tests compare. Host-plane
// rows are excluded here by construction, the row-level analogue of
// telemetry.Table.Sim dropping host-plane columns.
func (r *Registry) SimSnapshot() *telemetry.Table {
	t := telemetry.NewTable(Schema()...)
	for _, e := range r.exports() {
		if e.plane == telemetry.SimPlane {
			appendRows(t, e)
		}
	}
	return t
}

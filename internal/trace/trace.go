// Package trace is the whole-run flight recorder: an always-compiled,
// config-gated span collector threaded through the simulation stack (mpi,
// simnet, driver). Every MPI operation (compute kernels, Isend/Irecv posts,
// blocking waits, barriers, allreduces, rebalance charges) and every fabric
// pathology event (shm queue-full stalls, NIC egress serialization, ACK
// recovery stalls) emits a span {rank, kind, t0, t1, peer, bytes, tag, step,
// epoch} into a per-rank ring buffer with a hard memory cap.
//
// The paper's §IV diagnosis loop ran on exactly this data: per-rank,
// per-event timelines, not aggregate counters — MPI_Wait spikes (Fig 1b),
// undersized shm queues, and thermal throttling were all found by tracing
// ranks over time. Aggregated meters (mpi.Meter) answer "how much"; the
// flight recorder answers "when, on whom, and why", which is what the
// detectors of trace/diagnose and the Perfetto export consume.
//
// Discipline mirrors internal/check: the recorder is always compiled, a nil
// *Recorder means tracing is off, and every emission site guards with a
// single nil check so the disabled path costs nothing measurable. Memory
// follows emission and is bounded by construction: each rank's buffer is a
// ring of fixed-size pages allocated as the rank emits, so a rank holds
// min(emitted, PerRankCap) spans rounded up to a page — an idle rank holds
// nothing — and once it reaches PerRankCap it evicts its oldest span, so an
// arbitrarily long run retains at most NumRanks x PerRankCap spans
// (evictions are counted, never silent).
package trace

import (
	"io"

	"amrtools/internal/colfile"
	"amrtools/internal/telemetry"
)

// Kind classifies a span.
type Kind uint8

const (
	// Compute is a compute-kernel execution on a rank.
	Compute Kind = iota
	// Throttle marks a compute kernel that executed under a node compute
	// slowdown factor > 1 (the simulated hardware's thermal sensor; it
	// covers the same interval as the corresponding Compute span).
	Throttle
	// Isend is a non-blocking send post (zero-width).
	Isend
	// Irecv is a non-blocking receive post (zero-width).
	Irecv
	// SendWait is a blocking MPI_Wait on a send request.
	SendWait
	// RecvWait is a blocking MPI_Wait on a receive request.
	RecvWait
	// Barrier is a barrier interval (arrival to release).
	Barrier
	// Allreduce is an allreduce interval (arrival to release).
	Allreduce
	// Rebalance is a redistribution charge (placement + migration time).
	Rebalance
	// ShmStall is the extra delivery delay a local message suffered because
	// the node's shared-memory queue was full (§IV-B queue size tuning).
	ShmStall
	// NicSerial is time a remote message waited for the node's NIC egress
	// behind messages from co-located ranks.
	NicSerial
	// AckStall is a sender blocked in the fabric's missing-ACK recovery
	// path (§IV-B MPI_Wait spikes; only without the drain-queue mitigation).
	AckStall
	// ProbePre is a pre-run health-probe kernel time for one node
	// (rank = the node's first rank, duration = worst-rank kernel time).
	ProbePre
	// ProbePost is the post-run health probe of the same node.
	ProbePost

	numKinds
)

// String returns the stable kind name used in the span table's kind column.
func (k Kind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Throttle:
		return "throttle"
	case Isend:
		return "isend"
	case Irecv:
		return "irecv"
	case SendWait:
		return "send_wait"
	case RecvWait:
		return "recv_wait"
	case Barrier:
		return "barrier"
	case Allreduce:
		return "allreduce"
	case Rebalance:
		return "rebalance"
	case ShmStall:
		return "shm_stall"
	case NicSerial:
		return "nic_serial"
	case AckStall:
		return "ack_stall"
	case ProbePre:
		return "probe_pre"
	case ProbePost:
		return "probe_post"
	}
	return "unknown"
}

// Span is one recorded interval on a rank's timeline. Peer and Tag are -1
// when not applicable; Step and Epoch are -1 for spans outside the timestep
// loop (health probes). The fields are ordered widest first so that a span
// is 48 bytes (TestSpanSize); construct it with a keyed literal.
type Span struct {
	T0    float64
	T1    float64
	Bytes int64
	Rank  int32
	Peer  int32
	Tag   int32
	Step  int32
	Epoch int32
	Kind  Kind
}

// Config parameterizes a Recorder.
type Config struct {
	// PerRankCap is the maximum number of spans retained per rank; when a
	// rank's ring fills, its oldest span is evicted (and counted in
	// Dropped). 0 uses DefaultPerRankCap.
	PerRankCap int
	// ArmOn, when set, is the arming condition of the §IV-C programmable
	// trigger: the recorder starts disarmed — spans offered before Arm() are
	// counted in Suppressed but not retained — and the driver evaluates
	// ArmOn against every per-step telemetry row, arming the recorder on
	// the first match, so cheap step telemetry watches for an anomaly and
	// heavy span collection starts only once it appears. Requires the
	// driver's per-step telemetry (CollectSteps). See WaitSpikeCondition
	// for the Fig 1b anomaly condition. Probe spans (EmitRaw) bypass arming
	// and ring eviction: there are at most two per node per run, so they
	// cannot grow the buffers.
	ArmOn func(t *telemetry.Table, row int) bool
}

// DefaultPerRankCap bounds per-rank span memory when Config.PerRankCap is 0:
// 4096 spans x 48 bytes = 192 KiB for a rank that emits that many.
const DefaultPerRankCap = 4096

// A ring's storage is pages of pageSpans spans (6 KiB), a power of two so
// that a slot splits into page and offset with a shift and a mask.
const (
	pageShift = 7
	pageSpans = 1 << pageShift
)

// ring is a circular span buffer of at most cap spans, stored in pages that
// are allocated as the ring fills: slot i lives at pages[i>>pageShift]
// [i&(pageSpans-1)], and a ring that has reached cap overwrites its oldest
// slot. Its eviction counter is per-ring (not recorder-global), like every
// other piece of per-span state: a rank's drops are its own.
type ring struct {
	pages   []*[pageSpans]Span
	cap     int
	head    int // slot of the oldest retained span; 0 until the ring is full
	n       int // retained count
	dropped int64
}

func (rg *ring) push(s Span) {
	slot := rg.n
	if slot < rg.cap {
		if slot>>pageShift == len(rg.pages) {
			rg.pages = append(rg.pages, new([pageSpans]Span))
		}
		rg.n++
	} else {
		slot = rg.head
		if rg.head++; rg.head == rg.cap {
			rg.head = 0
		}
		rg.dropped++
	}
	rg.pages[slot>>pageShift][slot&(pageSpans-1)] = s
}

// run returns the retained spans from the i-th oldest (0 <= i < n) on, as
// far as they are contiguous in storage: up to the end of their page, of the
// slots, or of what is retained.
func (rg *ring) run(i int) []Span {
	slot := rg.head + i
	if slot >= rg.cap {
		slot -= rg.cap
	}
	base := slot &^ (pageSpans - 1)
	end := min(slot+rg.n-i, rg.cap, base+pageSpans)
	return rg.pages[slot>>pageShift][slot-base : end-base]
}

// Recorder is the per-run flight recorder. It is bound to one simulation and
// is not safe for concurrent use across simulations. Within one simulation
// all mutable per-span state — rings, step/epoch stamps, drop and suppress
// counters — is indexed by rank, so each rank's state is only ever touched
// by the shard that owns it. The armed flag is written only between windows
// on the sharded scheduler (Arm via the step-telemetry trigger), so every
// shard of a window reads the same value.
type Recorder struct {
	rpn        int // ranks per node, for the table's node column
	armed      bool
	rings      []ring
	raw        []Span  // out-of-loop spans (EmitRaw); never evicted
	step       []int32 // current timestep per rank (set by the driver)
	epoch      []int32 // current epoch per rank
	suppressed []int64 // spans offered while disarmed, per rank
}

// NewRecorder creates a recorder for nranks ranks on nodes of ranksPerNode.
func NewRecorder(nranks, ranksPerNode int, cfg Config) *Recorder {
	if nranks <= 0 || ranksPerNode <= 0 {
		panic("trace: non-positive recorder dimensions")
	}
	cap := cfg.PerRankCap
	if cap <= 0 {
		cap = DefaultPerRankCap
	}
	r := &Recorder{
		rpn:        ranksPerNode,
		armed:      cfg.ArmOn == nil,
		rings:      make([]ring, nranks),
		step:       make([]int32, nranks),
		epoch:      make([]int32, nranks),
		suppressed: make([]int64, nranks),
	}
	for i := range r.rings {
		r.rings[i].cap = cap
	}
	for i := range r.step {
		r.step[i] = -1
		r.epoch[i] = -1
	}
	return r
}

// Arm enables span retention (idempotent). See Config.ArmOn.
func (r *Recorder) Arm() { r.armed = true }

// Armed reports whether spans are currently retained.
func (r *Recorder) Armed() bool { return r.armed }

// SetPhase records rank's current timestep and epoch; subsequent Emit calls
// for that rank are stamped with them. The driver calls this at the top of
// every step.
func (r *Recorder) SetPhase(rank int, step, epoch int32) {
	r.step[rank] = step
	r.epoch[rank] = epoch
}

// Emit records a span, stamping it with the rank's current step and epoch.
// Callers hold a possibly-nil *Recorder and must guard with a nil check —
// that single branch is the entire disabled-path cost.
func (r *Recorder) Emit(s Span) {
	if !r.armed {
		r.suppressed[s.Rank]++
		return
	}
	s.Step = r.step[s.Rank]
	s.Epoch = r.epoch[s.Rank]
	r.rings[s.Rank].push(s)
}

// EmitRaw records a span without phase stamping, without the arming gate,
// and outside the rings — for out-of-loop spans (health probes, stamped step
// and epoch -1 by their emitter) whose count is bounded by construction (at
// most two per node per run). Keeping them
// out of the rings matters: probe_pre spans are the oldest in the run, so a
// saturated ring would evict exactly the baseline the post-run drift
// comparison needs.
func (r *Recorder) EmitRaw(s Span) {
	r.raw = append(r.raw, s)
}

// Len returns the total number of retained spans (including EmitRaw spans).
func (r *Recorder) Len() int {
	n := len(r.raw)
	for i := range r.rings {
		n += r.rings[i].n
	}
	return n
}

// Dropped returns the number of spans evicted by full rings.
func (r *Recorder) Dropped() int64 {
	var n int64
	for i := range r.rings {
		n += r.rings[i].dropped
	}
	return n
}

// Suppressed returns the number of spans offered while disarmed.
func (r *Recorder) Suppressed() int64 {
	var n int64
	for _, v := range r.suppressed {
		n += v
	}
	return n
}

// Schema is the span table schema (see Table).
func Schema() []telemetry.ColSpec {
	return []telemetry.ColSpec{
		telemetry.IntCol("rank"), telemetry.IntCol("node"),
		telemetry.StrCol("kind"),
		telemetry.FloatCol("t0"), telemetry.FloatCol("t1"),
		telemetry.FloatCol("dur"),
		telemetry.IntCol("peer"), telemetry.IntCol("bytes"),
		telemetry.IntCol("tag"), telemetry.IntCol("step"),
		telemetry.IntCol("epoch"),
	}
}

// spanCols is the span table's columns as typed slices — no per-span row, no
// boxed cell — with kind already in dictionary form: Kind k is id k.
type spanCols struct {
	rank, node, peer, size, tag, step, epoch []int64
	t0, t1, dur                              []float64
	kind                                     []uint32
}

// newSpanCols returns empty columns with room for n spans.
func newSpanCols(n int) *spanCols {
	ints := func() []int64 { return make([]int64, 0, n) }
	floats := func() []float64 { return make([]float64, 0, n) }
	return &spanCols{
		rank: ints(), node: ints(), peer: ints(), size: ints(), tag: ints(), step: ints(), epoch: ints(),
		t0: floats(), t1: floats(), dur: floats(),
		kind: make([]uint32, 0, n),
	}
}

// add appends one row per span of seg.
func (c *spanCols) add(seg []Span, rpn int) {
	for i := range seg {
		s := &seg[i]
		c.rank = append(c.rank, int64(s.Rank))
		c.node = append(c.node, int64(int(s.Rank)/rpn))
		c.kind = append(c.kind, uint32(s.Kind))
		c.t0 = append(c.t0, s.T0)
		c.t1 = append(c.t1, s.T1)
		c.dur = append(c.dur, s.T1-s.T0)
		c.peer = append(c.peer, int64(s.Peer))
		c.size = append(c.size, s.Bytes)
		c.tag = append(c.tag, int64(s.Tag))
		c.step = append(c.step, int64(s.Step))
		c.epoch = append(c.epoch, int64(s.Epoch))
	}
}

// reset empties the columns, keeping their storage for the next chunk.
func (c *spanCols) reset() {
	c.rank, c.node, c.peer, c.size = c.rank[:0], c.node[:0], c.peer[:0], c.size[:0]
	c.tag, c.step, c.epoch = c.tag[:0], c.step[:0], c.epoch[:0]
	c.t0, c.t1, c.dur, c.kind = c.t0[:0], c.t1[:0], c.dur[:0], c.kind[:0]
}

// kindDict is the kind column's dictionary, shared by every span table (a
// table never writes into a dictionary it adopted).
var kindDict = func() []string {
	d := make([]string, numKinds)
	for k := range d {
		d[k] = Kind(k).String()
	}
	return d
}()

// table hands the columns to a table whole, in Schema order. The table
// shares their storage until the next reset.
func (c *spanCols) table() *telemetry.Table {
	t, err := telemetry.FromColumns(Schema(), []telemetry.Column{
		{Ints: c.rank}, {Ints: c.node}, {IDs: c.kind, Dict: kindDict},
		{Floats: c.t0}, {Floats: c.t1}, {Floats: c.dur},
		{Ints: c.peer}, {Ints: c.size}, {Ints: c.tag}, {Ints: c.step}, {Ints: c.epoch},
	})
	if err != nil {
		panic(err) // eleven columns of one length, in Schema order
	}
	return t
}

// reader walks the retained spans in table order: ranks ascending, each
// rank's out-of-loop spans before its ring, oldest to newest. The order is
// deterministic for a deterministic run, so span tables and span colfiles are
// bit-identical across harness worker counts.
type reader struct {
	rec  *Recorder
	raw  [][]Span // rec.raw by rank
	rank int
	i    int // spans of rank already read
}

func (r *Recorder) reader() *reader {
	// Out-of-loop spans, bucketed by rank in one pass (appending keeps each
	// rank's emission order) and placed before the rank's ring: probe_pre
	// precedes every ring span, and probe_post is emitted in rank order too.
	raw := make([][]Span, len(r.rings))
	for _, s := range r.raw {
		raw[s.Rank] = append(raw[s.Rank], s)
	}
	return &reader{rec: r, raw: raw}
}

// fill is the span→column kernel, the only loop that turns spans into rows:
// it appends the next k spans (fewer when the recorder runs out) to c, a
// contiguous run of storage at a time.
func (rd *reader) fill(c *spanCols, k int) {
	rings, rpn := rd.rec.rings, rd.rec.rpn
	for ; rd.rank < len(rings); rd.rank, rd.i = rd.rank+1, 0 {
		raw, rg := rd.raw[rd.rank], &rings[rd.rank]
		for rd.i < len(raw)+rg.n {
			if k == 0 {
				return
			}
			var seg []Span
			if rd.i < len(raw) {
				seg = raw[rd.i:]
			} else {
				seg = rg.run(rd.i - len(raw))
			}
			seg = seg[:min(len(seg), k)]
			c.add(seg, rpn)
			rd.i, k = rd.i+len(seg), k-len(seg)
		}
	}
}

// Table materializes the retained spans as a columnar table, in the reader's
// order: the kernel run once over every span.
func (r *Recorder) Table() *telemetry.Table {
	n := r.Len()
	c := newSpanCols(n)
	r.reader().fill(c, n)
	return c.table()
}

// WriteTo writes the retained spans to w as a colfile in chunks of chunkRows
// rows (0 = one chunk), byte for byte the file colfile.WriteTable makes of
// Table() — without the table: the kernel fills one reused chunk of columns
// at a time, so writing a span file costs a chunk of memory, not the run's.
func (r *Recorder) WriteTo(w io.Writer, chunkRows int) error {
	cw, err := colfile.NewWriter(w, Schema())
	if err != nil {
		return err
	}
	left := r.Len()
	if chunkRows <= 0 || chunkRows > left {
		chunkRows = left
	}
	c, rd := newSpanCols(chunkRows), r.reader()
	for { // an empty recorder still writes its one, empty chunk
		k := min(left, chunkRows)
		c.reset()
		rd.fill(c, k)
		if err := cw.WriteChunk(c.table()); err != nil {
			return err
		}
		if left -= k; left == 0 {
			return cw.Finalize()
		}
	}
}

// WaitSpikeCondition matches a step-table row whose per-step communication
// wait exceeds threshold seconds — the wait-spike anomaly of Fig 1b as seen
// from the cheap per-step telemetry. It is evaluated after every appended
// row, so it reads one cell: a flat read would join the growing column each
// time.
func WaitSpikeCondition(threshold float64) func(t *telemetry.Table, row int) bool {
	return func(t *telemetry.Table, row int) bool {
		return t.NumericAt("comm", row) >= threshold
	}
}

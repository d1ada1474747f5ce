package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"amrtools/internal/colfile"
	"amrtools/internal/telemetry"
)

func span(rank int32, kind Kind, t0, t1 float64) Span {
	return Span{Rank: rank, Kind: kind, T0: t0, T1: t1, Peer: -1, Tag: -1}
}

// at is the i-th oldest retained span, by the ring's definition rather than
// by run's arithmetic.
func (rg *ring) at(i int) Span {
	slot := (rg.head + i) % rg.cap
	return rg.pages[slot/pageSpans][slot%pageSpans]
}

func TestRingCapBoundsMemory(t *testing.T) {
	const cap = 16
	r := NewRecorder(4, 2, Config{PerRankCap: cap})
	for i := 0; i < 1000; i++ {
		for rank := int32(0); rank < 4; rank++ {
			r.Emit(span(rank, Compute, float64(i), float64(i)+0.5))
		}
	}
	if got, want := r.Len(), 4*cap; got != want {
		t.Fatalf("Len = %d, want %d (hard cap)", got, want)
	}
	if got, want := r.Dropped(), int64(4*(1000-cap)); got != want {
		t.Fatalf("Dropped = %d, want %d", got, want)
	}
	// Eviction keeps the newest spans: rank 0's oldest retained span must be
	// from iteration 1000-cap.
	tab := r.Table()
	if got := tab.Floats("t0")[0]; got != float64(1000-cap) {
		t.Fatalf("oldest retained t0 = %g, want %g", got, float64(1000-cap))
	}
}

func TestDisarmedSuppresses(t *testing.T) {
	r := NewRecorder(2, 2, Config{PerRankCap: 8, ArmOn: WaitSpikeCondition(1)})
	for i := 0; i < 5; i++ {
		r.Emit(span(0, Compute, float64(i), float64(i)+1))
	}
	if r.Len() != 0 {
		t.Fatalf("disarmed recorder retained %d spans", r.Len())
	}
	if r.Suppressed() != 5 {
		t.Fatalf("Suppressed = %d, want 5", r.Suppressed())
	}
	// EmitRaw bypasses the gate (probe spans are bounded by construction).
	r.EmitRaw(Span{Rank: 1, Kind: ProbePre, T0: 0, T1: 1e-3, Peer: -1, Tag: -1, Step: -1, Epoch: -1})
	if r.Len() != 1 {
		t.Fatalf("EmitRaw while disarmed retained %d spans, want 1", r.Len())
	}
	r.Arm()
	if !r.Armed() {
		t.Fatal("Arm did not arm")
	}
	r.Emit(span(0, Compute, 9, 10))
	if r.Len() != 2 {
		t.Fatalf("post-arm Len = %d, want 2", r.Len())
	}
}

func TestPhaseStamping(t *testing.T) {
	r := NewRecorder(2, 2, Config{PerRankCap: 8})
	r.Emit(span(0, Compute, 0, 1)) // before any SetPhase: step/epoch -1
	r.SetPhase(0, 3, 1)
	r.Emit(span(0, Compute, 1, 2))
	r.SetPhase(1, 4, 2)
	r.Emit(span(1, Barrier, 2, 3))
	tab := r.Table()
	steps, epochs := tab.Ints("step"), tab.Ints("epoch")
	if steps[0] != -1 || epochs[0] != -1 {
		t.Fatalf("pre-phase span stamped step=%d epoch=%d, want -1/-1", steps[0], epochs[0])
	}
	if steps[1] != 3 || epochs[1] != 1 {
		t.Fatalf("rank 0 span stamped step=%d epoch=%d, want 3/1", steps[1], epochs[1])
	}
	if steps[2] != 4 || epochs[2] != 2 {
		t.Fatalf("rank 1 span stamped step=%d epoch=%d, want 4/2", steps[2], epochs[2])
	}
}

func TestTableLayout(t *testing.T) {
	r := NewRecorder(4, 2, Config{PerRankCap: 8})
	// Emit out of rank order; Table must come back rank-ascending,
	// oldest-first within a rank, with node = rank / ranksPerNode.
	r.Emit(Span{Rank: 3, Kind: Isend, T0: 1, T1: 1, Peer: 0, Bytes: 64, Tag: 7})
	r.Emit(span(1, Compute, 0, 2))
	r.Emit(span(1, Barrier, 2, 3))
	tab := r.Table()
	if tab.NumRows() != 3 {
		t.Fatalf("NumRows = %d, want 3", tab.NumRows())
	}
	ranks, nodes := tab.Ints("rank"), tab.Ints("node")
	kinds := tab.Strings("kind")
	if ranks[0] != 1 || ranks[1] != 1 || ranks[2] != 3 {
		t.Fatalf("rank order = %v, want [1 1 3]", ranks)
	}
	if kinds[0] != "compute" || kinds[1] != "barrier" || kinds[2] != "isend" {
		t.Fatalf("kind order = %v", kinds)
	}
	if nodes[0] != 0 || nodes[2] != 1 {
		t.Fatalf("nodes = %v, want rank/2", nodes)
	}
	if durs := tab.Floats("dur"); durs[0] != 2 || durs[1] != 1 {
		t.Fatalf("dur column = %v", durs)
	}
	if got := tab.Ints("bytes")[2]; got != 64 {
		t.Fatalf("bytes = %d, want 64", got)
	}
}

// refTable is Table as it was first written — one boxed Append per span,
// and one pass over every out-of-loop span per rank — kept as the reference
// the typed, bucketed fill must reproduce.
func refTable(r *Recorder) *telemetry.Table {
	t := telemetry.NewTable(Schema()...)
	appendSpan := func(s Span) {
		t.Append(
			int64(s.Rank), int64(int(s.Rank)/r.rpn), s.Kind.String(),
			s.T0, s.T1, s.T1-s.T0,
			int64(s.Peer), s.Bytes, int64(s.Tag), int64(s.Step), int64(s.Epoch),
		)
	}
	for rank := range r.rings {
		for _, s := range r.raw {
			if int(s.Rank) == rank {
				appendSpan(s)
			}
		}
		rg := &r.rings[rank]
		for i := 0; i < rg.n; i++ {
			appendSpan(rg.at(i))
		}
	}
	return t
}

// TestTableMatchesReferenceWithProbes: pre- and post-run probes on 1024
// nodes (emitted node by node, post after pre, as the driver does), ring
// spans of every kind around them, and a few rings wrapped past their cap.
func TestTableMatchesReferenceWithProbes(t *testing.T) {
	const nodes, rpn, cap = 1024, 4, 6
	r := NewRecorder(nodes*rpn, rpn, Config{PerRankCap: cap})
	probe := func(kind Kind) {
		for n := 0; n < nodes; n++ {
			r.EmitRaw(Span{Rank: int32(n * rpn), Kind: kind, T0: 0, T1: 1e-3 * float64(n%7+1), Peer: -1, Tag: -1, Step: -1, Epoch: -1})
		}
	}
	probe(ProbePre)
	for i := 0; i < 3*nodes*rpn; i++ {
		rank := int32((i * 7919) % (nodes * rpn)) // out of rank order
		r.SetPhase(int(rank), int32(i%5), int32(i%2))
		r.Emit(Span{Rank: rank, Kind: Kind(i % int(ProbePre)), T0: float64(i), T1: float64(i) + 0.5, Peer: int32(i % 9), Bytes: int64(i), Tag: int32(i % 3)})
	}
	for i := 0; i < 4*cap; i++ { // wrap rank 5's and the last rank's rings
		r.Emit(span(5, Compute, float64(i), float64(i)+1))
		r.Emit(span(nodes*rpn-1, RecvWait, float64(i), float64(i)+2))
	}
	probe(ProbePost)
	if r.Dropped() == 0 {
		t.Fatal("no ring wrapped; the test lost its eviction case")
	}
	got, want := r.Table(), refTable(r)
	if got.NumRows() != r.Len() || !telemetry.Equal(got, want) {
		t.Fatalf("Table() has %d rows and differs from the reference (%d rows, Len %d)", got.NumRows(), want.NumRows(), r.Len())
	}
	// A span table is appendable like any other.
	got.Append(0, 0, "custom", 0.0, 1.0, 1.0, -1, 0, -1, -1, -1)
	if again := r.Table(); !telemetry.Equal(again, want) {
		t.Fatal("appending to one span table changed the next")
	}
}

// TestSpanSize pins the figure DefaultPerRankCap's comment and DESIGN.md
// quote: a field added or reordered carelessly costs every retained span.
func TestSpanSize(t *testing.T) {
	if got := unsafe.Sizeof(Span{}); got != 48 {
		t.Fatalf("unsafe.Sizeof(Span{}) = %d, want 48", got)
	}
}

func heapAlloc() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func pagesHeld(r *Recorder) int {
	n := 0
	for i := range r.rings {
		n += len(r.rings[i].pages)
	}
	return n
}

// TestRingGrowsWithEmission: span memory follows what was emitted, not the
// cap. Before the rings were paged this recorder held 1 024 x 8 192 x 56 B =
// 448 MiB from construction on.
func TestRingGrowsWithEmission(t *testing.T) {
	const ranks, cap, perRank = 1024, 8192, 10
	before := heapAlloc()
	r := NewRecorder(ranks, 16, Config{PerRankCap: cap})
	if got := pagesHeld(r); got != 0 {
		t.Fatalf("an idle recorder holds %d pages, want 0", got)
	}
	idle := heapAlloc()
	for i := 0; i < perRank; i++ {
		for rank := int32(0); rank < ranks; rank++ {
			r.Emit(span(rank, Compute, float64(i), float64(i)+1))
		}
	}
	if got := pagesHeld(r); got != ranks {
		t.Fatalf("%d spans per rank hold %d pages, want one per rank (%d)", perRank, got, ranks)
	}
	after := heapAlloc()
	if r.Len() != ranks*perRank || r.Dropped() != 0 {
		t.Fatalf("Len %d, Dropped %d", r.Len(), r.Dropped())
	}
	// One page per rank plus the rank-indexed bookkeeping; the old rings
	// would be 50 times this bound.
	const page = pageSpans * 48
	if grew := int64(idle) - int64(before); grew > ranks*256 {
		t.Fatalf("an idle recorder of %d ranks holds %d heap bytes", ranks, grew)
	}
	if grew := int64(after) - int64(before); grew > ranks*(page+1024) {
		t.Fatalf("recorder holds %d heap bytes for %d spans per rank, want <= %d", grew, perRank, ranks*(page+1024))
	}
	runtime.KeepAlive(r)
}

// TestEvictionAtUnalignedCap wraps rings whose cap is not a multiple of the
// page size (nor, for one, as large as a page) several times and checks the
// table against a model that never saw a ring: each rank's last cap spans,
// oldest first.
func TestEvictionAtUnalignedCap(t *testing.T) {
	for _, cap := range []int{1, pageSpans - 1, pageSpans, pageSpans + 1, 3*pageSpans + 37} {
		const ranks = 3
		r := NewRecorder(ranks, 2, Config{PerRankCap: cap})
		emitted := make([][]Span, ranks)
		// Rank 0 stays below the cap, rank 1 lands exactly on it, rank 2
		// wraps three and a bit times.
		for rank, n := range []int{cap / 2, cap, 3*cap + cap/3 + 1} {
			for i := 0; i < n; i++ {
				r.SetPhase(rank, int32(i/7), int32(i%2))
				s := Span{Rank: int32(rank), Kind: Kind(i % int(ProbePre)), T0: float64(i), T1: float64(i) + 0.25, Peer: int32(i % 5), Bytes: int64(i) * 3, Tag: int32(i % 4)}
				r.Emit(s)
				s.Step, s.Epoch = int32(i/7), int32(i%2)
				emitted[rank] = append(emitted[rank], s)
			}
		}
		want := newSpanCols(0)
		var dropped int64
		for _, spans := range emitted {
			if over := len(spans) - cap; over > 0 {
				dropped += int64(over)
				spans = spans[over:]
			}
			want.add(spans, 2)
		}
		if got := r.Dropped(); got != dropped {
			t.Fatalf("cap %d: Dropped = %d, want %d", cap, got, dropped)
		}
		got := r.Table()
		if got.NumRows() != r.Len() || !telemetry.Equal(got, want.table()) || !telemetry.Equal(got, refTable(r)) {
			t.Fatalf("cap %d: Table() (%d rows) differs from the last-cap-spans model (%d rows)", cap, got.NumRows(), len(want.rank))
		}
		for i := range r.rings {
			if have, most := len(r.rings[i].pages), (cap+pageSpans-1)/pageSpans; have > most {
				t.Fatalf("cap %d: rank %d holds %d pages, cap needs %d", cap, i, have, most)
			}
		}
	}
}

// TestWriteToMatchesWriteTable: the streamed span file is the file
// WriteTable makes of the whole table, whatever the chunking.
func TestWriteToMatchesWriteTable(t *testing.T) {
	const ranks, rpn, cap = 12, 4, pageSpans + 9
	build := map[string]func(r *Recorder){
		"zero spans": func(r *Recorder) {},
		"raw only": func(r *Recorder) {
			r.EmitRaw(Span{Rank: 4, Kind: ProbePre, T0: 0, T1: 1e-3, Peer: -1, Tag: -1, Step: -1, Epoch: -1})
			r.EmitRaw(Span{Rank: 4, Kind: ProbePost, T0: 9, T1: 9.5, Peer: -1, Tag: -1, Step: -1, Epoch: -1})
		},
		"wrapped, probes, empty ranks": func(r *Recorder) {
			for n := 0; n < ranks/rpn; n++ {
				r.EmitRaw(Span{Rank: int32(n * rpn), Kind: ProbePre, T0: 0, T1: 1e-3 * float64(n+1), Peer: -1, Tag: -1, Step: -1, Epoch: -1})
			}
			for i := 0; i < 2000; i++ {
				rank := int32((i * 7) % ranks)
				if rank == 3 || rank == ranks-1 { // two ranks never emit
					rank = 5 // and one wraps its ring
				}
				r.SetPhase(int(rank), int32(i/100), int32(i/1000))
				r.Emit(Span{Rank: rank, Kind: Kind(i % int(ProbePre)), T0: float64(i) * 0.5, T1: float64(i)*0.5 + 0.125, Peer: int32(i % ranks), Bytes: int64(i * i), Tag: int32(i % 3)})
			}
			for n := 0; n < ranks/rpn; n++ {
				r.EmitRaw(Span{Rank: int32(n * rpn), Kind: ProbePost, T0: 1e3, T1: 1e3 + 1e-3, Peer: -1, Tag: -1, Step: -1, Epoch: -1})
			}
			if r.Dropped() == 0 {
				t.Fatal("no ring wrapped; the test lost its eviction case")
			}
		},
	}
	for name, emit := range build {
		r := NewRecorder(ranks, rpn, Config{PerRankCap: cap})
		emit(r)
		for _, chunkRows := range []int{0, 1, 7, 8192, r.Len() + 1} {
			var got, want bytes.Buffer
			if err := r.WriteTo(&got, chunkRows); err != nil {
				t.Fatal(err)
			}
			if err := colfile.WriteTable(&want, r.Table(), chunkRows); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s, chunkRows %d: WriteTo wrote %d bytes that differ from WriteTable's %d", name, chunkRows, got.Len(), want.Len())
			}
			back, err := colfile.OpenBytes(got.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if tab, err := back.Table(); err != nil || !telemetry.Equal(tab, r.Table()) {
				t.Fatalf("%s, chunkRows %d: span file does not read back as Table() (%v)", name, chunkRows, err)
			}
		}
		// A writer that fails surfaces from WriteTo.
		if err := r.WriteTo(failWriter{}, 7); err == nil {
			t.Fatalf("%s: WriteTo on a failing writer returned nil", name)
		}
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("disk full") }

func TestKindStringsStable(t *testing.T) {
	want := map[Kind]string{
		Compute: "compute", Throttle: "throttle", Isend: "isend",
		Irecv: "irecv", SendWait: "send_wait", RecvWait: "recv_wait",
		Barrier: "barrier", Allreduce: "allreduce", Rebalance: "rebalance",
		ShmStall: "shm_stall", NicSerial: "nic_serial", AckStall: "ack_stall",
		ProbePre: "probe_pre", ProbePost: "probe_post",
	}
	for k := Kind(0); k < numKinds; k++ {
		if s, ok := want[k]; !ok || k.String() != s {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestWritePerfetto(t *testing.T) {
	r := NewRecorder(4, 2, Config{PerRankCap: 8})
	r.SetPhase(0, 2, 0)
	r.SetPhase(3, 2, 0)
	r.Emit(Span{Rank: 0, Kind: Isend, T0: 1e-3, T1: 1e-3, Peer: 3, Bytes: 128, Tag: 5})
	r.Emit(span(0, Compute, 1e-3, 3e-3))
	r.Emit(span(3, Barrier, 2e-3, 4e-3))

	var buf bytes.Buffer
	if err := WritePerfetto(&buf, r.Table()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Ts   float64                `json:"ts"`
			Dur  float64                `json:"dur"`
			Pid  int                    `json:"pid"`
			Tid  int                    `json:"tid"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	// One thread_name metadata event per rank that emitted, plus one X slice
	// per span.
	meta := map[int]bool{}
	var slices int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name != "thread_name" {
				t.Fatalf("unexpected metadata event %q", ev.Name)
			}
			if meta[ev.Tid] {
				t.Fatalf("duplicate thread_name for tid %d", ev.Tid)
			}
			meta[ev.Tid] = true
		case "X":
			slices++
			if ev.Dur <= 0 {
				t.Fatalf("slice %q has non-positive dur %g", ev.Name, ev.Dur)
			}
		default:
			t.Fatalf("unexpected ph %q", ev.Ph)
		}
	}
	if !meta[0] || !meta[3] || len(meta) != 2 {
		t.Fatalf("thread metadata ranks = %v, want {0,3}", meta)
	}
	if slices != 3 {
		t.Fatalf("slices = %d, want 3", slices)
	}
	// The zero-width Isend must still get the visibility floor.
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "isend" {
			if ev.Dur != 0.01 {
				t.Fatalf("isend dur = %g, want floor 0.01", ev.Dur)
			}
			if ev.Args["peer"].(float64) != 3 || ev.Args["bytes"].(float64) != 128 {
				t.Fatalf("isend args = %v", ev.Args)
			}
		}
	}
	// Determinism: a second serialization is byte-identical.
	var buf2 bytes.Buffer
	if err := WritePerfetto(&buf2, r.Table()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("WritePerfetto output not deterministic")
	}
}

func TestWritePerfettoMissingColumn(t *testing.T) {
	tab := telemetry.NewTable(telemetry.IntCol("rank"))
	if err := WritePerfetto(&bytes.Buffer{}, tab); err == nil {
		t.Fatal("expected error for table without span schema")
	}
}

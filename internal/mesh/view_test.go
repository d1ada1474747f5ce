package mesh

import (
	"cmp"
	"reflect"
	"slices"
	"testing"

	"amrtools/internal/xrand"
)

// testMeshes returns a spread of mesh shapes: uniform, refined clusters,
// non-power-of-two root grids, and 1-wide dimensions.
func testMeshes(t *testing.T) map[string]*Mesh {
	t.Helper()
	out := map[string]*Mesh{
		"uniform": NewUniform(3, 2, 2, 2),
		"refined": RandomRefined(2, 2, 2, 3, 120, xrand.New(11)),
		"ragged":  RandomRefined(3, 5, 2, 2, 150, xrand.New(5)),
		"thin":    NewUniform(1, 1, 4, 1),
	}
	out["thin"].RefineOnce(func(id BlockID) bool { return id.Z == 0 })
	return out
}

// sent is one emitted message entry of a block, for order-exact comparison.
type sent struct {
	partner BlockID
	entry   PairEntry
}

// globalEntries reproduces the send enumeration the pre-distributed epoch
// builder used — NeighborsOf order with flux riders after fine→coarse face
// ghosts — as the reference the view enumeration must match exactly.
func globalEntries(m *Mesh, id BlockID) []sent {
	var out []sent
	byPartner := map[BlockID][]PairEntry{}
	g := m.Geometry()
	for _, nb := range m.NeighborsOf(id) {
		entries, ok := byPartner[nb.ID]
		if !ok {
			entries = PairExchanges(g, id, nb.ID)
			byPartner[nb.ID] = entries
		}
		if len(entries) == 0 {
			return nil // signals disagreement; caller fails
		}
		out = append(out, sent{partner: nb.ID, entry: entries[0]})
		entries = entries[1:]
		if len(entries) > 0 && entries[0].Flux {
			out = append(out, sent{partner: nb.ID, entry: entries[0]})
			entries = entries[1:]
		}
		byPartner[nb.ID] = entries
	}
	for p, rest := range byPartner {
		if len(rest) != 0 {
			return append(out, sent{partner: p}) // extra arithmetic entries; caller fails
		}
	}
	return out
}

// TestPairExchangesMatchesNeighborsOf: the arithmetic pair enumeration must
// account for every (direction, partner) message NeighborsOf produces — same
// multiplicity, same kinds, flux riders exactly after fine→coarse face
// ghosts — across mesh shapes.
func TestPairExchangesMatchesNeighborsOf(t *testing.T) {
	for name, m := range testMeshes(t) {
		g := m.Geometry()
		for _, b := range m.Leaves() {
			// Count NeighborsOf entries per (partner, kind).
			type pk struct {
				id   BlockID
				kind NeighborKind
			}
			want := map[pk]int{}
			partners := map[BlockID]bool{}
			for _, nb := range m.NeighborsOf(b.ID) {
				want[pk{nb.ID, nb.Kind}]++
				partners[nb.ID] = true
			}
			got := map[pk]int{}
			flux := 0
			for p := range partners {
				for _, e := range PairExchanges(g, b.ID, p) {
					if e.Flux {
						flux++
						continue
					}
					got[pk{p, e.Kind}]++
				}
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: block %v: NeighborsOf %v != PairExchanges %v", name, b.ID, want, got)
			}
			// Flux riders: one per coarser face partner.
			wantFlux := 0
			for _, nb := range m.NeighborsOf(b.ID) {
				if nb.Kind == Face && nb.ID.Level == b.ID.Level-1 {
					wantFlux++
				}
			}
			if flux != wantFlux {
				t.Fatalf("%s: block %v: %d flux entries, want %d", name, b.ID, flux, wantFlux)
			}
		}
	}
}

// testAssign is one block→rank assignment shape of the view tests.
type testAssign struct {
	name   string
	nranks int
	assign []int32
}

// testAssigns returns the assignment shapes the view tests run over n
// leaves: one rank, round robin, SFC-contiguous ranges, and round robin
// over ranks 0, 1 and 3, which leaves rank 2 without a block.
func testAssigns(n int) []testAssign {
	out := []testAssign{
		{"single", 1, make([]int32, n)},
		{"roundrobin", 7, make([]int32, n)},
		{"split", 3, make([]int32, n)},
		{"gap", 4, make([]int32, n)},
	}
	for i := range n {
		out[1].assign[i] = int32(i % 7)
		out[2].assign[i] = int32(i * 3 / n)
		out[3].assign[i] = []int32{0, 1, 3}[i%3]
	}
	return out
}

// TestViewNeighborsMatchesGlobalEnumeration: for every block under every
// assignment shape, the view-local enumeration must emit the identical
// ordered entry sequence as the global reference, with strictly ascending
// tag slots (ascending slots are what make distributed tag agreement work).
func TestViewNeighborsMatchesGlobalEnumeration(t *testing.T) {
	for name, m := range testMeshes(t) {
		leaves := m.Leaves()
		for _, a := range testAssigns(len(leaves)) {
			aname, assign := a.name, a.assign
			views := m.BuildRankViews(assign, a.nranks)
			seen := 0
			for _, v := range views {
				for k := range v.Owned {
					var got []sent
					v.Neighbors(k, func(ref Ref, e PairEntry) {
						got = append(got, sent{partner: v.RefID(ref), entry: e})
						if want := assign[v.RefIndex(ref)]; v.RefOwner(ref) != want {
							t.Fatalf("%s/%s: ref owner %d, assignment says %d",
								name, aname, v.RefOwner(ref), want)
						}
					})
					want := globalEntries(m, v.Owned[k].ID)
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("%s/%s: block %v:\n view: %v\n global: %v",
							name, aname, v.Owned[k].ID, got, want)
					}
					for i := 1; i < len(got); i++ {
						if got[i].entry.Slot() <= got[i-1].entry.Slot() {
							t.Fatalf("%s/%s: block %v: slots not ascending: %v",
								name, aname, v.Owned[k].ID, got)
						}
					}
					seen++
				}
			}
			if seen != len(leaves) {
				t.Fatalf("%s/%s: views own %d blocks, want %d", name, aname, seen, len(leaves))
			}
		}
	}
}

// received is one recorded receive by global SFC indices.
type received struct {
	from, to int32
	entry    PairEntry
}

// TestViewReceivesMatchPairExchanges: a view's receives must be derivable
// from the view alone. For every (halo sender, owned block) pair they hold
// exactly the messages PairExchanges reconstructs, ordered by (sender index,
// slot) — the senders' tag order — with From a halo ref and To an owned one.
// A rank without blocks gets a well-formed empty view.
func TestViewReceivesMatchPairExchanges(t *testing.T) {
	for name, m := range testMeshes(t) {
		leaves := m.Leaves()
		g := m.Geometry()
		for _, a := range testAssigns(len(leaves)) {
			total := 0
			for _, v := range m.BuildRankViews(a.assign, a.nranks) {
				var got, want []received
				for _, x := range v.Receives() {
					if x.From.IsOwned() || !x.To.IsOwned() {
						t.Fatalf("%s/%s: rank %d receive %+v: want a halo sender and an owned receiver", name, a.name, v.Rank, x)
					}
					got = append(got, received{v.RefIndex(x.From), v.RefIndex(x.To), x.PairEntry})
				}
				for _, hb := range v.Halo {
					for _, lb := range v.Owned {
						for _, e := range PairExchanges(g, hb.ID, lb.ID) {
							want = append(want, received{hb.Index, lb.Index, e})
						}
					}
				}
				slices.SortFunc(want, func(x, y received) int {
					return cmp.Or(cmp.Compare(x.from, y.from), cmp.Compare(x.entry.Slot(), y.entry.Slot()))
				})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s: rank %d receives\n %v\nPairExchanges gives\n %v", name, a.name, v.Rank, got, want)
				}
				if len(v.Owned) == 0 {
					if len(v.Halo) != 0 || len(v.Sends()) != 0 || len(v.Receives()) != 0 || v.Bytes() != 0 {
						t.Fatalf("%s/%s: empty rank %d has halo %d, sends %d, receives %d, %d bytes",
							name, a.name, v.Rank, len(v.Halo), len(v.Sends()), len(v.Receives()), v.Bytes())
					}
				}
				total += len(got)
			}
			if a.nranks > 1 && total == 0 {
				t.Fatalf("%s/%s: no rank receives anything", name, a.name)
			}
		}
	}
}

// TestViewHaloDeterminism: rebuilding views must give identical halo order
// (the view is part of the deterministic replay surface).
func TestViewHaloDeterminism(t *testing.T) {
	m := RandomRefined(2, 3, 2, 2, 100, xrand.New(9))
	leaves := m.Leaves()
	assign := make([]int32, len(leaves))
	for i := range assign {
		assign[i] = int32(i % 5)
	}
	a := m.BuildRankViews(assign, 5)
	b := m.BuildRankViews(assign, 5)
	for r := range a {
		if !reflect.DeepEqual(a[r].Owned, b[r].Owned) || !reflect.DeepEqual(a[r].Halo, b[r].Halo) {
			t.Fatalf("rank %d: view construction not deterministic", r)
		}
	}
}

// TestViewBytesTracksLocalSize: a view's metadata footprint must scale with
// its local neighborhood, not the global mesh — the distributed-forest
// memory claim in miniature.
func TestViewBytesTracksLocalSize(t *testing.T) {
	small := NewUniform(4, 4, 4, 0)
	big := NewUniform(8, 8, 8, 0)
	// One rank per block: every rank owns 1 block with <= 26 halo entries.
	sv := small.BuildRankViews(seq(small.NumLeaves()), small.NumLeaves())
	bv := big.BuildRankViews(seq(big.NumLeaves()), big.NumLeaves())
	maxBytes := func(vs []*RankView) int {
		best := 0
		for _, v := range vs {
			if b := v.Bytes(); b > best {
				best = b
			}
		}
		return best
	}
	sb, bb := maxBytes(sv), maxBytes(bv)
	// Both meshes have interior ranks with the full 26-block halo, so the
	// worst-case per-rank view is identical despite 8x more global blocks.
	if bb != sb {
		t.Fatalf("per-rank view bytes grew with global size: %d -> %d", sb, bb)
	}
}

func seq(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// TestViewRefEncoding exercises the Ref encoding round trip through the
// recorded messages: an owned partner, a halo partner and its owner, and the
// same message seen from the receiving side.
func TestViewRefEncoding(t *testing.T) {
	m := NewUniform(2, 1, 1, 0)
	v := m.BuildRankViews([]int32{0, 1}, 2)[0]
	if len(v.Halo) != 1 {
		t.Fatalf("halo size %d, want 1", len(v.Halo))
	}
	var refs []Ref
	v.Neighbors(0, func(ref Ref, e PairEntry) { refs = append(refs, ref) })
	if len(refs) != 1 {
		t.Fatalf("owned block 0 sends %d messages, want 1", len(refs))
	}
	href := refs[0]
	if href.IsOwned() || href.HaloIndex() != 0 || v.RefID(href) != v.Halo[0].ID || v.RefOwner(href) != 1 {
		t.Fatalf("halo ref %v: owned %v, id %v, owner %d", href, href.IsOwned(), v.RefID(href), v.RefOwner(href))
	}
	from := v.Sends()[0].From
	if !from.IsOwned() || from.OwnedIndex() != 0 || v.RefID(from) != v.Owned[0].ID || v.RefOwner(from) != 0 {
		t.Fatalf("owned ref %v: owned %v, id %v, owner %d", from, from.IsOwned(), v.RefID(from), v.RefOwner(from))
	}
	if got := v.Receives(); len(got) != 1 || got[0].From != href || got[0].To != from {
		t.Fatalf("receives %v, want one message %v -> %v", got, href, from)
	}

	// One rank owning both: the partner resolves to the second owned block.
	v = m.BuildRankViews([]int32{0, 0}, 1)[0]
	refs = refs[:0]
	v.Neighbors(0, func(ref Ref, e PairEntry) { refs = append(refs, ref) })
	if len(refs) != 1 || !refs[0].IsOwned() || refs[0].OwnedIndex() != 1 || v.RefIndex(refs[0]) != 1 {
		t.Fatalf("co-owned partner refs %v", refs)
	}
	if len(v.Halo) != 0 || len(v.Receives()) != 0 {
		t.Fatalf("sole rank has halo %v, receives %v", v.Halo, v.Receives())
	}
}

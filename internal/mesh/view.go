package mesh

import (
	"fmt"
	"slices"
)

// This file is the distributed-forest view of the mesh: what one simulated
// rank actually holds when no rank replicates global metadata (DESIGN.md §9;
// Schornbaum & Rüde's distributed forest, Parthenon's non-replicated
// BlockList). A rank owns its blocks, sees a one-block-deep halo of remote
// neighbors, and can enumerate every boundary-exchange message it sends or
// receives from that view alone — message identities come from deterministic
// per-block tag slots instead of a globally sequenced exchange list, so two
// ranks agree on a message without either holding the global plan.

// Geometry is the pure-arithmetic description of the mesh domain: everything
// needed to compute neighbor coordinates and SFC keys without the leaf set.
// Every rank replicates Geometry (a few words); no rank replicates leaves.
type Geometry struct {
	RootDims [3]int
	MaxLevel int
}

// Geometry returns the mesh's domain geometry.
func (m *Mesh) Geometry() Geometry {
	return Geometry{RootDims: m.RootDims(), MaxLevel: m.maxLevel}
}

// coord checks a signed level-local coordinate on axis d against the
// domain: ok is false outside it.
func (g Geometry) coord(c int64, d, level int) (uint32, bool) {
	n := int64(g.RootDims[d]) << uint(level)
	return uint32(c), c >= 0 && c < n
}

// NeighborCoord returns the same-level cell adjacent to id in direction dir.
// ok is false when the position falls outside the domain.
func (g Geometry) NeighborCoord(id BlockID, dir [3]int) (BlockID, bool) {
	x, okx := g.coord(int64(id.X)+int64(dir[0]), 0, id.Level)
	y, oky := g.coord(int64(id.Y)+int64(dir[1]), 1, id.Level)
	z, okz := g.coord(int64(id.Z)+int64(dir[2]), 2, id.Level)
	if !okx || !oky || !okz {
		return BlockID{}, false
	}
	return BlockID{Level: id.Level, X: x, Y: y, Z: z}, true
}

// Key returns id's Z-order key normalized to the domain's max level.
func (g Geometry) Key(id BlockID) uint64 { return id.Key(g.MaxLevel) }

// Tag-slot layout: every block owns TagSlotsPerBlock message-identity slots,
// one group of TagSlotsPerDir per neighbor direction. Within a direction the
// sub-slot is 0 for the single same-level or coarser partner, 1+ChildIndex
// (1..8) for a finer partner, and FluxSubSlot for the flux-correction
// message that rides behind a fine→coarse face ghost. Two ranks derive the
// same slot for the same message independently, and ascending slot order
// reproduces the exact enumeration order of NeighborsOf — which is what
// keeps distributed plan construction bit-identical to the global build.
const (
	// NumDirections is len(directions): 6 faces + 12 edges + 8 vertices.
	NumDirections = 26
	// TagSlotsPerDir is the message-identity slots per (block, direction).
	TagSlotsPerDir = 10
	// TagSlotsPerBlock is the slots per sending block.
	TagSlotsPerBlock = NumDirections * TagSlotsPerDir
	// FluxSubSlot is the sub-slot of a flux-correction message.
	FluxSubSlot = TagSlotsPerDir - 1
)

// PairEntry is one directed boundary message from a sending block: the
// sender-side direction ordinal, the sub-slot within that direction, the
// geometric contact kind (which sets the ghost-message size), and whether
// the entry is the flux-correction rider rather than a ghost exchange.
type PairEntry struct {
	DirOrd  uint8
	SubSlot uint8
	Kind    NeighborKind
	Flux    bool
}

// Slot returns the entry's tag slot within the sending block's slot group.
func (e PairEntry) Slot() int { return int(e.DirOrd)*TagSlotsPerDir + int(e.SubSlot) }

// pairEntries appends the message entries from a leaf `from` toward a leaf
// `to` for one direction, given the relation of their levels. Shared by the
// arithmetic pair enumeration (PairExchanges) and its direction-scan oracle;
// BuildRankViews' walk constructs the same entries from the leaves it
// resolves.
func pairEntries(out []PairEntry, ord int, dir [3]int, from, to BlockID, nc BlockID) []PairEntry {
	kind := KindOf(dir[0], dir[1], dir[2])
	switch to.Level - from.Level {
	case 0:
		if nc == to {
			out = append(out, PairEntry{DirOrd: uint8(ord), SubSlot: 0, Kind: kind})
		}
	case -1:
		if nc.Parent() == to {
			out = append(out, PairEntry{DirOrd: uint8(ord), SubSlot: 0, Kind: kind})
			if kind == Face {
				out = append(out, PairEntry{DirOrd: uint8(ord), SubSlot: FluxSubSlot, Kind: kind, Flux: true})
			}
		}
	case 1:
		if to.Parent() == nc && onNearSide(to, dir) {
			out = append(out, PairEntry{DirOrd: uint8(ord), SubSlot: uint8(1 + to.ChildIndex()), Kind: kind})
		}
	}
	return out
}

// PairExchanges returns every directed boundary message a leaf `from` sends
// to a leaf `to`, in the exact order NeighborsOf-based enumeration emits
// them, computed purely arithmetically — no leaf set required. It is the
// independent reconstruction the views are checked against: the paranoid
// plan-equivalence audit and the mesh tests rebuild every pair's messages
// with it, while the views themselves record theirs in one walk. Valid under
// the 2:1 balance invariant (levels differing by more than one yield no
// entries); from == to yields no entries.
//
// A direction can only reach `to` if, on every axis, its offset lands
// `from`'s same-level neighbour on `to`'s cell range, so the offsets each
// axis allows are worked out first and only the directions they span are
// tried: one to four of the 26.
func PairExchanges(g Geometry, from, to BlockID) []PairEntry {
	if from == to {
		return nil
	}
	var allow [3]uint8 // per axis, bit o+1 set: offset o can land on `to`
	fc := [3]uint32{from.X, from.Y, from.Z}
	tc := [3]uint32{to.X, to.Y, to.Z}
	for d := range allow {
		// to's cell range on the axis, in from's level-local units.
		var lo, hi uint32
		switch to.Level - from.Level {
		case 0:
			lo, hi = tc[d], tc[d]
		case -1:
			lo, hi = tc[d]<<1, tc[d]<<1|1
		case 1:
			lo, hi = tc[d]>>1, tc[d]>>1
		default:
			return nil
		}
		for o := -1; o <= 1; o++ {
			if c, ok := g.coord(int64(fc[d])+int64(o), d, from.Level); ok && lo <= c && c <= hi {
				allow[d] |= 1 << (o + 1)
			}
		}
		if allow[d] == 0 {
			return nil
		}
	}
	var out []PairEntry
	for ord, dir := range directions {
		if (allow[0]>>(dir[0]+1))&(allow[1]>>(dir[1]+1))&(allow[2]>>(dir[2]+1))&1 == 0 {
			continue
		}
		nc, _ := g.NeighborCoord(from, dir) // in the domain: every axis allowed it
		out = pairEntries(out, ord, dir, from, to, nc)
	}
	return out
}

// Ref identifies a block within one rank's view: values >= 0 index Halo,
// negative values index Owned as ^idx.
type Ref int32

// ownedRef encodes owned-slice index i as a Ref.
func ownedRef(i int) Ref { return Ref(^int32(i)) }

// IsOwned reports whether the ref points into the view's owned blocks.
func (r Ref) IsOwned() bool { return r < 0 }

// OwnedIndex returns the Owned-slice index of an owned ref.
func (r Ref) OwnedIndex() int { return int(^r) }

// HaloIndex returns the Halo-slice index of a halo ref.
func (r Ref) HaloIndex() int { return int(r) }

// LocalBlock is one block owned by the viewing rank. Index is the block's
// global SFC index — its identity in tags and telemetry.
type LocalBlock struct {
	ID    BlockID
	Index int32
}

// HaloBlock is a remote block adjacent to one of the rank's owned blocks:
// the one-deep ghost layer, annotated with the owning rank so the viewer can
// address messages without any global owner table.
type HaloBlock struct {
	ID    BlockID
	Index int32
	Owner int32
}

// Message is one boundary message recorded in a view: the sending and
// receiving blocks as refs into the view, and the entry that gives its
// direction, tag slot and contact kind.
type Message struct {
	From, To Ref
	PairEntry
}

// RankView is the complete mesh knowledge of one simulated rank in the
// distributed forest: its owned blocks (in SFC order), the halo of adjacent
// remote blocks, the domain geometry, and the boundary messages of its owned
// blocks in both directions. Everything a rank contributes to an epoch —
// compute lists, send plans, receive plans — derives from this view alone,
// so per-rank metadata scales with local block count, not global.
type RankView struct {
	Rank  int
	Geom  Geometry
	Owned []LocalBlock
	Halo  []HaloBlock

	// sends holds every message the owned blocks send, owned block by owned
	// block; sendAt[k] is where owned block k's start (len(Owned)+1 marks).
	sends  []Message
	sendAt []int32
	// recvs holds every message halo blocks send to owned blocks, in
	// ascending (sender index, slot) order: the senders' tag order.
	recvs []Message
}

// RefID returns the block ID behind a ref.
func (v *RankView) RefID(r Ref) BlockID {
	if r.IsOwned() {
		return v.Owned[r.OwnedIndex()].ID
	}
	return v.Halo[r.HaloIndex()].ID
}

// RefIndex returns the global SFC index behind a ref.
func (v *RankView) RefIndex(r Ref) int32 {
	if r.IsOwned() {
		return v.Owned[r.OwnedIndex()].Index
	}
	return v.Halo[r.HaloIndex()].Index
}

// RefOwner returns the rank owning the block behind a ref.
func (v *RankView) RefOwner(r Ref) int32 {
	if r.IsOwned() {
		return int32(v.Rank)
	}
	return v.Halo[r.HaloIndex()].Owner
}

// Neighbors enumerates the boundary messages owned block ownedIdx sends, in
// the exact order and with the exact tag slots of the global NeighborsOf
// enumeration: ascending slot, a flux rider right behind its fine→coarse
// face ghost.
func (v *RankView) Neighbors(ownedIdx int, emit func(partner Ref, e PairEntry)) {
	for _, s := range v.sends[v.sendAt[ownedIdx]:v.sendAt[ownedIdx+1]] {
		emit(s.To, s.PairEntry)
	}
}

// Sends returns the messages every owned block sends: owned blocks in SFC
// order, each block's messages in Neighbors order. From is always owned.
func (v *RankView) Sends() []Message { return v.sends }

// Receives returns the messages halo blocks send to owned blocks, in
// ascending (sender index, slot) order — the order of their tags. From is
// always a halo ref, To an owned one.
func (v *RankView) Receives() []Message { return v.recvs }

// Bytes is the view's modelled metadata footprint: a 32-byte record per
// owned and halo block plus one 48-byte index entry per neighbourhood block,
// the lookup structure a distributed code keeps to resolve its neighbours.
// It models a real rank's view, not this struct (the walk that builds it
// needs no index): the quantity the scale experiment tracks per rank, which
// must stay flat as the global block count grows.
func (v *RankView) Bytes() int {
	const blockRec = 32 // BlockID (level + 3 coords, padded) + global index
	const indexEnt = 48 // map entry: key + Ref + bucket overhead estimate
	blocks := len(v.Owned) + len(v.Halo)
	return blocks*blockRec + blocks*indexEnt
}

// BuildRankViews constructs the per-rank distributed-forest views for a
// block→rank assignment (indexed by SFC order, as placement produces it).
// This global pass is the simulation substrate standing in for the
// neighborhood exchange a real distributed code performs; everything
// downstream of it consumes only the per-rank views.
//
// Views are built rank by rank, and every leaf's neighbourhood is walked
// once, as its owner's view is built: the walk resolves each partner leaf,
// records the message as one of the owned block's sends, and adds the
// partner to the halo at its first encounter (owned blocks in SFC order,
// each block's partners in direction order). A per-leaf stamp says which
// rank's neighbourhood last recorded a leaf, so no view needs an index.
// Receives are then scattered from the senders' recorded sends, senders in
// SFC order and each sender's messages in slot order: every view's receives
// arrive in tag order, with no reconstruction and no sort.
func (m *Mesh) BuildRankViews(assign []int32, nranks int) []*RankView {
	leaves := m.Leaves()
	n := len(leaves)
	if len(assign) != n {
		panic(fmt.Sprintf("mesh: BuildRankViews with %d assignments for %d leaves", len(assign), n))
	}
	g := m.Geometry()

	// Owned blocks: a counting sort by rank keeps each rank's blocks in SFC
	// order; pos is a leaf's place in its owner's list.
	ownedAt := make([]int32, nranks+1)
	for _, r := range assign {
		ownedAt[r+1]++
	}
	for r := range nranks {
		ownedAt[r+1] += ownedAt[r]
	}
	owned := make([]LocalBlock, n)
	pos := make([]int32, n)
	next := slices.Clone(ownedAt[:nranks])
	for i, b := range leaves {
		r := assign[i]
		pos[i] = next[r] - ownedAt[r]
		owned[next[r]] = LocalBlock{ID: b.ID, Index: int32(i)}
		next[r]++
	}

	w := viewWalk{
		m:      m,
		g:      g,
		assign: assign,
		stamp:  make([]int32, n),
		ref:    make([]Ref, n),
		recvN:  make([]int32, nranks+1),
	}
	views := make([]RankView, nranks)
	sendAt := make([]int32, n+nranks)
	for r := range views {
		lo, hi := ownedAt[r], ownedAt[r+1]
		v := &views[r]
		*v = RankView{Rank: r, Geom: g, Owned: owned[lo:hi:hi]}
		v.sendAt = sendAt[int(lo)+r : int(hi)+r+1 : int(hi)+r+1]
		mark := int32(r + 1)
		for k, lb := range v.Owned {
			w.stamp[lb.Index] = mark
			w.ref[lb.Index] = ownedRef(k)
		}
		w.halo, w.sends = w.halo[:0], w.sends[:0]
		for k, lb := range v.Owned {
			v.sendAt[k] = int32(len(w.sends))
			w.walk(mark, ownedRef(k), lb.ID)
		}
		v.sendAt[len(v.Owned)] = int32(len(w.sends))
		v.Halo, v.sends = slices.Clone(w.halo), slices.Clone(w.sends)
	}

	// Receives: scatter every remote send to its destination's owner,
	// senders in SFC order. From holds the sender's leaf index until the
	// receiver turns it into a ref to its own halo below.
	recvAt := w.recvN
	for r := range nranks {
		recvAt[r+1] += recvAt[r]
	}
	recvs := make([]Message, recvAt[nranks])
	copy(next, recvAt[:nranks])
	for i := range leaves {
		v := &views[assign[i]]
		k := pos[i]
		for _, s := range v.sends[v.sendAt[k]:v.sendAt[k+1]] {
			if s.To.IsOwned() {
				continue
			}
			to := &v.Halo[s.To.HaloIndex()]
			recvs[next[to.Owner]] = Message{From: Ref(i), To: ownedRef(int(pos[to.Index])), PairEntry: s.PairEntry}
			next[to.Owner]++
		}
	}
	out := make([]*RankView, nranks)
	for r := range views {
		v := &views[r]
		lo, hi := recvAt[r], recvAt[r+1]
		v.recvs = recvs[lo:hi:hi]
		mark := -int32(r + 1)
		for h, hb := range v.Halo {
			w.stamp[hb.Index] = mark
			w.ref[hb.Index] = Ref(h)
		}
		for k := range v.recvs {
			j := v.recvs[k].From
			if w.stamp[j] != mark {
				panic(fmt.Sprintf("mesh: rank %d receives from leaf %d, which is not in its halo", r, j))
			}
			v.recvs[k].From = w.ref[j]
		}
		out[r] = v
	}
	return out
}

// viewWalk is BuildRankViews' state during the neighbourhood walk: the
// per-leaf stamps that stand in for a per-rank index, and the buffers the
// view under construction records its halo and sends in.
type viewWalk struct {
	m      *Mesh
	g      Geometry
	assign []int32
	// stamp[j] is the mark (1 + rank) of the view that last recorded leaf
	// j, and ref[j] is leaf j's ref in that view.
	stamp []int32
	ref   []Ref
	// halo and sends collect the current view's halo and sends.
	halo  []HaloBlock
	sends []Message
	recvN []int32 // recvN[r+1]: messages rank r's halo sends it
}

// walk records the sends of the owned leaf `from` in the view marked mark,
// in NeighborsOf order with a flux rider right behind each fine→coarse face
// ghost: ascending tag slot.
func (w *viewWalk) walk(mark int32, fromRef Ref, from BlockID) {
	for ord, dir := range directions {
		nc, ok := w.g.NeighborCoord(from, dir)
		if !ok {
			continue
		}
		kind := KindOf(dir[0], dir[1], dir[2])
		if b := w.m.coveringLeaf(nc); b != nil {
			w.send(mark, fromRef, b, PairEntry{DirOrd: uint8(ord), SubSlot: 0, Kind: kind})
			if kind == Face && b.ID.Level == from.Level-1 {
				w.send(mark, fromRef, b, PairEntry{DirOrd: uint8(ord), SubSlot: FluxSubSlot, Kind: kind, Flux: true})
			}
			continue
		}
		// The region is subdivided. Under 2:1 balance its near-side
		// children are leaves exactly one level finer.
		for _, c := range nc.Children() {
			if !onNearSide(c, dir) {
				continue
			}
			b := w.m.leaves[c]
			if b == nil {
				panic(fmt.Sprintf("mesh: fine neighbor %v of leaf %v (dir %v) is not a leaf: 2:1 balance is broken",
					c, from, dir))
			}
			w.send(mark, fromRef, b, PairEntry{DirOrd: uint8(ord), SubSlot: uint8(1 + c.ChildIndex()), Kind: kind})
		}
	}
}

// send records one message to leaf b, adding b to the current view's halo
// at its first encounter.
func (w *viewWalk) send(mark int32, from Ref, b *Block, e PairEntry) {
	j := b.SFCIndex
	if w.stamp[j] != mark {
		w.stamp[j] = mark
		w.ref[j] = Ref(len(w.halo))
		w.halo = append(w.halo, HaloBlock{ID: b.ID, Index: int32(j), Owner: w.assign[j]})
	}
	to := w.ref[j]
	if !to.IsOwned() {
		w.recvN[w.assign[j]+1]++
	}
	w.sends = append(w.sends, Message{From: from, To: to, PairEntry: e})
}

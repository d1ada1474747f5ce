package mesh

import "fmt"

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
// arithmetic pair enumeration (PairExchanges) and nothing else; the RankView
// enumeration constructs the same entries from its local resolution.
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
// them, computed purely arithmetically — no leaf set required. This is how a
// receiving rank reconstructs its incoming message list from its halo view
// alone. Valid under the 2:1 balance invariant (levels differing by more
// than one yield no entries); from == to yields no entries.
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

// RankView is the complete mesh knowledge of one simulated rank in the
// distributed forest: its owned blocks (in SFC order), the halo of adjacent
// remote blocks, and the domain geometry. Everything a rank contributes to
// an epoch — compute lists, send plans, receive plans — derives from this
// view alone, so per-rank metadata scales with local block count, not global.
type RankView struct {
	Rank  int
	Geom  Geometry
	Owned []LocalBlock
	Halo  []HaloBlock

	// index resolves block IDs in the rank's neighborhood (owned + halo).
	index map[BlockID]Ref
}

// Resolve looks up a block in the view's neighborhood.
func (v *RankView) Resolve(id BlockID) (Ref, bool) {
	r, ok := v.index[id]
	return r, ok
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
func (v *RankView) RefOwner(r Ref) int {
	if r.IsOwned() {
		return v.Rank
	}
	return int(v.Halo[r.HaloIndex()].Owner)
}

// covering walks up from a same-level neighbor coordinate through the local
// index: the adjacent covering leaf, if the region is not subdivided, is by
// construction in the viewing rank's neighborhood.
func (v *RankView) covering(id BlockID) (Ref, BlockID, bool) {
	for {
		if r, ok := v.index[id]; ok {
			return r, id, true
		}
		if id.Level == 0 {
			return 0, BlockID{}, false
		}
		id = id.Parent()
	}
}

// Neighbors enumerates the boundary messages owned block ownedIdx sends, in
// the exact order and with the exact tag slots of the global NeighborsOf
// enumeration, resolving every partner through the local view only. It
// panics when the view is incomplete (a fine partner missing from the halo)
// — that is a corrupted view, not a recoverable condition.
func (v *RankView) Neighbors(ownedIdx int, emit func(partner Ref, e PairEntry)) {
	from := v.Owned[ownedIdx].ID
	for ord, dir := range directions {
		nc, ok := v.Geom.NeighborCoord(from, dir)
		if !ok {
			continue
		}
		kind := KindOf(dir[0], dir[1], dir[2])
		if ref, cover, found := v.covering(nc); found {
			emit(ref, PairEntry{DirOrd: uint8(ord), SubSlot: 0, Kind: kind})
			if kind == Face && cover.Level == from.Level-1 {
				emit(ref, PairEntry{DirOrd: uint8(ord), SubSlot: FluxSubSlot, Kind: kind, Flux: true})
			}
			continue
		}
		// The region is subdivided. Under 2:1 balance its near-side children
		// are exactly one level finer and all adjacent to `from`, so each
		// must resolve in the local neighborhood.
		if nc.Level >= v.Geom.MaxLevel {
			continue
		}
		for _, c := range nc.Children() {
			if !onNearSide(c, dir) {
				continue
			}
			ref, ok := v.index[c]
			if !ok {
				panic(fmt.Sprintf("mesh: rank %d view missing fine neighbor %v of owned block %v (dir %v)",
					v.Rank, c, from, dir))
			}
			emit(ref, PairEntry{DirOrd: uint8(ord), SubSlot: uint8(1 + c.ChildIndex()), Kind: kind})
		}
	}
}

// Bytes estimates the view's metadata footprint: owned and halo records plus
// the neighborhood index. This is the quantity the scale experiment tracks
// per rank — it must stay flat as the global block count grows.
func (v *RankView) Bytes() int {
	const blockRec = 32 // BlockID (level + 3 coords, padded) + global index
	const indexEnt = 48 // map entry: key + Ref + bucket overhead estimate
	return len(v.Owned)*blockRec + len(v.Halo)*blockRec + len(v.index)*indexEnt
}

// BuildRankViews constructs the per-rank distributed-forest views for a
// block→rank assignment (indexed by SFC order, as placement produces it).
// Halo blocks appear in deterministic first-encounter order: owned blocks in
// SFC order, each block's neighbors in direction order. This global pass is
// the simulation substrate standing in for the neighborhood exchange a real
// distributed code performs; everything downstream of it consumes only the
// per-rank views.
func (m *Mesh) BuildRankViews(assign []int, nranks int) []*RankView {
	leaves := m.Leaves()
	if len(assign) != len(leaves) {
		panic(fmt.Sprintf("mesh: BuildRankViews with %d assignments for %d leaves", len(assign), len(leaves)))
	}
	g := m.Geometry()
	views := make([]*RankView, nranks)
	for r := range views {
		views[r] = &RankView{Rank: r, Geom: g, index: make(map[BlockID]Ref)}
	}
	global := make(map[BlockID]int32, len(leaves))
	for i, b := range leaves {
		global[b.ID] = int32(i)
	}
	for i, b := range leaves {
		v := views[assign[i]]
		v.index[b.ID] = ownedRef(len(v.Owned))
		v.Owned = append(v.Owned, LocalBlock{ID: b.ID, Index: int32(i)})
	}
	for i, b := range leaves {
		v := views[assign[i]]
		for _, nb := range m.NeighborsOf(b.ID) {
			if _, ok := v.index[nb.ID]; ok {
				continue
			}
			j := global[nb.ID]
			v.index[nb.ID] = Ref(len(v.Halo))
			v.Halo = append(v.Halo, HaloBlock{ID: nb.ID, Index: j, Owner: int32(assign[j])})
		}
	}
	return views
}

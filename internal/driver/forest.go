package driver

import (
	"slices"
	"sort"

	"amrtools/internal/check"
	"amrtools/internal/mesh"
	"amrtools/internal/placement"
	"amrtools/internal/sfc"
)

// This file is the driver side of the distributed forest (ROADMAP item 3):
// ownership resolution through an SFC-range-partitioned directory instead of
// a replicated global owner map, per-rank communication plans built from
// mesh.RankView neighborhoods, and the ownership-delta accounting exchanged
// between redistributions. No per-rank structure here grows with the global
// block count — that is the property the scale experiment measures.

// ownerDirectory resolves block → owner without a replicated global table.
// The key space is split across ranks by an SFC range partition (the only
// replicated piece, O(nranks)); each rank's shard holds the authoritative
// (key, level, owner) records for the leaves whose keys fall in its range.
// A lookup resolves the *home* rank from the partition, then the record from
// that home rank's shard — in the simulated codes this is the two-hop query
// of Schornbaum & Rüde's distributed forest.
type ownerDirectory struct {
	maxLevel int
	part     sfc.RangePartition
	shards   []dirShard
}

// dirShard is one home rank's slice of the directory: records for the keys
// in its partition range, sorted by key. Levels disambiguate a block from
// ancestors sharing its origin-cell key (a parent and its first child have
// equal normalized keys; conflating them would resolve a coarsened block to
// its first child's owner and silently bypass majority inheritance).
type dirShard struct {
	keys   []uint64
	levels []uint8
	owners []int32
}

// buildDirectory constructs the directory for the current epoch: the range
// partition splits the leaf keys evenly across home ranks (home load is a
// metadata-balance concern, independent of the placement policy), and each
// leaf's (key, level, owner) record lands in its home shard.
func buildDirectory(geom mesh.Geometry, leafIDs []mesh.BlockID, assign placement.Assignment, nranks int) *ownerDirectory {
	keys := make([]uint64, len(leafIDs))
	for i, id := range leafIDs {
		keys[i] = geom.Key(id)
	}
	d := &ownerDirectory{
		maxLevel: geom.MaxLevel,
		part:     sfc.PartitionByCount(keys, nranks),
		shards:   make([]dirShard, nranks),
	}
	for i, id := range leafIDs {
		h := d.part.Owner(keys[i])
		s := &d.shards[h]
		s.keys = append(s.keys, keys[i])
		s.levels = append(s.levels, uint8(id.Level))
		s.owners = append(s.owners, int32(assign[i]))
	}
	return d
}

// lookup resolves the owner of block id, or ok=false when id is not a leaf
// of the directory's epoch.
func (d *ownerDirectory) lookup(id mesh.BlockID) (int, bool) {
	if d == nil || len(d.shards) == 0 {
		return 0, false
	}
	key := sfc.Key3DAtLevel(id.X, id.Y, id.Z, id.Level, d.maxLevel)
	s := &d.shards[d.part.Owner(key)]
	i := sort.Search(len(s.keys), func(i int) bool { return s.keys[i] >= key })
	if i == len(s.keys) || s.keys[i] != key || int(s.levels[i]) != id.Level {
		return 0, false
	}
	return int(s.owners[i]), true
}

// inherit resolves the previous owner of a block that may not have existed
// in the directory's epoch: a surviving leaf resolves exactly; a freshly
// refined leaf inherits from its nearest surviving ancestor; a freshly
// coarsened leaf inherits the majority owner of its children. The ancestor
// walk goes all the way to the root — resolving only one level up silently
// dropped blocks created more than one level below any previous leaf to the
// rank-0 fallback (see TestInheritDeepAncestor).
func (d *ownerDirectory) inherit(id mesh.BlockID) (int, bool) {
	if o, ok := d.lookup(id); ok {
		return o, true
	}
	for a := id; a.Level > 0; {
		a = a.Parent()
		if o, ok := d.lookup(a); ok {
			return o, true
		}
	}
	if id.Level < d.maxLevel {
		if o, ok := d.childMajority(id); ok {
			return o, true
		}
	}
	return 0, false
}

// childMajority returns the owner that held the most of id's children,
// breaking ties toward the earliest child in Z order. A coarsened block's
// state lives wherever most of its children lived, so that rank is the
// cheapest inheritor.
func (d *ownerDirectory) childMajority(id mesh.BlockID) (int, bool) {
	counts := make(map[int]int, 2)
	var seen []int // owners in first-child order, for the tiebreak
	for _, c := range id.Children() {
		o, ok := d.lookup(c)
		if !ok {
			continue
		}
		if counts[o] == 0 {
			seen = append(seen, o)
		}
		counts[o]++
	}
	best, bestN := 0, 0
	for _, o := range seen {
		if counts[o] > bestN {
			best, bestN = o, counts[o]
		}
	}
	return best, bestN > 0
}

// shardBytes returns rank r's directory-shard footprint.
func (d *ownerDirectory) shardBytes(r int) int {
	s := &d.shards[r]
	return len(s.keys)*8 + len(s.levels) + len(s.owners)*4
}

// DeltaStats aggregates the ownership-delta exchange across redistributions:
// the only inter-rank metadata traffic the distributed forest needs when the
// mesh or placement changes.
type DeltaStats struct {
	// Handoffs counts block-state transfers old owner → new owner (one per
	// migrated block, same quantity Result.Migrations totals).
	Handoffs int
	// Installs counts directory records installed on a *remote* home rank:
	// after placement, each new owner pushes its blocks' records to the home
	// ranks the new partition designates.
	Installs int
}

// countInstalls tallies the remote directory-install records for a freshly
// built directory: entries whose owner is not their home rank had to be
// pushed across ranks.
func countInstalls(d *ownerDirectory) int {
	n := 0
	for h := range d.shards {
		for _, o := range d.shards[h].owners {
			if int(o) != h {
				n++
			}
		}
	}
	return n
}

// rankPlan is one rank's communication plan for an epoch, built from its
// RankView alone. Sends and recvs are in ascending tag order — which both
// endpoints derive independently from block indices and tag slots, and which
// reproduces the exact posting order of the pre-distributed global build.
type rankPlan struct {
	view  *mesh.RankView
	sends []exchange
	recvs []exchange
	intra int
}

// planBytes returns the plan's metadata footprint (excluding the view).
func (p *rankPlan) planBytes() int {
	const exchBytes = 20 // 5 × int32
	return (len(p.sends) + len(p.recvs)) * exchBytes
}

// messageTag derives the globally unique tag of a message from its sending
// block's global SFC index and the entry's tag slot. Both endpoints compute
// it independently — no sequencing pass over a global exchange list.
func messageTag(from int32, e mesh.PairEntry) int32 {
	return from*mesh.TagSlotsPerBlock + int32(e.Slot())
}

// buildRankPlan assembles one rank's plan from its view: sends by direct
// enumeration of owned-block neighborhoods, recvs by arithmetic
// reconstruction of each remote partner's entries toward the owned blocks
// (mesh.PairExchanges), sorted into the senders' tag order. Cost is linear
// in the rank's local block count.
func buildRankPlan(v *mesh.RankView, sizes [3]int, fluxBytes int) rankPlan {
	p := rankPlan{view: v}
	for k := range v.Owned {
		from := v.Owned[k].Index
		v.Neighbors(k, func(ref mesh.Ref, e mesh.PairEntry) {
			if ref.IsOwned() {
				p.intra++ // co-located pair: a memcpy, not a message
				return
			}
			p.sends = append(p.sends, exchange{
				tag:  messageTag(from, e),
				from: from,
				to:   v.RefIndex(ref),
				peer: int32(v.RefOwner(ref)),
				size: exchangeSize(e, sizes, fluxBytes),
			})
		})
	}
	var seen []mesh.Ref // one owned block's remote partners so far: a few dozen at most
	for k := range v.Owned {
		to := v.Owned[k].ID
		toIdx := v.Owned[k].Index
		seen = seen[:0]
		v.Neighbors(k, func(ref mesh.Ref, _ mesh.PairEntry) {
			if ref.IsOwned() || slices.Contains(seen, ref) {
				return
			}
			seen = append(seen, ref)
			fromIdx := v.RefIndex(ref)
			for _, e := range mesh.PairExchanges(v.Geom, v.RefID(ref), to) {
				p.recvs = append(p.recvs, exchange{
					tag:  messageTag(fromIdx, e),
					from: fromIdx,
					to:   toIdx,
					peer: int32(v.RefOwner(ref)),
					size: exchangeSize(e, sizes, fluxBytes),
				})
			}
		})
	}
	// Senders post in ascending tag order; receivers must pre-post in the
	// same global order to replay the pre-refactor event sequence exactly.
	// Tags are globally unique, so this sort is deterministic.
	sort.Slice(p.recvs, func(i, j int) bool { return p.recvs[i].tag < p.recvs[j].tag })
	return p
}

// exchangeSize prices one entry: ghost slabs by contact kind, flux riders by
// the restricted fine-face area.
func exchangeSize(e mesh.PairEntry, sizes [3]int, fluxBytes int) int32 {
	if e.Flux {
		return int32(fluxBytes)
	}
	return int32(sizes[int(e.Kind)])
}

// gatherCostViews builds the per-rank cost reports for the next placement:
// each rank reports, for the blocks it holds after refinement (by delta
// inheritance from the previous epoch), its telemetry-smoothed estimates.
// The gather of these local views is the only cost collective; no rank ever
// materializes another rank's telemetry.
func (st *runState) gatherCostViews(leaves []*mesh.Block, nranks int) []float64 {
	views := make([]placement.LocalView, nranks)
	for r := range views {
		views[r].Rank = r
	}
	for i, b := range leaves {
		r, ok := st.dir.inherit(b.ID)
		if !ok || r < 0 || r >= nranks {
			r = 0
		}
		est, _ := st.rec.Estimate(b.ID)
		views[r].Indices = append(views[r].Indices, i)
		views[r].Costs = append(views[r].Costs, est)
	}
	return placement.GatherCosts(views, len(leaves))
}

// maxTaggableBlocks bounds the mesh size the int32 structured-tag space
// accommodates (~8.2M blocks — far beyond simulation capacity, checked so
// overflow fails loudly, not as tag aliasing).
const maxTaggableBlocks = (1 << 31) / mesh.TagSlotsPerBlock

// checkTagCapacity fails the run when block count exceeds the tag space.
func checkTagCapacity(n int) {
	check.Assertf(n <= maxTaggableBlocks, "driver", "tag-capacity",
		"%d blocks exceed the %d-block structured-tag space", n, maxTaggableBlocks)
}

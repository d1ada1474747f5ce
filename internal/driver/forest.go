package driver

import (
	"sort"

	"amrtools/internal/check"
	"amrtools/internal/mesh"
	"amrtools/internal/placement"
	"amrtools/internal/sfc"
)

// This file is the driver side of the distributed forest (DESIGN.md §9):
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
// leaf's (key, level, owner) record lands in its home shard. The records are
// counting-sorted by home rank into three flat arrays the shards slice, so
// the build allocates a fixed number of times whatever the rank count.
func buildDirectory(geom mesh.Geometry, leafIDs []mesh.BlockID, assign placement.Assignment, nranks int) *ownerDirectory {
	n := len(leafIDs)
	keys := make([]uint64, n)
	for i, id := range leafIDs {
		keys[i] = geom.Key(id)
	}
	d := &ownerDirectory{
		maxLevel: geom.MaxLevel,
		part:     sfc.PartitionByCount(keys, nranks),
		shards:   make([]dirShard, nranks),
	}
	homes := make([]int32, n)
	at := make([]int, nranks+1)
	for i, k := range keys {
		homes[i] = int32(d.part.Owner(k))
		at[homes[i]+1]++
	}
	for h := range nranks {
		at[h+1] += at[h]
	}
	recKeys, levels, owners := make([]uint64, n), make([]uint8, n), make([]int32, n)
	for h := range d.shards {
		lo, hi := at[h], at[h+1]
		d.shards[h] = dirShard{keys: recKeys[lo:lo:hi], levels: levels[lo:lo:hi], owners: owners[lo:lo:hi]}
	}
	for i, id := range leafIDs {
		s := &d.shards[homes[i]]
		s.keys = append(s.keys, keys[i])
		s.levels = append(s.levels, uint8(id.Level))
		s.owners = append(s.owners, assign[i])
	}
	return d
}

// lookup resolves the owner of block id, or ok=false when id is not a leaf
// of the directory's epoch.
func (d *ownerDirectory) lookup(id mesh.BlockID) (int32, bool) {
	if d == nil || len(d.shards) == 0 {
		return 0, false
	}
	key := sfc.Key3DAtLevel(id.X, id.Y, id.Z, id.Level, d.maxLevel)
	s := &d.shards[d.part.Owner(key)]
	i := sort.Search(len(s.keys), func(i int) bool { return s.keys[i] >= key })
	if i == len(s.keys) || s.keys[i] != key || int(s.levels[i]) != id.Level {
		return 0, false
	}
	return s.owners[i], true
}

// inherit resolves the previous owner of a block that may not have existed
// in the directory's epoch: a surviving leaf resolves exactly; a freshly
// refined leaf inherits from its nearest surviving ancestor; a freshly
// coarsened leaf inherits the majority owner of its children. The ancestor
// walk goes all the way to the root — resolving only one level up silently
// dropped blocks created more than one level below any previous leaf to the
// rank-0 fallback (see TestInheritDeepAncestor).
func (d *ownerDirectory) inherit(id mesh.BlockID) (int32, bool) {
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
func (d *ownerDirectory) childMajority(id mesh.BlockID) (int32, bool) {
	counts := make(map[int32]int, 2)
	var seen []int32 // owners in first-child order, for the tiebreak
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
	best, bestN := int32(0), 0
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

// buildRankPlan assembles one rank's plan from its view in two loops over
// the messages the view recorded: its owned blocks' sends (a partner it owns
// is an intra-rank copy, the rest are sends, in the senders' tag order) and
// its halo's messages to its owned blocks, which the view already holds in
// tag order — the order receivers must pre-post in to replay the global
// build's event sequence exactly. Cost is linear in the rank's local message
// count.
func buildRankPlan(v *mesh.RankView, sizes [3]int, fluxBytes int) rankPlan {
	p := rankPlan{view: v}
	sends := v.Sends()
	for _, x := range sends {
		if x.To.IsOwned() {
			p.intra++ // co-located pair: a memcpy, not a message
		}
	}
	p.sends = make([]exchange, 0, len(sends)-p.intra)
	for _, x := range sends {
		if x.To.IsOwned() {
			continue
		}
		from := v.RefIndex(x.From)
		p.sends = append(p.sends, exchange{
			tag:  messageTag(from, x.PairEntry),
			from: from,
			to:   v.RefIndex(x.To),
			peer: v.RefOwner(x.To),
			size: exchangeSize(x.PairEntry, sizes, fluxBytes),
		})
	}
	recvs := v.Receives()
	p.recvs = make([]exchange, len(recvs))
	for k, x := range recvs {
		from := v.RefIndex(x.From)
		p.recvs[k] = exchange{
			tag:  messageTag(from, x.PairEntry),
			from: from,
			to:   v.RefIndex(x.To),
			peer: v.RefOwner(x.From),
			size: exchangeSize(x.PairEntry, sizes, fluxBytes),
		}
	}
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
		if !ok || r < 0 || int(r) >= nranks {
			r = 0
		}
		est, _ := st.rec.Estimate(b.ID)
		views[r].Indices = append(views[r].Indices, int32(i))
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

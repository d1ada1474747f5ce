package driver

import (
	"slices"
	"sort"

	"amrtools/internal/check"
	"amrtools/internal/mesh"
)

// auditEpoch runs the paranoid epoch-consistency audits after buildEpochWith
// assembled a new distributed communication plan (see internal/check and
// DESIGN.md §3/§9):
//
//   - cost-length: the cost vector used for placement covers every leaf;
//   - two-one-balance: the mesh still satisfies 2:1 level balance;
//   - owner-cover: the rank views jointly own every leaf exactly once;
//   - sfc-owner-agreement: the SFC-partitioned directory resolves every leaf
//     to the same owner the substrate assignment records;
//   - halo-consistency: every view's owned and halo entries carry the leaf
//     IDs, SFC indices, and owners the substrate holds;
//   - plan-symmetry: every send tag pairs with exactly one recv, on the
//     destination block's owner, with matching peer, source, and size;
//   - delta-symmetry (when a previous directory exists): the handoff ledger
//     derived from the substrate equals the one each rank derives from its
//     own view — the two sides of the ownership-delta exchange agree;
//   - plan-equivalence: the per-rank plans, concatenated, reproduce exactly
//     the global NeighborsOf enumeration the pre-distributed builder used
//     (same exchanges, same order, same intra-copy counts).
//
// Assignment validity (length, rank range) is always checked by
// buildEpochWith itself; these audits only run when paranoid.
func (st *runState) auditEpoch(ep *epoch, costs []float64, nranks int, oldDir *ownerDirectory) {
	n := len(ep.leafIDs)
	check.Assertf(len(costs) == n, "driver", "cost-length",
		"epoch placed with %d costs for %d leaves", len(costs), n)

	if a, b, ok := st.m.CheckBalance(); !ok {
		check.Failf("mesh", "two-one-balance",
			"adjacent leaves %v and %v differ by more than one level", a, b)
	}

	owned := 0
	for r := range ep.plans {
		owned += len(ep.plans[r].view.Owned)
	}
	check.Assertf(owned == n, "driver", "owner-cover",
		"rank views own %d blocks, want %d (a leaf is unowned or double-owned)", owned, n)

	st.auditSFCOwnerAgreement(ep)
	if oldDir != nil {
		// Before the view audit: a ledger mismatch should report as the
		// delta-exchange invariant, not the more generic view one.
		st.auditDeltaSymmetry(ep, oldDir, nranks)
	}
	st.auditHaloConsistency(ep, nranks)
	st.auditPlanSymmetry(ep)
	st.auditPlanEquivalence(ep, nranks)
}

// auditSFCOwnerAgreement verifies the two-hop directory lookup (partition →
// home shard → record) resolves every leaf to the owner the substrate
// assignment holds. A disagreement means the partition split, the shard
// routing, or the record install corrupted ownership.
func (st *runState) auditSFCOwnerAgreement(ep *epoch) {
	for i, id := range ep.leafIDs {
		o, ok := st.dir.lookup(id)
		check.Assertf(ok, "driver", "sfc-owner-agreement",
			"leaf %v (sfc %d) resolves to no directory record", id, i)
		check.Assertf(o == ep.assign[i], "driver", "sfc-owner-agreement",
			"directory resolves leaf %v (sfc %d) to rank %d, assignment says %d",
			id, i, o, ep.assign[i])
	}
}

// auditHaloConsistency verifies every rank view against the substrate: owned
// entries must be the rank's own leaves with correct SFC indices, halo
// entries must reference real leaves with their true (remote) owners.
func (st *runState) auditHaloConsistency(ep *epoch, nranks int) {
	n := len(ep.leafIDs)
	for r := range ep.plans {
		v := ep.plans[r].view
		for k, lb := range v.Owned {
			i := int(lb.Index)
			check.Assertf(i >= 0 && i < n && ep.leafIDs[i] == lb.ID,
				"driver", "halo-consistency",
				"rank %d owned[%d] = %v carries stale sfc index %d", r, k, lb.ID, lb.Index)
			check.Assertf(ep.assign[i] == r, "driver", "halo-consistency",
				"rank %d view owns leaf %v, assignment gives it to rank %d", r, lb.ID, ep.assign[i])
		}
		for k, hb := range v.Halo {
			i := int(hb.Index)
			check.Assertf(i >= 0 && i < n && ep.leafIDs[i] == hb.ID,
				"driver", "halo-consistency",
				"rank %d halo[%d] = %v carries stale sfc index %d", r, k, hb.ID, hb.Index)
			check.Assertf(int(hb.Owner) == ep.assign[i] && int(hb.Owner) != r,
				"driver", "halo-consistency",
				"rank %d halo leaf %v records owner %d, assignment says %d",
				r, hb.ID, hb.Owner, ep.assign[i])
		}
	}
}

// auditPlanSymmetry verifies the independently built per-rank plans agree
// pairwise: tags are globally unique per epoch, so each send must pair with
// exactly one recv — on the destination block's owner, naming the sender's
// rank as its peer, with the same source block and size — and vice versa.
func (st *runState) auditPlanSymmetry(ep *epoch) {
	type plannedRecv struct {
		rank        int
		from, size  int32
		peer, count int32
	}
	recvs := make(map[int32]plannedRecv)
	totalRecvs := 0
	for r := range ep.plans {
		for _, e := range ep.plans[r].recvs {
			prev := recvs[e.tag]
			recvs[e.tag] = plannedRecv{rank: r, from: e.from, size: e.size, peer: e.peer, count: prev.count + 1}
			totalRecvs++
		}
	}
	totalSends := 0
	for r := range ep.plans {
		for _, e := range ep.plans[r].sends {
			totalSends++
			got, ok := recvs[e.tag]
			check.Assertf(ok, "driver", "plan-symmetry",
				"send tag %d (block %d -> block %d) from rank %d has no planned recv", e.tag, e.from, e.to, r)
			check.Assertf(got.count == 1, "driver", "plan-symmetry",
				"tag %d planned as %d recvs, want exactly 1", e.tag, got.count)
			check.Assertf(got.rank == ep.assign[e.to], "driver", "plan-symmetry",
				"tag %d recv planned on rank %d, but destination block %d is owned by rank %d",
				e.tag, got.rank, e.to, ep.assign[e.to])
			check.Assertf(got.rank == int(e.peer), "driver", "plan-symmetry",
				"tag %d send names peer %d, but its recv is posted on rank %d", e.tag, e.peer, got.rank)
			check.Assertf(int(got.peer) == r, "driver", "plan-symmetry",
				"tag %d recv names peer %d, but its send is posted on rank %d", e.tag, got.peer, r)
			check.Assertf(got.from == e.from, "driver", "plan-symmetry",
				"tag %d send from block %d, recv expects block %d", e.tag, e.from, got.from)
			check.Assertf(got.size == e.size, "driver", "plan-symmetry",
				"tag %d send size %d != recv size %d", e.tag, e.size, got.size)
		}
	}
	check.Assertf(totalSends == totalRecvs, "driver", "plan-symmetry",
		"%d sends vs %d recvs planned (orphaned recv entries)", totalSends, totalRecvs)
}

// auditDeltaSymmetry verifies the two sides of the ownership-delta exchange
// describe the same transfer multiset: the sender ledger (substrate iteration
// over all leaves, resolving previous owners through the old directory)
// must equal the receiver ledger (each rank walking only its own view's owned
// blocks). Asymmetry means a rank's local view disagrees with the substrate
// about which blocks it just received.
func (st *runState) auditDeltaSymmetry(ep *epoch, oldDir *ownerDirectory, nranks int) {
	type edge struct{ oldRank, newRank int }
	sent := make(map[edge]int)
	for i, id := range ep.leafIDs {
		old, ok := oldDir.inherit(id)
		if ok && old >= 0 && old < nranks && old != ep.assign[i] {
			sent[edge{old, ep.assign[i]}]++
		}
	}
	recvd := make(map[edge]int)
	for r := range ep.plans {
		for _, lb := range ep.plans[r].view.Owned {
			old, ok := oldDir.inherit(lb.ID)
			if ok && old >= 0 && old < nranks && old != r {
				recvd[edge{old, r}]++
			}
		}
	}
	for e, c := range sent {
		check.Assertf(recvd[e] == c, "driver", "delta-symmetry",
			"handoff %d -> %d: substrate sends %d blocks, receiver views record %d",
			e.oldRank, e.newRank, c, recvd[e])
	}
	check.Assertf(len(recvd) == len(sent), "driver", "delta-symmetry",
		"receiver views record %d handoff edges, substrate records %d", len(recvd), len(sent))
}

// auditPlanEquivalence rebuilds the pre-distributed global communication plan
// (NeighborsOf enumeration over all leaves, flux riders after fine→coarse
// face ghosts) and verifies the per-rank plans reproduce it exactly — same
// exchanges with the same tags, peers, and sizes, in the same order, and the
// same intra-rank copy counts. This is the bit-identity contract of the
// distributed refactor, enforced at runtime.
func (st *runState) auditPlanEquivalence(ep *epoch, nranks int) {
	g := st.m.Geometry()
	// A partner's SFC index is its position in ep.leafIDs, which ascend by
	// key.
	keys := make([]uint64, len(ep.leafIDs))
	for i, id := range ep.leafIDs {
		keys[i] = g.Key(id)
	}
	index := func(id mesh.BlockID) int {
		j, ok := slices.BinarySearch(keys, g.Key(id))
		if !ok || ep.leafIDs[j] != id {
			check.Failf("driver", "plan-equivalence", "NeighborsOf names %v, which is not a leaf of the epoch", id)
		}
		return j
	}
	sizes := MessageSizes()
	refSends := make([][]exchange, nranks)
	refRecvs := make([][]exchange, nranks)
	refIntra := make([]int, nranks)
	for i, id := range ep.leafIDs {
		emit := func(j int, e mesh.PairEntry) {
			sr, dr := ep.assign[i], ep.assign[j]
			if sr == dr {
				refIntra[sr]++
				return
			}
			tag := messageTag(int32(i), e)
			size := exchangeSize(e, sizes, fluxBytes)
			refSends[sr] = append(refSends[sr],
				exchange{tag: tag, from: int32(i), to: int32(j), peer: int32(dr), size: size})
			refRecvs[dr] = append(refRecvs[dr],
				exchange{tag: tag, from: int32(i), to: int32(j), peer: int32(sr), size: size})
		}
		queues := map[mesh.BlockID][]mesh.PairEntry{}
		for _, nb := range st.m.NeighborsOf(id) {
			entries, ok := queues[nb.ID]
			if !ok {
				entries = mesh.PairExchanges(g, id, nb.ID)
			}
			check.Assertf(len(entries) > 0, "driver", "plan-equivalence",
				"NeighborsOf lists %v -> %v more often than PairExchanges accounts for", id, nb.ID)
			j := index(nb.ID)
			emit(j, entries[0])
			entries = entries[1:]
			if len(entries) > 0 && entries[0].Flux {
				emit(j, entries[0])
				entries = entries[1:]
			}
			queues[nb.ID] = entries
		}
		for p, rest := range queues {
			check.Assertf(len(rest) == 0, "driver", "plan-equivalence",
				"PairExchanges %v -> %v yields %d entries NeighborsOf never produced", id, p, len(rest))
		}
	}
	for r := 0; r < nranks; r++ {
		recvs := refRecvs[r]
		sort.Slice(recvs, func(a, b int) bool { return recvs[a].tag < recvs[b].tag })
		p := &ep.plans[r]
		check.Assertf(p.intra == refIntra[r], "driver", "plan-equivalence",
			"rank %d plans %d intra copies, global reference has %d", r, p.intra, refIntra[r])
		comparePlanList("sends", r, p.sends, refSends[r])
		comparePlanList("recvs", r, p.recvs, recvs)
	}
}

// comparePlanList asserts one rank's planned exchange list equals the global
// reference element-for-element.
func comparePlanList(kind string, r int, got, want []exchange) {
	check.Assertf(len(got) == len(want), "driver", "plan-equivalence",
		"rank %d plans %d %s, global reference has %d", r, len(got), kind, len(want))
	for k := range got {
		check.Assertf(got[k] == want[k], "driver", "plan-equivalence",
			"rank %d %s[%d] = %+v, global reference %+v", r, kind, k, got[k], want[k])
	}
}

package mesh

import "sort"

// directions enumerates the 26 neighbor offsets of a block in 3D:
// 6 faces, 12 edges, 8 vertices.
var directions = func() [][3]int {
	var out [][3]int
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				out = append(out, [3]int{dx, dy, dz})
			}
		}
	}
	return out
}()

// neighborCoord returns the same-level cell adjacent to id in direction dir;
// ok is false when the position falls outside the domain. The arithmetic
// lives on Geometry so distributed-forest views share it without the leaf
// set.
func (m *Mesh) neighborCoord(id BlockID, dir [3]int) (BlockID, bool) {
	return m.Geometry().NeighborCoord(id, dir)
}

// NeighborsOf returns one Neighbor entry per (direction, partner-leaf) pair
// of the leaf id: this is the boundary-exchange partner list, where the same
// coarse leaf may appear under several directions because each geometric
// boundary element (face, edge, vertex) carries its own ghost-cell message
// (§II-B). Finer partners across a face appear up to 4 times (quarter-faces),
// across an edge up to 2 times.
func (m *Mesh) NeighborsOf(id BlockID) []Neighbor {
	out := make([]Neighbor, 0, 26)
	for _, dir := range directions {
		nc, ok := m.neighborCoord(id, dir)
		if !ok {
			continue
		}
		kind := KindOf(dir[0], dir[1], dir[2])
		if cover := m.coveringLeaf(nc); cover != nil {
			out = append(out, Neighbor{ID: cover.ID, Kind: kind})
			continue
		}
		m.collectFine(nc, dir, kind, &out)
	}
	return out
}

// collectFine descends into a subdivided neighbor region, collecting the
// leaves on the side facing the querying block (the side opposite dir).
func (m *Mesh) collectFine(region BlockID, dir [3]int, kind NeighborKind, out *[]Neighbor) {
	if m.IsLeaf(region) {
		*out = append(*out, Neighbor{ID: region, Kind: kind})
		return
	}
	if region.Level >= m.maxLevel {
		return
	}
	for _, c := range region.Children() {
		if onNearSide(c, dir) {
			m.collectFine(c, dir, kind, out)
		}
	}
}

// onNearSide reports whether child (relative to its parent) lies on the side
// facing a block that is adjacent to the parent in direction dir.
func onNearSide(child BlockID, dir [3]int) bool {
	comp := [3]uint32{child.X & 1, child.Y & 1, child.Z & 1}
	for d := 0; d < 3; d++ {
		switch dir[d] {
		case 1: // querying block is at -d side of the region: near side is 0
			if comp[d] != 0 {
				return false
			}
		case -1: // near side is 1
			if comp[d] != 1 {
				return false
			}
		}
	}
	return true
}

// UniqueNeighbors returns the distinct leaves adjacent to id, each with the
// strongest (lowest) contact kind. Use this for placement locality metrics,
// where each neighboring block counts once.
func (m *Mesh) UniqueNeighbors(id BlockID) []Neighbor {
	strongest := make(map[BlockID]NeighborKind)
	for _, n := range m.NeighborsOf(id) {
		if k, ok := strongest[n.ID]; !ok || n.Kind < k {
			strongest[n.ID] = n.Kind
		}
	}
	out := make([]Neighbor, 0, len(strongest))
	for id, k := range strongest {
		out = append(out, Neighbor{ID: id, Kind: k})
	}
	// The strongest-contact map iterates in randomized order; sort by SFC
	// key so the neighbor list (and any float reduction over it) is
	// identical across runs.
	sort.Slice(out, func(i, j int) bool {
		return out[i].ID.Key(m.maxLevel) < out[j].ID.Key(m.maxLevel)
	})
	return out
}

// AdjacencyBySFC returns, for each leaf (indexed by SFCIndex), the SFCIndex
// list of its distinct neighbors. This is the compact adjacency structure
// placement-quality metrics and commbench consume; indices are int32, as
// LocalBlock.Index is.
func (m *Mesh) AdjacencyBySFC() [][]int32 {
	leaves := m.Leaves()
	adj := make([][]int32, len(leaves))
	for i, b := range leaves {
		for _, n := range m.UniqueNeighbors(b.ID) {
			adj[i] = append(adj[i], int32(m.leaves[n.ID].SFCIndex))
		}
	}
	return adj
}

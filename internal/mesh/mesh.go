package mesh

import (
	"fmt"
	"sort"
)

// Mesh is an adaptively refined octree forest over a grid of root blocks.
//
// The zero value is not usable; construct with NewUniform. Mesh is not safe
// for concurrent mutation; the simulation driver serializes refinement and
// redistribution, matching the BSP structure of the codes in the paper.
type Mesh struct {
	rootDims [3]uint32 // root blocks per dimension
	maxLevel int       // deepest allowed refinement level

	leaves map[BlockID]*Block

	// ordered caches the leaves in Z-order; nil when invalidated.
	ordered []*Block
}

// NewUniform creates a mesh of nx × ny × nz unrefined root blocks that may be
// refined up to maxLevel additional levels. It panics on non-positive
// dimensions, a negative maxLevel, or a domain too large for 64-bit SFC keys.
func NewUniform(nx, ny, nz, maxLevel int) *Mesh {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic("mesh: non-positive root dimensions")
	}
	if maxLevel < 0 {
		panic("mesh: negative maxLevel")
	}
	for _, n := range []int{nx, ny, nz} {
		if uint64(n)<<uint(maxLevel) > 1<<21 {
			panic("mesh: domain exceeds 21 bits per dimension at maxLevel")
		}
	}
	m := &Mesh{
		rootDims: [3]uint32{uint32(nx), uint32(ny), uint32(nz)},
		maxLevel: maxLevel,
		leaves:   make(map[BlockID]*Block, nx*ny*nz),
	}
	for z := uint32(0); z < m.rootDims[2]; z++ {
		for y := uint32(0); y < m.rootDims[1]; y++ {
			for x := uint32(0); x < m.rootDims[0]; x++ {
				id := BlockID{Level: 0, X: x, Y: y, Z: z}
				m.leaves[id] = &Block{ID: id}
			}
		}
	}
	return m
}

// RootDims returns the number of root blocks along each dimension.
func (m *Mesh) RootDims() [3]int {
	return [3]int{int(m.rootDims[0]), int(m.rootDims[1]), int(m.rootDims[2])}
}

// MaxLevel returns the deepest allowed refinement level.
func (m *Mesh) MaxLevel() int { return m.maxLevel }

// NumLeaves returns the current number of leaf blocks.
func (m *Mesh) NumLeaves() int { return len(m.leaves) }

// IsLeaf reports whether id is currently a leaf of the mesh.
func (m *Mesh) IsLeaf(id BlockID) bool {
	_, ok := m.leaves[id]
	return ok
}

// Leaves returns the leaf blocks in Z-order SFC order. The returned slice is
// shared and must not be modified; its order defines each block's SFCIndex.
func (m *Mesh) Leaves() []*Block {
	if m.ordered == nil {
		m.ordered = make([]*Block, 0, len(m.leaves))
		for _, b := range m.leaves {
			m.ordered = append(m.ordered, b)
		}
		sort.Slice(m.ordered, func(i, j int) bool {
			return m.ordered[i].ID.Key(m.maxLevel) < m.ordered[j].ID.Key(m.maxLevel)
		})
		for i, b := range m.ordered {
			b.SFCIndex = i
		}
	}
	return m.ordered
}

// invalidate drops the cached ordering after a structural change.
func (m *Mesh) invalidate() { m.ordered = nil }

// coveringLeaf returns the leaf covering the cell at (level, x, y, z):
// the cell itself if it is a leaf, else the nearest coarser ancestor leaf.
// It is nil when no leaf covers the position: the region is subdivided, or
// lies outside the domain, which callers exclude.
func (m *Mesh) coveringLeaf(id BlockID) *Block {
	for {
		if b := m.leaves[id]; b != nil {
			return b
		}
		if id.Level == 0 {
			return nil
		}
		id = id.Parent()
	}
}

// CanRefine reports whether the block can be refined (it is a leaf below
// maxLevel).
func (m *Mesh) CanRefine(id BlockID) bool {
	return m.IsLeaf(id) && id.Level < m.maxLevel
}

// Refine splits the leaf id into its 8 children. To maintain the 2:1 level
// balance invariant it first recursively refines any neighbor that would
// otherwise end up two or more levels coarser than the new children.
// It returns an error if id is not a leaf or already at maxLevel.
func (m *Mesh) Refine(id BlockID) error {
	if !m.IsLeaf(id) {
		return fmt.Errorf("mesh: refine %v: not a leaf", id)
	}
	if id.Level >= m.maxLevel {
		return fmt.Errorf("mesh: refine %v: already at max level %d", id, m.maxLevel)
	}
	m.refineBalanced(id)
	return nil
}

func (m *Mesh) refineBalanced(id BlockID) {
	// Ripple: every neighbor position must be covered by a leaf at level
	// >= id.Level after this refinement; coarser covering leaves are refined
	// first (recursion depth is bounded by maxLevel).
	for _, dir := range directions {
		nc, ok := m.neighborCoord(id, dir)
		if !ok {
			continue
		}
		for {
			cover := m.coveringLeaf(nc)
			if cover == nil || cover.ID.Level >= id.Level {
				break
			}
			m.refineBalanced(cover.ID)
		}
	}
	delete(m.leaves, id)
	for _, c := range id.Children() {
		m.leaves[c] = &Block{ID: c}
	}
	m.invalidate()
}

// CanCoarsen reports whether the 8 children of parent are all leaves and
// merging them would not violate the 2:1 balance invariant.
func (m *Mesh) CanCoarsen(parent BlockID) bool {
	if parent.Level >= m.maxLevel {
		return false // children would be beyond maxLevel; cannot exist
	}
	for _, c := range parent.Children() {
		if !m.IsLeaf(c) {
			return false
		}
	}
	// After merging, every leaf adjacent to parent must be at level
	// <= parent.Level+1. We check every neighbor region conservatively: if
	// any leaf anywhere inside a neighbor region is finer than that, refuse.
	// (A too-fine leaf on the far side of a face region does not actually
	// touch parent, so this occasionally refuses a legal coarsen; the
	// simulation driver treats a refused coarsen as "keep refined".)
	for _, dir := range directions {
		nc, ok := m.neighborCoord(parent, dir)
		if !ok {
			continue
		}
		if m.finestLeafLevelIn(nc) > parent.Level+1 {
			return false
		}
	}
	return true
}

// finestLeafLevelIn returns the maximum refinement level of any leaf
// contained in (or covering) region, or -1 when region is outside the mesh.
func (m *Mesh) finestLeafLevelIn(region BlockID) int {
	if cover := m.coveringLeaf(region); cover != nil {
		return cover.ID.Level // region itself is a leaf, or lies inside one
	}
	if region.Level >= m.maxLevel {
		return -1
	}
	best := -1
	for _, c := range region.Children() {
		if l := m.finestLeafLevelIn(c); l > best {
			best = l
		}
	}
	return best
}

// Coarsen merges the 8 child leaves of parent back into a single leaf.
// It returns an error when CanCoarsen(parent) is false.
func (m *Mesh) Coarsen(parent BlockID) error {
	if !m.CanCoarsen(parent) {
		return fmt.Errorf("mesh: coarsen %v: children not all leaves or 2:1 violation", parent)
	}
	for _, c := range parent.Children() {
		delete(m.leaves, c)
	}
	m.leaves[parent] = &Block{ID: parent}
	m.invalidate()
	return nil
}

// CheckBalance verifies the 2:1 invariant: adjacent leaves differ by at most
// one refinement level. It returns the first violating pair found, or ok.
func (m *Mesh) CheckBalance() (a, b BlockID, ok bool) {
	for id := range m.leaves {
		for _, n := range m.NeighborsOf(id) {
			d := id.Level - n.ID.Level
			if d < -1 || d > 1 {
				return id, n.ID, false
			}
		}
	}
	return BlockID{}, BlockID{}, true
}

// Package sfc implements the space-filling curves used for AMR block
// ordering: the Z-order (Morton) curve that block-based AMR codes derive from
// depth-first octree traversal (§V-A1 of the paper), and a Hilbert curve as
// an extension for locality comparisons.
//
// Block IDs assigned in Z-order approximately preserve spatial locality:
// blocks with nearby IDs are likely to be spatial neighbors. Dimensionality
// reduction is inherently lossy — the paper measures that even baseline
// placements route ~64% of messages across nodes at 4096 ranks.
package sfc

// MaxLevel3D is the deepest refinement level representable by a 64-bit
// 3-D Morton key (21 bits per dimension).
const MaxLevel3D = 21

// spread1in3 spreads the low 21 bits of x so each lands 3 positions apart.
func spread1in3(x uint64) uint64 {
	x &= 0x1fffff // 21 bits
	x = (x | x<<32) & 0x1f00000000ffff
	x = (x | x<<16) & 0x1f0000ff0000ff
	x = (x | x<<8) & 0x100f00f00f00f00f
	x = (x | x<<4) & 0x10c30c30c30c30c3
	x = (x | x<<2) & 0x1249249249249249
	return x
}

// Encode3D interleaves the low 21 bits of x, y, z into a Morton key with
// x occupying the least-significant position of each bit triple.
func Encode3D(x, y, z uint32) uint64 {
	return spread1in3(uint64(x)) | spread1in3(uint64(y))<<1 | spread1in3(uint64(z))<<2
}

// Key3DAtLevel returns the ordering key for a block whose integer coordinates
// are (x, y, z) at refinement level level, normalized to maxLevel.
//
// Ordering leaf blocks of an octree by this key is exactly the depth-first
// traversal order of the tree (Fig 5 of the paper): a leaf's key is the
// Morton code of its origin cell at the finest resolution, and because leaves
// tile the domain without overlap the origin codes are unique and sorted DFS.
func Key3DAtLevel(x, y, z uint32, level, maxLevel int) uint64 {
	shift := uint(maxLevel - level)
	return Encode3D(x<<shift, y<<shift, z<<shift)
}

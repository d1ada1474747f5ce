package sfc

// Hilbert-curve encoding (Skilling's transpose algorithm, AIP Conf. Proc.
// 707, 2004). The Hilbert curve preserves locality strictly better than
// Z-order and is included as an extension point for the locality studies in
// the commbench experiments; Parthenon-style codes use Z-order because it
// falls out of octree DFS for free.

// HilbertEncode3D returns the Hilbert-curve index of the point (x, y, z)
// on a grid with 'bits' bits per dimension (bits <= 21).
func HilbertEncode3D(x, y, z uint32, bits int) uint64 {
	axes := [3]uint32{x, y, z}
	axesToTranspose(&axes, bits)
	// Interleave the transposed coordinates, most significant bit first,
	// dimension 0 first.
	var key uint64
	for b := bits - 1; b >= 0; b-- {
		for d := 0; d < 3; d++ {
			key = key<<1 | uint64((axes[d]>>uint(b))&1)
		}
	}
	return key
}

// axesToTranspose converts coordinates into the "transpose" Hilbert form
// in place.
func axesToTranspose(x *[3]uint32, bits int) {
	const n = 3
	m := uint32(1) << uint(bits-1)
	// Inverse undo.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < n; i++ {
			if x[i]&q != 0 {
				x[0] ^= p // invert
			} else { // exchange
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	var t uint32
	for q := m; q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
}

package sfc

// The curves' inverses. The product only ever encodes (block ordering needs
// the key, never the coordinates back); the tests decode, to check that
// each encoding is a bijection and the Hilbert curve is continuous.

// decode3D is the inverse of Encode3D.
func decode3D(key uint64) (x, y, z uint32) {
	return uint32(compact1in3(key)), uint32(compact1in3(key >> 1)), uint32(compact1in3(key >> 2))
}

// compact1in3 is the inverse of spread1in3.
func compact1in3(x uint64) uint64 {
	x &= 0x1249249249249249
	x = (x | x>>2) & 0x10c30c30c30c30c3
	x = (x | x>>4) & 0x100f00f00f00f00f
	x = (x | x>>8) & 0x1f0000ff0000ff
	x = (x | x>>16) & 0x1f00000000ffff
	x = (x | x>>32) & 0x1fffff
	return x
}

// hilbertDecode3D is the inverse of HilbertEncode3D.
func hilbertDecode3D(key uint64, bits int) (x, y, z uint32) {
	var axes [3]uint32
	for b := bits - 1; b >= 0; b-- {
		for d := 0; d < 3; d++ {
			bit := uint32(key>>uint(3*b+2-d)) & 1
			axes[d] |= bit << uint(b)
		}
	}
	transposeToAxes(&axes, bits)
	return axes[0], axes[1], axes[2]
}

// transposeToAxes converts the "transpose" Hilbert form back into
// coordinates in place.
func transposeToAxes(x *[3]uint32, bits int) {
	const n = 3
	m := uint32(2) << uint(bits-1)
	// Gray decode by H ^ (H/2).
	t := x[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for q := uint32(2); q != m; q <<= 1 {
		p := q - 1
		for i := n - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
}

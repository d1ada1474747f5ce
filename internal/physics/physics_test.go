package physics

import (
	"math"
	"testing"

	"amrtools/internal/mesh"
)

func TestSedovRadiusMonotone(t *testing.T) {
	s := NewSedov([3]int{8, 8, 8}, 100, 1)
	prev := -1.0
	for step := 0; step <= 100; step += 5 {
		r := s.Radius(step)
		if r < prev {
			t.Fatalf("radius not monotone at step %d: %v < %v", step, r, prev)
		}
		prev = r
	}
	if s.Radius(0) != 0 {
		t.Fatal("radius at step 0 not zero")
	}
	if s.Radius(100) != 4 { // half the 8-wide domain
		t.Fatalf("final radius = %v, want 4", s.Radius(100))
	}
	if s.Radius(200) != 4 { // clamped past TotalSteps
		t.Fatalf("clamped radius = %v", s.Radius(200))
	}
}

func TestSedovSimilarityExponent(t *testing.T) {
	s := NewSedov([3]int{8, 8, 8}, 1000, 1)
	// r(t) ∝ t^0.4: doubling t multiplies r by 2^0.4 ≈ 1.3195.
	ratio := s.Radius(500) / s.Radius(250)
	if ratio < 1.30 || ratio > 1.34 {
		t.Fatalf("similarity ratio = %v, want ~1.32", ratio)
	}
}

func TestSedovRefinementFollowsFront(t *testing.T) {
	s := NewSedov([3]int{8, 8, 8}, 100, 1)
	center := mesh.BlockID{Level: 0, X: 3, Y: 3, Z: 3} // adjacent to center (4,4,4)
	corner := mesh.BlockID{Level: 0, X: 0, Y: 0, Z: 0}
	// Early: front near center → center block refines, corner does not.
	if !s.WantRefine(center, 2) {
		t.Error("center block not tagged early")
	}
	if s.WantRefine(corner, 2) {
		t.Error("corner block tagged early")
	}
	// Late: front near boundary → refined blocks at the center released.
	// (Root blocks never coarsen — they are the octree base.)
	centerChild := center.Children()[7] // nearest the domain center
	if !s.WantCoarsen(centerChild, 100) {
		t.Error("center child block not released late")
	}
	if s.WantCoarsen(center, 100) {
		t.Error("root block offered for coarsening")
	}
}

func TestSedovCostPeaksAtFront(t *testing.T) {
	s := NewSedov([3]int{8, 8, 8}, 100, 1)
	s.CostNoise = 0
	s.StepNoise = 0
	step := 50
	r := s.Radius(step)
	// A block sitting on the front vs one far away.
	onFront := mesh.BlockID{Level: 0, X: uint32(4 + int(r)), Y: 4, Z: 4}
	far := mesh.BlockID{Level: 0, X: 0, Y: 0, Z: 0}
	cf, cfar := s.Cost(onFront, step), s.Cost(far, step)
	if cf <= cfar {
		t.Fatalf("front cost %v not above far cost %v", cf, cfar)
	}
	if cfar < 1 || cfar > 1.6 {
		t.Fatalf("far cost = %v, want ~1", cfar)
	}
	if cf > s.PeakCost*1.01 {
		t.Fatalf("front cost %v exceeds peak %v", cf, s.PeakCost)
	}
}

func TestSedovCostPositiveWithNoise(t *testing.T) {
	s := NewSedov([3]int{4, 4, 4}, 50, 2)
	for step := 0; step < 50; step += 10 {
		for x := uint32(0); x < 4; x++ {
			if c := s.Cost(mesh.BlockID{Level: 0, X: x, Y: 2, Z: 2}, step); c <= 0 {
				t.Fatalf("non-positive cost %v", c)
			}
		}
	}
}

func TestSedovDrivesBlockGrowth(t *testing.T) {
	// Integrated with a real mesh: refining along the front must grow the
	// leaf count, and the refined region must move outward.
	m := mesh.NewUniform(8, 8, 8, 2)
	s := NewSedov([3]int{8, 8, 8}, 40, 3)
	initial := m.NumLeaves()
	m.RefineOnce(func(id mesh.BlockID) bool { return s.WantRefine(id, 10) })
	mid := m.NumLeaves()
	if mid <= initial {
		t.Fatalf("no growth: %d -> %d", initial, mid)
	}
	if _, _, ok := m.CheckBalance(); !ok {
		t.Fatal("refinement broke 2:1 balance")
	}
}

func TestCoolingStaticStructure(t *testing.T) {
	g := NewCooling([3]int{8, 8, 8}, 3, 5)
	id := mesh.BlockID{Level: 0, X: 4, Y: 4, Z: 4}
	// Tagging must not depend on step.
	if g.WantRefine(id, 0) != g.WantRefine(id, 1000) {
		t.Fatal("cooling tagging is time-dependent")
	}
	if g.Name() != "cooling" {
		t.Fatal("name wrong")
	}
}

func TestCoolingCostNearClump(t *testing.T) {
	g := NewCooling([3]int{8, 8, 8}, 1, 7)
	g.CostNoise = 0
	clump := g.Clumps[0]
	near := mesh.BlockID{Level: 2, X: uint32(clump[0] * 4), Y: uint32(clump[1] * 4), Z: uint32(clump[2] * 4)}
	far := mesh.BlockID{Level: 0, X: 0, Y: 0, Z: 0}
	if clump[0] < 2 && clump[1] < 2 && clump[2] < 2 {
		far = mesh.BlockID{Level: 0, X: 7, Y: 7, Z: 7}
	}
	if g.Cost(near, 0) <= g.Cost(far, 0) {
		t.Fatalf("clump cost %v not above far cost %v", g.Cost(near, 0), g.Cost(far, 0))
	}
}

func TestCoolingRefinesOnlyNearClumps(t *testing.T) {
	g := NewCooling([3]int{16, 16, 16}, 2, 11)
	m := mesh.NewUniform(16, 16, 16, 1)
	n := m.RefineOnce(func(id mesh.BlockID) bool { return g.WantRefine(id, 0) })
	if n == 0 {
		t.Fatal("no refinement near clumps")
	}
	if n > m.NumLeaves()/2 {
		t.Fatalf("refinement not localized: %d refinements", n)
	}
}

func TestProblemInterfaceCompliance(t *testing.T) {
	var _ Problem = NewSedov([3]int{2, 2, 2}, 10, 1)
	var _ Problem = NewCooling([3]int{2, 2, 2}, 1, 1)
}

// TestSedovCostAllocFree: the cost noise draws from a generator on the
// caller's stack, so a cost query allocates nothing, and the factors keep
// their bits.
func TestSedovCostAllocFree(t *testing.T) {
	s := NewSedov([3]int{8, 8, 8}, 100, 1)
	id := mesh.BlockID{Level: 2, X: 3, Y: 4, Z: 5}
	var got float64
	if n := testing.AllocsPerRun(100, func() { got = s.Cost(id, 7) }); n != 0 {
		t.Errorf("Cost allocates %v objects per call, want 0", n)
	}
	if bits := math.Float64bits(got); bits != 0x3ff03d13b01b7366 {
		t.Errorf("Cost = %v (bits %#x), want bits %#x", got, bits, uint64(0x3ff03d13b01b7366))
	}
}

package placement

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"amrtools/internal/xrand"
)

func randomCosts(rng *xrand.RNG, n int) []float64 {
	cs := make([]float64, n)
	for i := range cs {
		cs[i] = 0.1 + rng.Float64()*10
	}
	return cs
}

func TestValidate(t *testing.T) {
	if err := Validate(Assignment{0, 1, 2}, 3, 3); err != nil {
		t.Fatal(err)
	}
	if err := Validate(Assignment{0, 1}, 3, 3); err == nil {
		t.Fatal("short assignment not rejected")
	}
	if err := Validate(Assignment{0, 3}, 2, 3); err == nil {
		t.Fatal("out-of-range rank not rejected")
	}
	if err := Validate(Assignment{0, -1}, 2, 3); err == nil {
		t.Fatal("negative rank not rejected")
	}
}

func TestLoadsAndMakespan(t *testing.T) {
	costs := []float64{1, 2, 3, 4}
	a := Assignment{0, 0, 1, 1}
	loads := Loads(costs, a, 2)
	if loads[0] != 3 || loads[1] != 7 {
		t.Fatalf("loads = %v", loads)
	}
	if ms := Makespan(costs, a, 2); ms != 7 {
		t.Fatalf("makespan = %v", ms)
	}
	if im := Imbalance(costs, a, 2); im != 1.4 {
		t.Fatalf("imbalance = %v", im)
	}
}

func TestLowerBound(t *testing.T) {
	costs := []float64{5, 1, 1, 1}
	if lb := LowerBound(costs, 4); lb != 5 {
		t.Fatalf("lb = %v, want 5 (max cost)", lb)
	}
	if lb := LowerBound(costs, 2); lb != 5 {
		t.Fatalf("lb = %v, want 5", lb)
	}
	if lb := LowerBound([]float64{2, 2, 2, 2}, 2); lb != 4 {
		t.Fatalf("lb = %v, want 4 (avg)", lb)
	}
}

func TestBaselineCounts(t *testing.T) {
	costs := make([]float64, 10)
	a := Baseline{}.Assign(costs, 4)
	if err := Validate(a, 10, 4); err != nil {
		t.Fatal(err)
	}
	// 10 = 3+3+2+2; ranges must be contiguous and non-decreasing.
	want := Assignment{0, 0, 0, 1, 1, 1, 2, 2, 3, 3}
	if !reflect.DeepEqual(a, want) {
		t.Fatalf("baseline = %v, want %v", a, want)
	}
}

func TestBaselineMoreRanksThanBlocks(t *testing.T) {
	a := Baseline{}.Assign(make([]float64, 3), 8)
	if err := Validate(a, 3, 8); err != nil {
		t.Fatal(err)
	}
	if a[0] == a[1] || a[1] == a[2] {
		t.Fatalf("blocks should spread across ranks: %v", a)
	}
}

func TestLPTKnownOptimum(t *testing.T) {
	// Classic: {7,6,5,4,3} on 2 ranks. LPT: 7|6 → 7+3=10? Let's trace:
	// 7→r0, 6→r1, 5→r1(11)? No: least loaded after 7,6 is r1(6) gets 5 → 11;
	// Actually after 7(r0) and 6(r1): least is r1? 6<7 yes → 5 to r1 = 11.
	// Then 4 to r0 = 11, 3 to r0/r1 tie → r0 = 14? No: loads 11,11, tie→r0
	// = 14. Hmm LPT gives 14; optimum is 13 ({7,6} vs {5,4,3}+...). Sum=25,
	// halves 12.5 → opt 13. LPT = 14 ≤ 4/3·13.
	costs := []float64{7, 6, 5, 4, 3}
	a := LPT{}.Assign(costs, 2)
	if err := Validate(a, 5, 2); err != nil {
		t.Fatal(err)
	}
	ms := Makespan(costs, a, 2)
	if ms > 4.0/3.0*13+1e-9 {
		t.Fatalf("LPT makespan %v violates Graham bound", ms)
	}
}

func TestLPTDeterministic(t *testing.T) {
	rng := xrand.New(1)
	costs := randomCosts(rng, 200)
	a := LPT{}.Assign(costs, 16)
	b := LPT{}.Assign(costs, 16)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("LPT not deterministic")
	}
}

// TestNaNCostsPlaceDeterministically: a NaN cost has no place in the
// (cost desc, index asc) order, so there is no oracle to match; the radix
// order still gives it one by its sign bit. LPT and CPLX must place every
// block and repeat themselves exactly.
func TestNaNCostsPlaceDeterministically(t *testing.T) {
	rng := xrand.New(13)
	costs := randomCosts(rng, 300)
	for i := 0; i < 20; i++ {
		costs[rng.Intn(len(costs))] = math.NaN()
		costs[rng.Intn(len(costs))] = math.Copysign(math.NaN(), -1)
	}
	for _, p := range []Policy{LPT{}, CPLX{X: 50}, CPLX{X: 100}} {
		a := p.Assign(costs, 16)
		if err := Validate(a, len(costs), 16); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if b := p.Assign(costs, 16); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s not deterministic with NaN costs", p.Name())
		}
	}
}

// Graham bound property: LPT makespan <= (4/3 - 1/(3r)) * OPT, and since
// OPT >= LowerBound, check the weaker LPT <= 4/3 * OPT via the exact optimum
// on small instances.
func TestLPTGrahamBound(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 4 + rng.Intn(8)
		r := 2 + rng.Intn(3)
		costs := randomCosts(rng, n)
		a := LPT{}.Assign(costs, r)
		opt := bruteForceOptimal(costs, r)
		ms := Makespan(costs, a, r)
		return ms <= (4.0/3.0)*opt+1e-9
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// bruteForceOptimal enumerates all r^n assignments (small n only).
func bruteForceOptimal(costs []float64, r int) float64 {
	n := len(costs)
	best := math.Inf(1)
	assign := make(Assignment, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			ms := Makespan(costs, assign, r)
			if ms < best {
				best = ms
			}
			return
		}
		for k := range int32(r) {
			assign[i] = k
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

// bruteForceContiguousOptimal enumerates all contiguous partitions.
func bruteForceContiguousOptimal(costs []float64, r int) float64 {
	n := len(costs)
	best := math.Inf(1)
	// Choose r-1 cut points in [0, n]; allow empty segments.
	cuts := make([]int, r-1)
	var rec func(pos, from int)
	rec = func(pos, from int) {
		if pos == r-1 {
			prevCut := 0
			ms := 0.0
			bounds := append(append([]int{}, cuts...), n)
			for _, c := range bounds {
				seg := 0.0
				for i := prevCut; i < c; i++ {
					seg += costs[i]
				}
				if seg > ms {
					ms = seg
				}
				prevCut = c
			}
			if ms < best {
				best = ms
			}
			return
		}
		for c := from; c <= n; c++ {
			cuts[pos] = c
			rec(pos+1, c)
		}
	}
	if r == 1 {
		s := 0.0
		for _, c := range costs {
			s += c
		}
		return s
	}
	rec(0, 0)
	return best
}

func TestCDPFullIsOptimalContiguous(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 3 + rng.Intn(8)
		r := 1 + rng.Intn(4)
		costs := randomCosts(rng, n)
		a := CDP{Restricted: false}.Assign(costs, r)
		if Validate(a, n, r) != nil {
			return false
		}
		ms := Makespan(costs, a, r)
		want := bruteForceContiguousOptimal(costs, r)
		return math.Abs(ms-want) < 1e-9
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCDPFullMatchesBinarySearchOptimum(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 5 + rng.Intn(40)
		r := 1 + rng.Intn(8)
		costs := randomCosts(rng, n)
		a := CDP{Restricted: false}.Assign(costs, r)
		ms := Makespan(costs, a, r)
		want := optimalContiguousMakespan(costs, r)
		return math.Abs(ms-want) < 1e-6*(1+want)
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCDPRestrictedContiguityAndSizes(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 1 + rng.Intn(60)
		r := 1 + rng.Intn(12)
		costs := randomCosts(rng, n)
		a := CDP{Restricted: true}.Assign(costs, r)
		if Validate(a, n, r) != nil {
			return false
		}
		// Contiguity: rank ids must be non-decreasing along SFC order.
		counts := make([]int, r)
		for i := 1; i < n; i++ {
			if a[i] < a[i-1] {
				return false
			}
		}
		for _, rk := range a {
			counts[rk]++
		}
		floor, ceil := n/r, (n+r-1)/r
		for _, c := range counts {
			if c != floor && c != ceil {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// The restricted DP must be optimal among partitions restricted to the two
// chunk sizes; in particular it is never worse than the baseline (which is
// one such partition).
func TestCDPRestrictedBeatsBaseline(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 4 + rng.Intn(100)
		r := 2 + rng.Intn(16)
		costs := randomCosts(rng, n)
		cdp := Makespan(costs, CDP{Restricted: true}.Assign(costs, r), r)
		base := Makespan(costs, Baseline{}.Assign(costs, r), r)
		return cdp <= base+1e-9
	}, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestCDPRestrictedExampleFromPaper(t *testing.T) {
	// 10 blocks, 4 ranks: chunk sizes must be a permutation of {2,2,3,3}
	// minimizing makespan (§V-C example).
	costs := []float64{9, 1, 1, 1, 1, 1, 1, 1, 1, 9}
	a := CDP{Restricted: true}.Assign(costs, 4)
	counts := make([]int, 4)
	for _, r := range a {
		counts[r]++
	}
	two, three := 0, 0
	for _, c := range counts {
		switch c {
		case 2:
			two++
		case 3:
			three++
		default:
			t.Fatalf("chunk size %d not in {2,3}", c)
		}
	}
	if two != 2 || three != 2 {
		t.Fatalf("chunk mix = %v", counts)
	}
	// Optimal restricted here: expensive blocks at both ends want small
	// chunks: [2,3,3,2] → makespan 10.
	if ms := Makespan(costs, a, 4); ms != 10 {
		t.Fatalf("makespan = %v, want 10", ms)
	}
}

func TestCDPChunkedValidAndClose(t *testing.T) {
	rng := xrand.New(9)
	n, r := 512, 128
	costs := randomCosts(rng, n)
	plain := CDP{Restricted: true}.Assign(costs, r)
	chunked := CDP{Restricted: true, ChunkSize: 32}.Assign(costs, r)
	if err := Validate(chunked, n, r); err != nil {
		t.Fatal(err)
	}
	msPlain := Makespan(costs, plain, r)
	msChunked := Makespan(costs, chunked, r)
	if msChunked > 1.5*msPlain {
		t.Fatalf("chunked makespan %v too far from plain %v", msChunked, msPlain)
	}
	// Chunked must still be contiguous.
	for i := 1; i < n; i++ {
		if chunked[i] < chunked[i-1] {
			t.Fatal("chunked CDP broke contiguity")
		}
	}
}

func TestCPLXEndpoints(t *testing.T) {
	rng := xrand.New(21)
	costs := randomCosts(rng, 300)
	r := 24
	cpl0 := CPLX{X: 0}.Assign(costs, r)
	cdp := CDP{Restricted: true}.Assign(costs, r)
	if !reflect.DeepEqual(cpl0, cdp) {
		t.Fatal("CPL0 != CDP")
	}
	cpl100 := CPLX{X: 100}.Assign(costs, r)
	lpt := LPT{}.Assign(costs, r)
	if !reflect.DeepEqual(cpl100, lpt) {
		t.Fatal("CPL100 != LPT")
	}
}

func TestCPLXEndpointsOddRanks(t *testing.T) {
	rng := xrand.New(23)
	costs := randomCosts(rng, 101)
	r := 7
	cpl100 := CPLX{X: 100}.Assign(costs, r)
	lpt := LPT{}.Assign(costs, r)
	if !reflect.DeepEqual(cpl100, lpt) {
		t.Fatal("CPL100 != LPT with odd rank count")
	}
}

func TestCPLXMonotoneTradeoff(t *testing.T) {
	// As X grows, makespan should not get (much) worse and locality-held
	// block fraction should fall. We check endpoints strictly and the
	// middle loosely.
	rng := xrand.New(25)
	costs := make([]float64, 400)
	for i := range costs {
		costs[i] = rng.Pareto(0.6, 2.5)
	}
	r := 32
	msCDP := Makespan(costs, CPLX{X: 0}.Assign(costs, r), r)
	msMid := Makespan(costs, CPLX{X: 50}.Assign(costs, r), r)
	msLPT := Makespan(costs, CPLX{X: 100}.Assign(costs, r), r)
	if msLPT > msCDP+1e-9 {
		t.Fatalf("LPT makespan %v worse than CDP %v", msLPT, msCDP)
	}
	if msMid > msCDP+1e-9 {
		t.Fatalf("CPL50 makespan %v worse than CDP %v", msMid, msCDP)
	}
	// Migration from the CDP seed grows with X.
	seed := CDP{Restricted: true}.Assign(costs, r)
	m25 := Migrations(seed, CPLX{X: 25}.Assign(costs, r))
	m75 := Migrations(seed, CPLX{X: 75}.Assign(costs, r))
	if m75 < m25 {
		t.Fatalf("migrations decreased with X: m25=%d m75=%d", m25, m75)
	}
}

func TestCPLXValidity(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 1 + rng.Intn(120)
		r := 1 + rng.Intn(16)
		x := []int{0, 25, 50, 75, 100}[rng.Intn(5)]
		costs := randomCosts(rng, n)
		a := CPLX{X: x}.Assign(costs, r)
		return Validate(a, n, r) == nil
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCPLXPanicsOnBadX(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("X=101 did not panic")
		}
	}()
	CPLX{X: 101}.Assign([]float64{1}, 1)
}

func TestCPLXSingleRank(t *testing.T) {
	a := CPLX{X: 50}.Assign([]float64{1, 2, 3}, 1)
	if err := Validate(a, 3, 1); err != nil {
		t.Fatal(err)
	}
}

func TestZonalValidAndFaster(t *testing.T) {
	rng := xrand.New(31)
	n, r := 2048, 512
	costs := randomCosts(rng, n)
	z := Zonal{Inner: CPLX{X: 50}, Zones: 8}
	a := z.Assign(costs, r)
	if err := Validate(a, n, r); err != nil {
		t.Fatal(err)
	}
	// Quality should remain within 2x of the unzoned policy.
	plain := CPLX{X: 50}.Assign(costs, r)
	if Makespan(costs, a, r) > 2*Makespan(costs, plain, r) {
		t.Fatal("zonal quality degraded too far")
	}
}

func TestZonalFallsBackOnSmallRankCounts(t *testing.T) {
	rng := xrand.New(33)
	costs := randomCosts(rng, 16)
	z := Zonal{Inner: LPT{}, Zones: 16}
	a := z.Assign(costs, 4) // 4 ranks < 2*16 zones → direct inner
	want := LPT{}.Assign(costs, 4)
	if !reflect.DeepEqual(a, want) {
		t.Fatal("small-scale zonal did not fall back to inner policy")
	}
}

func TestLocalityFraction(t *testing.T) {
	// Chain 0-1-2-3; assignment [0,0,1,1] keeps edges (0,1) and (2,3) local.
	adj := [][]int32{{1}, {0, 2}, {1, 3}, {2}}
	a := Assignment{0, 0, 1, 1}
	if f := LocalityFraction(adj, a); f != 2.0/3.0 {
		t.Fatalf("locality = %v, want 2/3", f)
	}
	if f := LocalityFraction([][]int32{{}, {}}, Assignment{0, 1}); f != 1 {
		t.Fatalf("edgeless locality = %v, want 1", f)
	}
}

func TestNodeLocalityFraction(t *testing.T) {
	adj := [][]int32{{1}, {0, 2}, {1, 3}, {2}}
	a := Assignment{0, 1, 2, 3}
	// ranksPerNode=2: nodes {0,1} and {2,3}: edges 0-1 local, 1-2 remote,
	// 2-3 local.
	if f := NodeLocalityFraction(adj, a, 2); f != 2.0/3.0 {
		t.Fatalf("node locality = %v, want 2/3", f)
	}
	// ranksPerNode = 1 is rank-level locality: no edge here shares a rank.
	if f := NodeLocalityFraction(adj, a, 1); f != 0 {
		t.Fatalf("node locality rpn=1 = %v, want 0", f)
	}
}

// TestNodeLocalityFractionRejectsNonPositiveNode: a node of zero or fewer
// ranks is an invalid input, not a request for rank-level locality, so it
// panics instead of being rewritten to 1.
func TestNodeLocalityFractionRejectsNonPositiveNode(t *testing.T) {
	adj := [][]int32{{1}, {0}}
	for _, rpn := range []int{0, -16} {
		msg := panicMessage(func() { NodeLocalityFraction(adj, Assignment{0, 1}, rpn) })
		if want := fmt.Sprintf("ranksPerNode %d <= 0", rpn); !strings.Contains(msg, want) {
			t.Errorf("ranksPerNode=%d: panic %q, want one naming %q", rpn, msg, want)
		}
	}
}

// panicMessage runs f and returns the string it panics with ("" if it
// returns).
func panicMessage(f func()) (msg string) {
	defer func() { msg, _ = recover().(string) }()
	f()
	return ""
}

// TestRankCountGuards: every policy, and the exported rebalance step, panics
// on a rank count an int32 rank id cannot hold, and on a non-positive one,
// before it allocates anything sized by nranks. The costs are empty, so a
// guard that came after a rank-sized allocation would show as a multi-GB
// allocation rather than a wrong answer; the order is what this pins.
func TestRankCountGuards(t *testing.T) {
	const tooMany = math.MaxInt32 + 1
	type call struct {
		name string
		run  func(nranks int)
	}
	calls := []call{{"rebalance", func(n int) { RebalanceExtremes(nil, nil, n, 50) }}}
	for _, p := range []Policy{
		Baseline{}, LPT{},
		CDP{Restricted: true}, CDP{}, CDP{Restricted: true, ChunkSize: 512},
		CPLX{X: 50}, CPLX{X: 100, ChunkSize: 512},
		Zonal{Inner: CPLX{X: 50}, Zones: 4},
	} {
		calls = append(calls, call{p.Name(), func(n int) { p.Assign(nil, n) }})
	}
	for _, c := range calls {
		for _, tc := range []struct {
			nranks int
			want   string
		}{{tooMany, "nranks 2147483648 > math.MaxInt32"}, {0, "nranks <= 0"}, {-1, "nranks <= 0"}} {
			if msg := panicMessage(func() { c.run(tc.nranks) }); !strings.Contains(msg, tc.want) {
				t.Errorf("%s at nranks=%d: panic %q, want one naming %q", c.name, tc.nranks, msg, tc.want)
			}
		}
	}
}

func TestMigrations(t *testing.T) {
	if m := Migrations(Assignment{0, 1, 2}, Assignment{0, 2, 2}); m != 1 {
		t.Fatalf("migrations = %d, want 1", m)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	Migrations(Assignment{0}, Assignment{0, 1})
}

func TestByName(t *testing.T) {
	for _, name := range []string{"baseline", "lpt", "cdp", "cdp-full", "cpl0", "cpl25", "cpl100"} {
		p, err := ByName(name, 0)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p.Name() != name && name != "cdp" { // cdp name matches too
			if p.Name() != name {
				t.Fatalf("ByName(%q).Name() = %q", name, p.Name())
			}
		}
	}
	if _, err := ByName("cpl999", 0); err == nil {
		t.Fatal("cpl999 accepted")
	}
	if _, err := ByName("nope", 0); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestStandardSuite(t *testing.T) {
	suite := StandardSuite(0)
	if len(suite) != 6 {
		t.Fatalf("suite size = %d", len(suite))
	}
	if suite[0].Name() != "baseline" || suite[5].Name() != "cpl100" {
		t.Fatalf("unexpected suite: %v, %v", suite[0].Name(), suite[5].Name())
	}
}

func TestEmptyBlockList(t *testing.T) {
	for _, p := range []Policy{Baseline{}, LPT{}, CDP{Restricted: true}, CDP{}, CPLX{X: 50}} {
		a := p.Assign(nil, 4)
		if len(a) != 0 {
			t.Fatalf("%s: non-empty assignment for empty blocks", p.Name())
		}
	}
}

func benchAssign(b *testing.B, p Policy, blocks, ranks int) {
	costs := randomCosts(xrand.New(1), blocks)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = p.Assign(costs, ranks)
	}
}

var benchSink Assignment

func BenchmarkLPT4096(b *testing.B)  { benchAssign(b, LPT{}, 2*4096, 4096) }
func BenchmarkLPT16384(b *testing.B) { benchAssign(b, LPT{}, 2*16384, 16384) }
func BenchmarkLPT65536(b *testing.B) { benchAssign(b, LPT{}, 2*65536, 65536) }

// The CDP-seeded benchmarks use the Fig 7c shape, 1.5 blocks per rank: every
// restricted DP then has m ≈ r/2 ceil-sized segments and the widest row. (At
// exactly 2 blocks per rank the unchunked DP has m = 0 and one feasible
// partition, so it would not run at all.)
func BenchmarkCDPRestricted4096(b *testing.B) {
	benchAssign(b, CDP{Restricted: true}, 4096+2048, 4096)
}
func BenchmarkCPLX50Chunked4096(b *testing.B) {
	benchAssign(b, CPLX{X: 50, ChunkSize: 512}, 4096+2048, 4096)
}
func BenchmarkCPLX50Chunked65536(b *testing.B) {
	benchAssign(b, CPLX{X: 50, ChunkSize: 512}, 65536+32768, 65536)
}
func BenchmarkCPLX100Chunked65536(b *testing.B) {
	benchAssign(b, CPLX{X: 100, ChunkSize: 512}, 65536+32768, 65536)
}

func TestCPLXTopOnlyValidityAndName(t *testing.T) {
	rng := xrand.New(41)
	costs := randomCosts(rng, 200)
	p := CPLX{X: 50, TopOnly: true}
	if p.Name() != "cpl50-toponly" {
		t.Fatalf("name = %q", p.Name())
	}
	a := p.Assign(costs, 16)
	if err := Validate(a, 200, 16); err != nil {
		t.Fatal(err)
	}
	// Top-only rebalancing cannot beat both-ends: it has no underloaded
	// destinations to move work to.
	both := Makespan(costs, CPLX{X: 50}.Assign(costs, 16), 16)
	top := Makespan(costs, a, 16)
	if both > top+1e-9 {
		t.Fatalf("both-ends %.4f worse than top-only %.4f", both, top)
	}
}

// TestRebalanceExtremesZeroIsNoOp pins the x=0 fix: the exported entry point
// documents "rebalance X percent of the ranks", so zero percent must leave
// the assignment untouched. Pre-fix, the at-least-one-per-end bump kicked in
// even at x=0 and quietly rebalanced the two extreme ranks. (CPLX.Assign's
// X=0 early return masked this for the policy path.)
func TestRebalanceExtremesZeroIsNoOp(t *testing.T) {
	costs := []float64{10, 9, 1, 1, 1, 1, 1, 1}
	a := Assignment{0, 0, 1, 1, 2, 2, 3, 3} // rank 0 heavily overloaded
	want := append(Assignment(nil), a...)

	RebalanceExtremes(costs, a, 4, 0)
	for i := range a {
		if a[i] != want[i] {
			t.Fatalf("x=0 rebalance moved block %d: %d -> %d (full: %v -> %v)",
				i, want[i], a[i], want, a)
		}
	}

	// Sanity: the same call with x > 0 does rebalance this assignment, so
	// the no-op above is the fix, not an accident of the inputs.
	moved := append(Assignment(nil), want...)
	RebalanceExtremes(costs, moved, 4, 50)
	if Makespan(costs, moved, 4) >= Makespan(costs, want, 4) {
		t.Fatalf("x=50 control did not improve makespan: %v", moved)
	}
}

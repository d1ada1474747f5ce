package stats

import (
	"math"
	"testing"
	"testing/quick"

	"amrtools/internal/xrand"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); v != 4 {
		t.Errorf("Variance = %v, want 4", v)
	}
	if sd := StdDev(xs); sd != 2 {
		t.Errorf("StdDev = %v, want 2", sd)
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Error("empty slice should give zero mean/variance")
	}
	if Variance([]float64{5}) != 0 {
		t.Error("singleton variance should be 0")
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if Min(xs) != -1 || Max(xs) != 5 || Sum(xs) != 12 {
		t.Errorf("Min/Max/Sum = %v/%v/%v", Min(xs), Max(xs), Sum(xs))
	}
}

func TestMinPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Min(nil) did not panic")
		}
	}()
	Min(nil)
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {12.5, 1.5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("singleton percentile = %v", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Percentile mutated input: %v", xs)
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if r := Pearson(xs, ys); !almostEqual(r, 1, 1e-12) {
		t.Errorf("perfect positive corr = %v, want 1", r)
	}
	neg := []float64{8, 6, 4, 2}
	if r := Pearson(xs, neg); !almostEqual(r, -1, 1e-12) {
		t.Errorf("perfect negative corr = %v, want -1", r)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if r := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); r != 0 {
		t.Errorf("zero-variance corr = %v, want 0", r)
	}
	if r := Pearson([]float64{1, 2}, []float64{1}); r != 0 {
		t.Errorf("mismatched length corr = %v, want 0", r)
	}
}

func TestPearsonBounds(t *testing.T) {
	rng := xrand.New(5)
	if err := quick.Check(func(seed uint64) bool {
		r := xrand.New(seed)
		n := 3 + r.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
			ys[i] = r.NormFloat64()
		}
		c := Pearson(xs, ys)
		return c >= -1-1e-9 && c <= 1+1e-9
	}, &quick.Config{MaxCount: 200, Rand: nil}); err != nil {
		t.Fatal(err)
	}
	_ = rng
}

func TestCoefVar(t *testing.T) {
	if cv := CoefVar([]float64{5, 5, 5}); cv != 0 {
		t.Errorf("uniform CV = %v, want 0", cv)
	}
	if cv := CoefVar([]float64{0, 0}); cv != 0 {
		t.Errorf("zero-mean CV = %v, want 0", cv)
	}
	xs := []float64{1, 3}
	if cv := CoefVar(xs); !almostEqual(cv, 0.5, 1e-12) {
		t.Errorf("CV = %v, want 0.5", cv)
	}
}

// Property: variance is invariant under shifting, scales quadratically.
func TestVarianceProperties(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := xrand.New(seed)
		n := 2 + r.Intn(40)
		xs := make([]float64, n)
		shifted := make([]float64, n)
		scaled := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
			shifted[i] = xs[i] + 123.5
			scaled[i] = xs[i] * 3
		}
		v := Variance(xs)
		return almostEqual(Variance(shifted), v, 1e-6*(1+v)) &&
			almostEqual(Variance(scaled), 9*v, 1e-6*(1+9*v))
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

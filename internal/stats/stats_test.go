package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if Mean([]float64{2, 4, 6}) != 4 {
		t.Fatal("Mean wrong")
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if Max(xs) != 5 {
		t.Fatalf("Max = %v", Max(xs))
	}
	if !math.IsInf(Max(nil), -1) {
		t.Fatal("empty Max not -Inf")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {-5, 1}, {110, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-12) {
			t.Fatalf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("Percentile(nil) != 0")
	}
	if Median(xs) != 3 {
		t.Fatal("Median wrong")
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 50); !almostEqual(got, 5, 1e-12) {
		t.Fatalf("interpolated percentile = %v", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated input")
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if !almostEqual(Pearson(xs, ys), 1, 1e-12) {
		t.Fatal("perfect correlation not 1")
	}
	neg := []float64{8, 6, 4, 2}
	if !almostEqual(Pearson(xs, neg), -1, 1e-12) {
		t.Fatal("perfect anticorrelation not -1")
	}
	if Pearson(xs, []float64{1, 1, 1, 1}) != 0 {
		t.Fatal("zero-variance series should give 0")
	}
	if Pearson(xs, ys[:3]) != 0 {
		t.Fatal("length mismatch should give 0")
	}
}

func TestWilsonInterval(t *testing.T) {
	lo, hi := WilsonInterval(0, 0, 1.96)
	if lo != 0 || hi != 1 {
		t.Fatal("zero trials should return (0,1)")
	}
	lo, hi = WilsonInterval(50, 100, 1.96)
	if lo >= 0.5 || hi <= 0.5 {
		t.Fatalf("interval (%v,%v) should contain 0.5", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Fatalf("interval too wide for n=100: %v", hi-lo)
	}
	lo, hi = WilsonInterval(100, 100, 1.96)
	if hi < 1-1e-9 {
		t.Fatalf("all successes upper bound = %v", hi)
	}
	if lo < 0.9 {
		t.Fatalf("all-successes lower bound too loose: %v", lo)
	}
}

func TestWilsonIntervalDomain(t *testing.T) {
	cases := []struct {
		name              string
		successes, trials int
		z                 float64
		wantLo, wantHi    float64
		exact             bool // compare exactly instead of by range
	}{
		{name: "successes above trials clamps to all-successes", successes: 150, trials: 100, z: 1.96},
		{name: "negative successes clamps to zero", successes: -7, trials: 100, z: 1.96},
		{name: "zero z degenerates to point", successes: 30, trials: 100, z: 0, wantLo: 0.3, wantHi: 0.3, exact: true},
		{name: "negative z degenerates to point", successes: 30, trials: 100, z: -2, wantLo: 0.3, wantHi: 0.3, exact: true},
		{name: "infinite z returns ignorance", successes: 30, trials: 100, z: math.Inf(1), wantLo: 0, wantHi: 1, exact: true},
		{name: "NaN z returns ignorance", successes: 30, trials: 100, z: math.NaN(), wantLo: 0, wantHi: 1, exact: true},
	}
	for _, c := range cases {
		lo, hi := WilsonInterval(c.successes, c.trials, c.z)
		if math.IsNaN(lo) || math.IsNaN(hi) {
			t.Errorf("%s: NaN bounds (%v, %v)", c.name, lo, hi)
			continue
		}
		if lo < 0 || hi > 1 || lo > hi {
			t.Errorf("%s: malformed interval (%v, %v)", c.name, lo, hi)
		}
		if c.exact && (lo != c.wantLo || hi != c.wantHi) {
			t.Errorf("%s: got (%v, %v), want (%v, %v)", c.name, lo, hi, c.wantLo, c.wantHi)
		}
	}

	// Clamped inputs agree exactly with their in-domain equivalents.
	lo1, hi1 := WilsonInterval(150, 100, 1.96)
	lo2, hi2 := WilsonInterval(100, 100, 1.96)
	if lo1 != lo2 || hi1 != hi2 {
		t.Errorf("over-clamp differs from all-successes: (%v,%v) vs (%v,%v)", lo1, hi1, lo2, hi2)
	}
	lo1, hi1 = WilsonInterval(-1, 100, 1.96)
	lo2, hi2 = WilsonInterval(0, 100, 1.96)
	if lo1 != lo2 || hi1 != hi2 {
		t.Errorf("under-clamp differs from zero-successes: (%v,%v) vs (%v,%v)", lo1, hi1, lo2, hi2)
	}
}

func TestPercentileNaNContract(t *testing.T) {
	// NaNs are stripped before ranking: the answer matches the clean
	// subset regardless of where the NaNs sat.
	clean := []float64{1, 2, 3, 4, 5}
	dirty := []float64{math.NaN(), 3, 1, math.NaN(), 5, 2, 4}
	for _, p := range []float64{0, 25, 50, 75, 100} {
		if got, want := Percentile(dirty, p), Percentile(clean, p); got != want {
			t.Errorf("Percentile(dirty, %v) = %v, want %v", p, got, want)
		}
	}
	if got := Median(dirty); got != 3 {
		t.Errorf("Median(dirty) = %v, want 3", got)
	}
	// All-NaN non-empty input has no rank to report.
	if got := Percentile([]float64{math.NaN(), math.NaN()}, 50); !math.IsNaN(got) {
		t.Errorf("all-NaN Percentile = %v, want NaN", got)
	}
	// NaN p has no rank either.
	if got := Percentile(clean, math.NaN()); !math.IsNaN(got) {
		t.Errorf("Percentile(xs, NaN) = %v, want NaN", got)
	}
	// Empty input keeps its documented 0.
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile(nil) != 0")
	}
}

func TestPercentileNeverGarbage(t *testing.T) {
	// Property: with at least one finite value present, the result is
	// always within the finite values' range — NaNs can't smuggle an
	// out-of-range answer through an undefined sort.
	f := func(raw []float64, p float64) bool {
		p = math.Mod(math.Abs(p), 120)
		xs := make([]float64, 0, len(raw)+2)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, x := range raw {
			if i%3 == 0 {
				xs = append(xs, math.NaN())
				continue
			}
			x = math.Mod(x, 1e6)
			if math.IsNaN(x) {
				x = 0
			}
			xs = append(xs, x)
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		got := Percentile(xs, p)
		if lo > hi { // no finite values made it in
			return len(xs) == 0 && got == 0 || math.IsNaN(got)
		}
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWilsonIntervalProperty(t *testing.T) {
	f := func(s, n uint16) bool {
		trials := int(n%1000) + 1
		successes := int(s) % (trials + 1)
		lo, hi := WilsonInterval(successes, trials, 1.96)
		p := float64(successes) / float64(trials)
		return lo >= 0 && hi <= 1 && lo <= p+1e-9 && hi >= p-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

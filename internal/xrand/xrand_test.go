package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("children with different labels produced identical first draw")
	}
	// Splitting must not advance the parent.
	p1 := New(7)
	_ = p1.Split(1)
	p2 := New(7)
	if p1.Uint64() != p2.Uint64() {
		t.Fatal("Split advanced parent state")
	}
}

func TestSplitSameLabelSameStream(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(9)
	c2 := parent.Split(9)
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatalf("same-label children diverged at draw %d", i)
		}
	}
}

func TestSplitString(t *testing.T) {
	parent := New(3)
	a := parent.SplitString("dgemm")
	b := parent.SplitString("lavamd")
	if a.Uint64() == b.Uint64() {
		t.Fatal("different string labels produced identical streams")
	}
	// Same label from the same parent state reproduces the stream.
	c := New(3).SplitString("dgemm")
	d := New(3).SplitString("dgemm")
	for i := 0; i < 50; i++ {
		if c.Uint64() != d.Uint64() {
			t.Fatalf("SplitString not reproducible at draw %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(13)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(17)
	seen := make(map[int]int)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v]++
	}
	for v := 0; v < 7; v++ {
		if seen[v] == 0 {
			t.Fatalf("Intn(7) never produced %d", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	r := New(19)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Uint64n(10)]++
	}
	for v, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-0.1) > 0.01 {
			t.Fatalf("Uint64n(10) bucket %d frequency %v, want ~0.1", v, frac)
		}
	}
}

func TestBool(t *testing.T) {
	r := New(23)
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) frequency %v", frac)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(29)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(31)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("exponential variate negative: %v", v)
		}
		sum += v
	}
	if math.Abs(sum/n-1) > 0.02 {
		t.Fatalf("exponential mean = %v", sum/n)
	}
}

func TestPoissonSmallMean(t *testing.T) {
	r := New(37)
	const mean = 3.5
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(r.Poisson(mean))
	}
	if math.Abs(sum/n-mean) > 0.05 {
		t.Fatalf("Poisson(%v) mean = %v", mean, sum/n)
	}
}

func TestPoissonLargeMean(t *testing.T) {
	r := New(41)
	const mean = 200.0
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(r.Poisson(mean))
	}
	if math.Abs(sum/n-mean) > 2 {
		t.Fatalf("Poisson(%v) mean = %v", mean, sum/n)
	}
}

func TestPoissonZeroMean(t *testing.T) {
	r := New(43)
	for i := 0; i < 100; i++ {
		if r.Poisson(0) != 0 {
			t.Fatal("Poisson(0) != 0")
		}
		if r.Poisson(-1) != 0 {
			t.Fatal("Poisson(-1) != 0")
		}
	}
}

func TestWeightedChoiceDistribution(t *testing.T) {
	r := New(53)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.WeightedChoice(weights)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight entry chosen %d times", counts[1])
	}
	frac0 := float64(counts[0]) / n
	if math.Abs(frac0-0.25) > 0.01 {
		t.Fatalf("weight-1 entry frequency %v, want ~0.25", frac0)
	}
}

func TestWeightedChoicePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WeightedChoice(nil) did not panic")
		}
	}()
	New(1).WeightedChoice(nil)
}

func TestWeightedChoicePanicsOnAllZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WeightedChoice all-zero did not panic")
		}
	}()
	New(1).WeightedChoice([]float64{0, 0})
}

func TestUint64nPropertyInRange(t *testing.T) {
	r := New(59)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := r.Uint64n(n)
		return v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"radcrit/internal/grid"
)

func TestRelativeErrorPct(t *testing.T) {
	cases := []struct {
		read, expected, want float64
	}{
		{10, 10, 0},
		{11, 10, 10},
		{9, 10, 10},
		{100, 10, 900}, // the paper's own example: 10x the expected -> 900%
		{-10, 10, 200},
		{0, 10, 100},
	}
	for _, c := range cases {
		if got := RelativeErrorPct(c.read, c.expected); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("RelativeErrorPct(%v,%v) = %v, want %v", c.read, c.expected, got, c.want)
		}
	}
}

func TestRelativeErrorZeroExpected(t *testing.T) {
	if RelativeErrorPct(0, 0) != 0 {
		t.Fatal("0 vs 0 should be 0")
	}
	if RelativeErrorPct(1e-300, 0) != InfiniteRelErr {
		t.Fatal("nonzero vs 0 should be infinite")
	}
}

func TestRelativeErrorNonFiniteRead(t *testing.T) {
	if RelativeErrorPct(math.NaN(), 5) != InfiniteRelErr {
		t.Fatal("NaN read should be maximal error")
	}
	if RelativeErrorPct(math.Inf(1), 5) != InfiniteRelErr {
		t.Fatal("Inf read should be maximal error")
	}
}

func TestRelativeErrorSymmetryProperty(t *testing.T) {
	f := func(e float64, deltaPct float64) bool {
		if e == 0 || math.IsNaN(e) || math.IsInf(e, 0) || math.Abs(e) > 1e300 {
			return true // read = e*(1+d) would overflow
		}
		d := math.Mod(math.Abs(deltaPct), 50)
		read := e * (1 + d/100)
		got := RelativeErrorPct(read, e)
		return math.Abs(got-d) < 1e-6 || d == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func makeReport(t *testing.T, side int, corrupt map[grid.Coord]float64) *Report {
	t.Helper()
	golden := grid.New2D(side, side)
	for i := range golden.Data() {
		golden.Data()[i] = 10
	}
	observed := golden.Clone()
	for c, v := range corrupt {
		observed.Set(c, v)
	}
	return Evaluate(golden, observed)
}

func TestEvaluateIdentical(t *testing.T) {
	g := grid.New2D(8, 8)
	for i := range g.Data() {
		g.Data()[i] = 3
	}
	r := Evaluate(g, g.Clone())
	if r.IsSDC() || r.Count() != 0 {
		t.Fatal("identical grids produced mismatches")
	}
	if r.Locality() != NoPattern {
		t.Fatal("no mismatch should be NoPattern")
	}
	if r.MeanRelErrPct(math.Inf(1)) != 0 {
		t.Fatal("MRE of clean run not 0")
	}
}

func TestEvaluateCountsAndCoords(t *testing.T) {
	r := makeReport(t, 4, map[grid.Coord]float64{
		{X: 1, Y: 2}: 20,
		{X: 3, Y: 0}: 5,
	})
	if r.Count() != 2 {
		t.Fatalf("Count = %d", r.Count())
	}
	if r.TotalElements != 16 {
		t.Fatalf("TotalElements = %d", r.TotalElements)
	}
	if math.Abs(r.CorruptedFraction()-2.0/16.0) > 1e-12 {
		t.Fatalf("CorruptedFraction = %v", r.CorruptedFraction())
	}
}

func TestEvaluatePanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	Evaluate(grid.New2D(2, 2), grid.New2D(2, 3))
}

func TestMeanRelErrCapping(t *testing.T) {
	r := makeReport(t, 4, map[grid.Coord]float64{
		{X: 0, Y: 0}: 11,    // 10%
		{X: 1, Y: 1}: 10000, // 99900%
	})
	uncapped := r.MeanRelErrPct(math.Inf(1))
	if math.Abs(uncapped-(10+99900)/2) > 1e-6 {
		t.Fatalf("uncapped MRE = %v", uncapped)
	}
	capped := r.MeanRelErrPct(100)
	if math.Abs(capped-(10+100)/2) > 1e-6 {
		t.Fatalf("capped MRE = %v", capped)
	}
}

func TestMinMaxRelErr(t *testing.T) {
	r := makeReport(t, 4, map[grid.Coord]float64{
		{X: 0, Y: 0}: 10.1, // 1%
		{X: 1, Y: 1}: 15,   // 50%
	})
	if math.Abs(r.MaxRelErrPct()-50) > 1e-9 {
		t.Fatalf("MaxRelErrPct = %v", r.MaxRelErrPct())
	}
	empty := makeReport(t, 4, nil)
	if empty.MaxRelErrPct() != 0 {
		t.Fatal("empty report max should be 0")
	}
}

func TestFilterRemovesSmallErrors(t *testing.T) {
	r := makeReport(t, 4, map[grid.Coord]float64{
		{X: 0, Y: 0}: 10.1, // 1% — filtered at 2%
		{X: 1, Y: 1}: 15,   // 50% — kept
	})
	f := r.Filter(DefaultThresholdPct)
	if f.Count() != 1 {
		t.Fatalf("filtered count = %d", f.Count())
	}
	if f.Mismatches[0].RelErrPct != 50 {
		t.Fatal("kept the wrong mismatch")
	}
	if f.ThresholdPct != 2 {
		t.Fatal("threshold not recorded")
	}
	// Original must be untouched.
	if r.Count() != 2 {
		t.Fatal("Filter mutated the receiver")
	}
}

func TestFilterCanClearSDC(t *testing.T) {
	r := makeReport(t, 4, map[grid.Coord]float64{
		{X: 0, Y: 0}: 10.05, // 0.5%
	})
	if !r.IsSDC() {
		t.Fatal("unfiltered run should be SDC")
	}
	if r.Filter(2).IsSDC() {
		t.Fatal("2% filter should clear this SDC (paper: executions with no mismatch left are removed)")
	}
}

func TestFilterBoundaryIsExclusive(t *testing.T) {
	// "mismatches with relative errors greater than 2%": exactly 2% is dropped.
	r := makeReport(t, 4, map[grid.Coord]float64{
		{X: 0, Y: 0}: 10.2, // exactly 2%
	})
	if got := r.Filter(2).Count(); got != 0 {
		t.Fatalf("exactly-threshold mismatch kept: %d", got)
	}
}

func TestFilterThresholdMonotonicProperty(t *testing.T) {
	r := makeReport(t, 8, map[grid.Coord]float64{
		{X: 0, Y: 0}: 10.05,
		{X: 1, Y: 0}: 10.3,
		{X: 2, Y: 0}: 11,
		{X: 3, Y: 0}: 13,
		{X: 4, Y: 0}: 20,
		{X: 5, Y: 0}: 100,
	})
	f := func(a, b float64) bool {
		ta := math.Mod(math.Abs(a), 200)
		tb := math.Mod(math.Abs(b), 200)
		if ta > tb {
			ta, tb = tb, ta
		}
		return r.Filter(tb).Count() <= r.Filter(ta).Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

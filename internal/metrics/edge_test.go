package metrics

import (
	"testing"
	"testing/quick"

	"radcrit/internal/grid"
)

func TestFilterPreservesShape(t *testing.T) {
	r := makeReport(t, 8, map[grid.Coord]float64{
		{X: 0, Y: 0}: 10.05,
		{X: 3, Y: 4}: 20,
	})
	f := r.Filter(2)
	if f.Dims != r.Dims || f.TotalElements != r.TotalElements {
		t.Fatal("filter must preserve output shape metadata")
	}
}

func TestFilterIdempotentProperty(t *testing.T) {
	r := makeReport(t, 8, map[grid.Coord]float64{
		{X: 0, Y: 0}: 10.05,
		{X: 1, Y: 0}: 11,
		{X: 2, Y: 0}: 15,
		{X: 3, Y: 0}: 100,
	})
	f := func(raw uint8) bool {
		th := float64(raw) / 4
		once := r.Filter(th)
		twice := once.Filter(th)
		return once.Count() == twice.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFullGridCorruptionIsSquare(t *testing.T) {
	// CLAMR frequently floods the whole mesh: that must classify as
	// square (structured 2D spread), never random.
	golden := grid.New2D(16, 16)
	for i := range golden.Data() {
		golden.Data()[i] = 5
	}
	observed := golden.Clone()
	for i := range observed.Data() {
		observed.Data()[i] = 6
	}
	rep := Evaluate(golden, observed)
	if rep.Count() != 256 {
		t.Fatal("full corruption expected")
	}
	if rep.Locality() != Square {
		t.Fatalf("full-grid corruption = %v, want square", rep.Locality())
	}
}

func TestTwoElementsSameRowIsLine(t *testing.T) {
	// The minimal multi-element patterns at the classification boundary.
	dims := grid.Dims{X: 8, Y: 8, Z: 1}
	if got := classifyCoords(dims, []grid.Coord{{X: 1, Y: 3}, {X: 5, Y: 3}}); got != Line {
		t.Fatalf("two in a row = %v", got)
	}
	if got := classifyCoords(dims, []grid.Coord{{X: 1, Y: 3}, {X: 5, Y: 4}}); got != Random {
		t.Fatalf("two sharing nothing = %v", got)
	}
}

func TestDuplicateCoordinatesDoNotCrash(t *testing.T) {
	dims := grid.Dims{X: 8, Y: 8, Z: 1}
	coords := []grid.Coord{{X: 1, Y: 1}, {X: 1, Y: 1}, {X: 1, Y: 1}}
	// Duplicates share every axis: a degenerate single-position set.
	if got := classifyCoords(dims, coords); got != Single {
		t.Fatalf("duplicated coordinate set = %v, want single", got)
	}
}

package metrics

import (
	"testing"
	"testing/quick"

	"radcrit/internal/grid"
	"radcrit/internal/xrand"
)

var dims2D = grid.Dims{X: 16, Y: 16, Z: 1}
var dims3D = grid.Dims{X: 8, Y: 8, Z: 8}

func TestClassifyEmptyAndSingle(t *testing.T) {
	if classifyCoords(dims2D, nil) != NoPattern {
		t.Fatal("empty should be NoPattern")
	}
	if classifyCoords(dims2D, []grid.Coord{{X: 3, Y: 4}}) != Single {
		t.Fatal("one element should be Single")
	}
}

func TestClassifyRow(t *testing.T) {
	coords := []grid.Coord{{X: 0, Y: 5}, {X: 3, Y: 5}, {X: 9, Y: 5}}
	if got := classifyCoords(dims2D, coords); got != Line {
		t.Fatalf("row = %v, want line", got)
	}
}

func TestClassifyColumn(t *testing.T) {
	coords := []grid.Coord{{X: 7, Y: 0}, {X: 7, Y: 1}, {X: 7, Y: 15}}
	if got := classifyCoords(dims2D, coords); got != Line {
		t.Fatalf("column = %v, want line", got)
	}
}

func TestClassify3DLine(t *testing.T) {
	coords := []grid.Coord{{X: 1, Y: 2, Z: 3}, {X: 1, Y: 2, Z: 5}}
	if got := classifyCoords(dims3D, coords); got != Line {
		t.Fatalf("z-line = %v, want line", got)
	}
}

func TestClassifySquareBlock(t *testing.T) {
	// A 2x2 block shares rows and columns among its members.
	coords := []grid.Coord{
		{X: 2, Y: 2}, {X: 3, Y: 2},
		{X: 2, Y: 3}, {X: 3, Y: 3},
	}
	if got := classifyCoords(dims2D, coords); got != Square {
		t.Fatalf("block = %v, want square", got)
	}
}

func TestClassifyRandomScatter(t *testing.T) {
	// No two elements share a row or a column: a permutation-like scatter.
	coords := []grid.Coord{
		{X: 1, Y: 4}, {X: 5, Y: 9}, {X: 12, Y: 2},
	}
	if got := classifyCoords(dims2D, coords); got != Random {
		t.Fatalf("scatter = %v, want random", got)
	}
}

func TestClassifyLShapeIsSquare(t *testing.T) {
	// Two on one row plus one sharing a column: structured, spans 2 axes.
	coords := []grid.Coord{
		{X: 2, Y: 2}, {X: 5, Y: 2}, {X: 2, Y: 8},
	}
	if got := classifyCoords(dims2D, coords); got != Square {
		t.Fatalf("L shape = %v, want square", got)
	}
}

func TestClassifyCubic(t *testing.T) {
	coords := []grid.Coord{
		{X: 1, Y: 1, Z: 1}, {X: 2, Y: 1, Z: 1},
		{X: 1, Y: 2, Z: 1}, {X: 1, Y: 1, Z: 2},
	}
	if got := classifyCoords(dims3D, coords); got != Cubic {
		t.Fatalf("3D cluster = %v, want cubic", got)
	}
}

func TestClassify3DRandom(t *testing.T) {
	coords := []grid.Coord{
		{X: 1, Y: 2, Z: 3}, {X: 4, Y: 5, Z: 6}, {X: 7, Y: 0, Z: 1},
	}
	if got := classifyCoords(dims3D, coords); got != Random {
		t.Fatalf("3D scatter = %v, want random", got)
	}
}

func TestClassify3DPlaneIsSquare(t *testing.T) {
	// All in the z=2 plane, sharing structure over x and y.
	coords := []grid.Coord{
		{X: 1, Y: 1, Z: 2}, {X: 2, Y: 1, Z: 2}, {X: 1, Y: 3, Z: 2}, {X: 2, Y: 3, Z: 2},
	}
	if got := classifyCoords(dims3D, coords); got != Square {
		t.Fatalf("plane = %v, want square", got)
	}
}

func TestClassifyFullRow2D(t *testing.T) {
	var coords []grid.Coord
	for x := 0; x < dims2D.X; x++ {
		coords = append(coords, grid.Coord{X: x, Y: 3})
	}
	if got := classifyCoords(dims2D, coords); got != Line {
		t.Fatalf("full row = %v", got)
	}
}

func TestClassifyLargeRegionIsSquare(t *testing.T) {
	// Dense sub-block bigger than any row: must be square, not random.
	var coords []grid.Coord
	for y := 4; y < 10; y++ {
		for x := 4; x < 10; x++ {
			coords = append(coords, grid.Coord{X: x, Y: y})
		}
	}
	if got := classifyCoords(dims2D, coords); got != Square {
		t.Fatalf("region = %v, want square", got)
	}
}

func TestPatternString(t *testing.T) {
	for _, p := range []Pattern{NoPattern, Single, Line, Square, Cubic, Random, Pattern(42)} {
		if p.String() == "" {
			t.Fatalf("empty name for %d", p)
		}
	}
}

func TestPatternsListCoversErrorPatterns(t *testing.T) {
	want := map[Pattern]bool{Cubic: true, Square: true, Line: true, Single: true, Random: true}
	for _, p := range Patterns {
		delete(want, p)
	}
	if len(want) != 0 {
		t.Fatalf("Patterns missing %v", want)
	}
}

// Property: classification is permutation-invariant.
func TestClassifyOrderInvariant(t *testing.T) {
	rng := xrand.New(99)
	f := func(seed uint64) bool {
		r := rng.Split(seed)
		n := 2 + r.Intn(12)
		coords := make([]grid.Coord, n)
		for i := range coords {
			coords[i] = grid.Coord{X: r.Intn(8), Y: r.Intn(8), Z: r.Intn(8)}
		}
		base := classifyCoords(dims3D, coords)
		shuffled := make([]grid.Coord, n)
		copy(shuffled, coords)
		shuffle(r, n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		return classifyCoords(dims3D, shuffled) == base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: 2D coords never classify as cubic.
func TestClassify2DNeverCubic(t *testing.T) {
	rng := xrand.New(100)
	f := func(seed uint64) bool {
		r := rng.Split(seed)
		n := 1 + r.Intn(20)
		coords := make([]grid.Coord, n)
		for i := range coords {
			coords[i] = grid.Coord{X: r.Intn(16), Y: r.Intn(16)}
		}
		return classifyCoords(dims2D, coords) != Cubic
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// shuffle permutes n elements through swap, Fisher-Yates over r.
func shuffle(r *xrand.RNG, n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

package metrics

import (
	"math"
	"testing"

	"radcrit/internal/grid"
	"radcrit/internal/xrand"
)

// classifyOracle is the map-based classifier the streaming summary used
// before classify replaced it, frozen verbatim as a test oracle (only the
// name changed). It counts each axis's distinct positions with a map, so
// it is a second, independent implementation of the same decision
// procedure. Do not share code with classify.
func classifyOracle(dims grid.Dims, coords []grid.Coord) Pattern {
	switch len(coords) {
	case 0:
		return NoPattern
	case 1:
		return Single
	}

	distinctX := distinctCount(coords, func(c grid.Coord) int { return c.X })
	distinctY := distinctCount(coords, func(c grid.Coord) int { return c.Y })
	distinctZ := distinctCount(coords, func(c grid.Coord) int { return c.Z })

	varying := 0
	for _, d := range []int{distinctX, distinctY, distinctZ} {
		if d > 1 {
			varying++
		}
	}

	switch varying {
	case 0:
		// All coordinates identical yet len > 1 cannot happen for a set of
		// distinct mismatch positions; defensively call it Single.
		return Single
	case 1:
		return Line
	}

	// Spread over 2 or 3 axes: distinguish structured (square/cubic) from
	// random scatter. A scatter is random when no axis position repeats:
	// every varying axis has as many distinct values as elements.
	n := len(coords)
	isRandom := true
	if distinctX > 1 && distinctX < n {
		isRandom = false
	}
	if distinctY > 1 && distinctY < n {
		isRandom = false
	}
	if distinctZ > 1 && distinctZ < n {
		isRandom = false
	}
	if isRandom {
		return Random
	}
	if varying == 2 {
		return Square
	}
	return Cubic
}

func distinctCount(coords []grid.Coord, axis func(grid.Coord) int) int {
	seen := make(map[int]struct{}, len(coords))
	for _, c := range coords {
		seen[axis(c)] = struct{}{}
	}
	return len(seen)
}

// classifyCoords classifies a bare coordinate set through Report.Locality.
func classifyCoords(dims grid.Dims, coords []grid.Coord) Pattern {
	r := &Report{Dims: dims, TotalElements: dims.Len()}
	for _, c := range coords {
		r.Mismatches = append(r.Mismatches, Mismatch{Coord: c, RelErrPct: 100})
	}
	return r.Locality()
}

// fuzzCoords draws n coordinates from base + [0, span[a]] on each axis a.
// Bit a of mode makes axis a's positions distinct (evenly strided over
// the range when it can hold n, else drawn at random); bit 3 copies the
// first coordinate over a later one. Positions wrap around int64 freely,
// so bases near the integer limits give ranges that span the sign bit.
func fuzzCoords(seed uint64, n int, span [3]uint64, base int64, mode uint8) []grid.Coord {
	r := xrand.New(seed)
	coords := make([]grid.Coord, n)
	for a, s := range span {
		stride := uint64(0)
		if mode&(1<<a) != 0 && n > 1 && s >= uint64(n-1) {
			stride = s / uint64(n-1)
		}
		for i := range coords {
			off := uint64(i) * stride
			if stride == 0 {
				off = r.Uint64()
				if s < math.MaxUint64 {
					off = r.Uint64n(s + 1)
				}
			}
			pos := int(uint64(base) + off)
			switch a {
			case 0:
				coords[i].X = pos
			case 1:
				coords[i].Y = pos
			case 2:
				coords[i].Z = pos
			}
		}
	}
	shuffle(r, n, func(i, j int) { coords[i], coords[j] = coords[j], coords[i] })
	if mode&8 != 0 && n > 1 {
		coords[1+r.Intn(n-1)] = coords[0]
	}
	return coords
}

// FuzzClassifyMatchesOracle holds Report.Locality and LocalityAbove to
// the frozen map-based classifier on generated coordinate sets:
// duplicates, negative and out-of-shape positions, one to three varying
// axes, element counts at and around each axis's range (the pigeonhole
// edge), ranges just inside and just past the stack bitset's width, and
// ranges far too sparse for any bitset. Each mismatch draws its relative error from a set that
// straddles the threshold, so the filtered path is compared too.
func FuzzClassifyMatchesOracle(f *testing.F) {
	type seedCase struct {
		n          uint16
		sx, sy, sz uint64
		base       int64
		mode       uint8
		th         float64
	}
	for i, c := range []seedCase{
		{0, 4, 4, 0, 0, 0, 2},
		{1, 4, 4, 0, 0, 0, 2},
		{5, 9, 0, 0, 3, 1, 2},                // one varying axis
		{16, 15, 15, 0, 0, 3, 0},             // n == range on both axes: random
		{17, 15, 15, 0, 0, 3, 0},             // n == range+1: pigeonhole
		{15, 15, 15, 0, 0, 3, 2},             // n == range-1
		{64, 63, 63, 63, 0, 7, 2},            // three distinct axes at the edge
		{65, 63, 63, 63, 0, 7, 2},            // three axes past the edge
		{40, 7, 7, 7, 0, 0, 2},               // cubic, random draws
		{30, 100, 100, 0, -50, 3 | 8, 2},     // duplicate, negative positions
		{900, 4095, 4095, 0, 0, 3, 1},        // widest bitset range
		{900, 4096, 4096, 0, 0, 3, 1},        // narrowest sorted range
		{900, 6000, 6000, 5, 0, 3 | 8, 5},    // sorted, duplicate
		{200, 1 << 40, 1 << 40, 0, -1, 3, 2}, // too sparse for a bitset
		{50, 1 << 62, 100, 3, math.MaxInt64 - 5, 1, 0},
		{300, math.MaxUint64, math.MaxUint64, 0, math.MinInt64, 3, 2},
		{8, 3, 3, 0, 1 << 20, 0, math.NaN()},
		{8, 3, 3, 0, 20, 3, -1},
	} {
		f.Add(uint64(i+1), c.n, c.sx, c.sy, c.sz, c.base, c.mode, c.th)
	}
	errs := []float64{0, 1, 2, 2.5, 50, InfiniteRelErr, math.NaN()}
	dims := grid.Dims{X: 16, Y: 16, Z: 4}
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, sx, sy, sz uint64, base int64, mode uint8, th float64) {
		coords := fuzzCoords(seed, int(n%2048), [3]uint64{sx, sy, sz}, base, mode)
		r := xrand.New(^seed)
		rep := &Report{Dims: dims, TotalElements: dims.Len()}
		var kept []grid.Coord
		for _, c := range coords {
			e := errs[r.Intn(len(errs))]
			rep.Mismatches = append(rep.Mismatches, Mismatch{Coord: c, RelErrPct: e})
			if e > th {
				kept = append(kept, c)
			}
		}
		if got, want := rep.Locality(), classifyOracle(dims, coords); got != want {
			t.Fatalf("Locality = %v, oracle %v (n %d)", got, want, len(coords))
		}
		if got, want := rep.LocalityAbove(th), classifyOracle(dims, kept); got != want {
			t.Fatalf("LocalityAbove(%v) = %v, oracle %v (%d of %d kept)", th, got, want, len(kept), len(coords))
		}
	})
}

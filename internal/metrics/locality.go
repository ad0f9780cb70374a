package metrics

import (
	"slices"

	"radcrit/internal/grid"
)

// Pattern is the spatial-locality class of a set of corrupted elements
// (paper §III). "When several elements are corrupted, but they do not share
// the same position in one of the axis, they are tagged as random errors.
// When the corrupted elements share one, two, or three dimensions of the
// axis we classify them as line, square, or cubic respectively."
type Pattern int

const (
	// NoPattern means no corrupted elements (masked execution).
	NoPattern Pattern = iota
	// Single is exactly one corrupted element.
	Single
	// Line is multiple corrupted elements varying along exactly one axis.
	Line
	// Square is multiple corrupted elements spreading over two axes.
	Square
	// Cubic is multiple corrupted elements spreading over three axes.
	Cubic
	// Random is multiple corrupted elements where no two elements share a
	// position on any axis — an unstructured scatter.
	Random
)

// String returns the pattern name as used in the paper's figures.
func (p Pattern) String() string {
	switch p {
	case NoPattern:
		return "none"
	case Single:
		return "single"
	case Line:
		return "line"
	case Square:
		return "square"
	case Cubic:
		return "cubic"
	case Random:
		return "random"
	default:
		return "unknown"
	}
}

// Patterns lists all error-producing patterns in figure order.
var Patterns = []Pattern{Cubic, Square, Line, Single, Random}

// classify returns the spatial-locality class of the mismatches whose
// relative error exceeds t (of every mismatch when all is set). It reads
// the mismatches in place.
//
// The decision procedure, matching the paper's prose:
//
//   - 0 elements → NoPattern; 1 element → Single.
//   - If the elements vary along exactly one axis they form a Line.
//   - Otherwise, if no two elements share a position on any varying axis,
//     the scatter is Random.
//   - Otherwise the elements share axis positions while spreading over two
//     (Square) or three (Cubic) axes.
//
// One pass finds each axis's position range, which settles every case up
// to the repeat question. An axis with more elements than positions in
// its range must repeat one (pigeonhole), which answers it for large
// structured sets; otherwise a bitset over the range does, stopping at
// the first repeat. The bitset lives on the stack and covers ranges up
// to stackBits positions; a wider range is sorted instead.
func classify(ms []Mismatch, t float64, all bool) Pattern {
	n := 0
	var lo, hi [3]int
	for i := range ms {
		if !all && !(ms[i].RelErrPct > t) {
			continue
		}
		c := axes(ms[i].Coord)
		if n == 0 {
			lo, hi = c, c
		}
		for a := range c {
			lo[a] = min(lo[a], c[a])
			hi[a] = max(hi[a], c[a])
		}
		n++
	}
	switch n {
	case 0:
		return NoPattern
	case 1:
		return Single
	}

	// span[a] is axis a's range minus one; the unsigned difference is
	// exact for any pair of ints.
	var span [3]uint64
	varying := 0
	for a := range span {
		span[a] = uint64(hi[a]) - uint64(lo[a])
		if span[a] > 0 {
			varying++
		}
	}
	switch varying {
	case 0:
		// All coordinates identical yet n > 1 cannot happen for a set of
		// distinct mismatch positions; defensively call it Single.
		return Single
	case 1:
		return Line
	}

	structured := Cubic
	if varying == 2 {
		structured = Square
	}
	for a := range span {
		if span[a] > 0 && uint64(n-1) > span[a] {
			return structured
		}
	}
	for a := range span {
		if span[a] > 0 && repeats(ms, t, all, a, lo[a], span[a], n) {
			return structured
		}
	}
	return Random
}

// stackBits is the widest axis range repeats checks with a bitset.
const stackBits = 4096

// repeats reports whether two of the n selected mismatches share a
// position on axis a, whose positions lie in [lo, lo+span].
func repeats(ms []Mismatch, t float64, all bool, a, lo int, span uint64, n int) bool {
	if span >= stackBits {
		// Sparse sets on paper-scale inputs (DGEMM 8192) and the
		// out-of-shape coordinates a damaged replayed log could carry get
		// here; no benchmark workload has an axis this wide.
		return repeatsSorted(ms, t, all, a, n)
	}
	var bits [stackBits / 64]uint64
	for i := range ms {
		if !all && !(ms[i].RelErrPct > t) {
			continue
		}
		off := uint64(axes(ms[i].Coord)[a]) - uint64(lo)
		w, bit := off/64, uint64(1)<<(off%64)
		if bits[w]&bit != 0 {
			return true
		}
		bits[w] |= bit
	}
	return false
}

// repeatsSorted is repeats for ranges wider than stackBits.
func repeatsSorted(ms []Mismatch, t float64, all bool, a, n int) bool {
	pos := make([]int, 0, n)
	for i := range ms {
		if all || ms[i].RelErrPct > t {
			pos = append(pos, axes(ms[i].Coord)[a])
		}
	}
	slices.Sort(pos)
	for i := 1; i < len(pos); i++ {
		if pos[i] == pos[i-1] {
			return true
		}
	}
	return false
}

// axes returns c's positions indexed by axis.
func axes(c grid.Coord) [3]int { return [3]int{c.X, c.Y, c.Z} }

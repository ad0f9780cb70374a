// Package abft implements Algorithm-Based Fault Tolerance for matrix
// multiplication (Huang & Abraham [20], tuned for GPUs in [33]): row and
// column checksums computed alongside C = A x B locate and correct
// radiation-induced errors after the fact.
//
// Single and line errors are corrected in linear time; square and random
// patterns are detected but not correctable (§III, §V-A) — which is
// precisely why the paper's spatial-locality metric matters: it predicts
// how much of a device's error rate ABFT can remove (60-80% on the K40,
// 20-40% on the Xeon Phi).
package abft

import (
	"math"

	"radcrit/internal/grid"
	"radcrit/internal/metrics"
)

// DefaultTolerance is the checksum comparison tolerance, absorbing the
// floating-point non-associativity between the checksum path and the data
// path.
const DefaultTolerance = 1e-6

// Checksummed is a matrix product carrying Huang-Abraham checksums.
type Checksummed struct {
	// C is the product matrix (possibly corrupted in flight).
	C *grid.Grid
	// RowSum[i] is the checksum of row i computed from A's row checksum
	// path (golden by construction: checksums travel separately).
	RowSum []float64
	// ColSum[j] is the checksum of column j.
	ColSum []float64
}

// Multiply computes C = A x B with checksums. A and B must be square and
// equally sized (the benchmark's configuration).
func Multiply(a, b *grid.Grid) *Checksummed {
	n := a.Dims().X
	if a.Dims() != b.Dims() || a.Dims().Y != n {
		panic("abft: Multiply requires equal square matrices")
	}
	c := grid.New2D(n, n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			av := a.At2(k, i)
			for j := 0; j < n; j++ {
				c.Set2(j, i, c.At2(j, i)+av*b.At2(j, k))
			}
		}
	}
	cs := &Checksummed{C: c, RowSum: make([]float64, n), ColSum: make([]float64, n)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := c.At2(j, i)
			cs.RowSum[i] += v
			cs.ColSum[j] += v
		}
	}
	return cs
}

// Attach builds checksums for an existing (trusted) product, e.g. a golden
// output; corruption applied to C afterwards is then auditable.
func Attach(c *grid.Grid) *Checksummed {
	n := c.Dims().X
	cs := &Checksummed{C: c.Clone(), RowSum: make([]float64, n), ColSum: make([]float64, n)}
	for i := 0; i < c.Dims().Y; i++ {
		for j := 0; j < n; j++ {
			v := c.At2(j, i)
			cs.RowSum[i] += v
			cs.ColSum[j] += v
		}
	}
	return cs
}

// AuditResult summarises a checksum audit.
type AuditResult struct {
	// Detected reports whether any checksum mismatch was found.
	Detected bool
	// Corrected is the number of elements repaired in place.
	Corrected int
	// Uncorrectable reports whether residual errors remain (square or
	// random patterns that checksums cannot localise).
	Uncorrectable bool
}

// Audit verifies the checksums against C, corrects single and line errors
// in place, and reports the result. tol <= 0 selects DefaultTolerance.
func (cs *Checksummed) Audit(tol float64) AuditResult {
	if tol <= 0 {
		tol = DefaultTolerance
	}
	n := cs.C.Dims().X
	rows := cs.C.Dims().Y

	rowRes := make([]float64, rows)
	colRes := make([]float64, n)
	var badRows, badCols []int
	for i := 0; i < rows; i++ {
		var s float64
		for j := 0; j < n; j++ {
			s += cs.C.At2(j, i)
		}
		rowRes[i] = cs.RowSum[i] - s
		if relevant(rowRes[i], cs.RowSum[i], tol) {
			badRows = append(badRows, i)
		}
	}
	for j := 0; j < n; j++ {
		var s float64
		for i := 0; i < rows; i++ {
			s += cs.C.At2(j, i)
		}
		colRes[j] = cs.ColSum[j] - s
		if relevant(colRes[j], cs.ColSum[j], tol) {
			badCols = append(badCols, j)
		}
	}

	res := AuditResult{Detected: len(badRows) > 0 || len(badCols) > 0}
	switch {
	case !res.Detected:
		return res
	case len(badRows) == 1:
		// One corrupted row: each bad column's residual is that element's
		// delta (single errors are the one-bad-column case).
		i := badRows[0]
		for _, j := range badCols {
			cs.C.Set2(j, i, cs.C.At2(j, i)+colRes[j])
			res.Corrected++
		}
	case len(badCols) == 1:
		// One corrupted column: symmetric correction from row residuals.
		j := badCols[0]
		for _, i := range badRows {
			cs.C.Set2(j, i, cs.C.At2(j, i)+rowRes[i])
			res.Corrected++
		}
	default:
		// Square/random: residuals cannot localise individual elements.
		res.Uncorrectable = true
	}
	return res
}

func relevant(residual, reference, tol float64) bool {
	return math.Abs(residual) > tol*math.Max(1, math.Abs(reference))
}

// PatternCorrectable reports whether ABFT can correct a given spatial
// pattern (§III: "ABFT DGEMM can detect and correct single and line errors
// but not square errors").
func PatternCorrectable(p metrics.Pattern) bool {
	return p == metrics.Single || p == metrics.Line
}

// Coverage is the outcome of applying ABFT across a set of SDC reports.
type Coverage struct {
	Total        int
	Correctable  int
	DetectOnly   int
	CleanOrNoSDC int
}

// Add classifies one report's locality against ABFT's correction
// capability, accumulating online so a streaming campaign can evaluate
// coverage without retaining reports.
func (c *Coverage) Add(r *metrics.Report) {
	c.Total++
	switch {
	case r.Count() == 0:
		c.CleanOrNoSDC++
	case PatternCorrectable(r.Locality()):
		c.Correctable++
	default:
		c.DetectOnly++
	}
}

// CorrectableFraction returns the fraction of error-bearing reports ABFT
// repairs.
func (c Coverage) CorrectableFraction() float64 {
	errs := c.Correctable + c.DetectOnly
	if errs == 0 {
		return 0
	}
	return float64(c.Correctable) / float64(errs)
}

// Package metrics implements the paper's error-criticality metrics (§III):
//
//  1. number of incorrect elements — how many output elements differ from
//     the fault-free ("golden") output;
//  2. relative error — |read-expected| / |expected| × 100 per element;
//  3. mean relative error — the average of (2) over all corrupted elements
//     of one execution;
//  4. spatial locality — the geometric pattern of the corrupted elements
//     (single, line, square, cubic, or random).
//
// The relative-error threshold filter (default 2%, §III) removes mismatches
// that an imprecise-computing consumer would accept as correct; executions
// with no mismatch left after filtering are no longer counted as SDCs.
package metrics

import (
	"math"
	"slices"
	"sync"

	"radcrit/internal/grid"
)

// DefaultThresholdPct is the paper's conservative relative-error filter.
const DefaultThresholdPct = 2.0

// InfiniteRelErr is the relative error assigned when the expected value is
// exactly zero but the read value is not: the discrepancy cannot be
// expressed as a percentage, so it is treated as larger than any threshold.
const InfiniteRelErr = math.MaxFloat64

// RelativeErrorPct returns |read-expected|/|expected| in percent.
// If expected is 0 and read is not, it returns InfiniteRelErr.
// NaN or infinite reads are treated as maximally wrong.
func RelativeErrorPct(read, expected float64) float64 {
	if read == expected {
		return 0
	}
	if math.IsNaN(read) || math.IsInf(read, 0) {
		return InfiniteRelErr
	}
	if expected == 0 {
		return InfiniteRelErr
	}
	return math.Abs(read-expected) / math.Abs(expected) * 100
}

// Mismatch is one corrupted output element.
type Mismatch struct {
	Coord     grid.Coord
	Read      float64
	Expected  float64
	RelErrPct float64
}

// Report holds the criticality metrics of one execution's output against
// its golden output.
//
// Reports are cheap to recycle: a campaign session borrows them from a
// ReportPool, and Reset returns one to its empty state while keeping the
// mismatch slice's capacity.
type Report struct {
	// Dims is the shape of the compared output.
	Dims grid.Dims
	// TotalElements is the number of output elements compared.
	TotalElements int
	// Mismatches lists every corrupted element. Builders append here
	// directly.
	Mismatches []Mismatch
	// ThresholdPct is the relative-error filter already applied to
	// Mismatches (0 means unfiltered).
	ThresholdPct float64
	// Detected is whether the kernel's own error detector (CLAMR's mass
	// check, §V-D) fired on this execution; kernels without a detector
	// leave it false. It is an in-memory verdict for reducers: logs,
	// summaries and cell keys never carry it.
	Detected bool
}

// Reset returns the report to its empty state, retaining the mismatch
// slice's capacity for reuse. Any slice previously read from Mismatches
// becomes invalid.
func (r *Report) Reset() {
	r.Dims = grid.Dims{}
	r.TotalElements = 0
	r.Mismatches = r.Mismatches[:0]
	r.ThresholdPct = 0
	r.Detected = false
}

// Clone returns a deep copy of the report whose lifetime is independent of
// the receiver — the escape hatch for consumers that retain reports past a
// pooled report's release (e.g. the batch campaign engine's result sink).
func (r *Report) Clone() *Report {
	out := &Report{
		Dims:          r.Dims,
		TotalElements: r.TotalElements,
		ThresholdPct:  r.ThresholdPct,
		Detected:      r.Detected,
	}
	if len(r.Mismatches) > 0 {
		out.Mismatches = append(make([]Mismatch, 0, len(r.Mismatches)), r.Mismatches...)
	}
	return out
}

// ReportPool recycles Reports across the strikes of a campaign session so
// the hot path stops allocating one report (plus its mismatch slice) per
// execution. A nil *ReportPool is valid and degrades to plain allocation,
// which is how the unpooled compat paths run. Safe for concurrent use.
//
// Ownership contract (DESIGN.md §8): Get transfers ownership to the
// caller; Put takes it back and must only be called once no reference to
// the report — including its Mismatches backing array — can be used again.
// Callers that need to retain a pooled report Clone it instead.
type ReportPool struct {
	pool sync.Pool
}

// Get borrows an empty report shaped (dims, totalElements).
func (p *ReportPool) Get(dims grid.Dims, totalElements int) *Report {
	if p == nil {
		return &Report{Dims: dims, TotalElements: totalElements}
	}
	r, ok := p.pool.Get().(*Report)
	if !ok {
		r = &Report{}
	}
	r.Dims = dims
	r.TotalElements = totalElements
	return r
}

// Put resets r and returns it to the pool. Nil pools and nil reports are
// no-ops, so release paths need no guards.
func (p *ReportPool) Put(r *Report) {
	if p == nil || r == nil {
		return
	}
	r.Reset()
	p.pool.Put(r)
}

// Reserve makes room for n more mismatches, for builders that know their
// count before appending. A recycled report whose array is more than four
// times (plus 64 entries) larger than it needs gets a right-sized one
// instead: otherwise each pooled report keeps the largest array any strike
// it served ever needed, however small the strikes it now serves.
func (r *Report) Reserve(n int) {
	need := len(r.Mismatches) + n
	if cap(r.Mismatches) > 4*need+64 {
		r.Mismatches = append(make([]Mismatch, 0, need), r.Mismatches...)
		return
	}
	r.Mismatches = slices.Grow(r.Mismatches, n)
}

// Evaluate compares observed against golden and returns the unfiltered
// report. It panics if the shapes differ — comparing different experiments
// is a caller bug, not a data condition.
func Evaluate(golden, observed *grid.Grid) *Report {
	if golden.Dims() != observed.Dims() {
		panic("metrics: Evaluate on grids of different shapes")
	}
	r := &Report{Dims: golden.Dims(), TotalElements: golden.Len()}
	gd, od := golden.Data(), observed.Data()
	for i := range gd {
		if gd[i] == od[i] {
			continue
		}
		r.Mismatches = append(r.Mismatches, Mismatch{
			Coord:     golden.CoordOf(i),
			Read:      od[i],
			Expected:  gd[i],
			RelErrPct: RelativeErrorPct(od[i], gd[i]),
		})
	}
	return r
}

// Count returns the number of incorrect elements (metric 1).
func (r *Report) Count() int { return len(r.Mismatches) }

// IsSDC reports whether the execution shows any corruption under the
// report's current filter.
func (r *Report) IsSDC() bool { return len(r.Mismatches) > 0 }

// MeanRelErrPct returns the mean relative error (metric 3) in percent.
// Elements with unrepresentable (infinite) relative error are capped at
// cap before averaging; pass math.Inf(1) to disable capping. The paper's
// figures cap at 100% (DGEMM) or 20,000% (LavaMD) for readability.
func (r *Report) MeanRelErrPct(cap float64) float64 {
	if len(r.Mismatches) == 0 {
		return 0
	}
	var sum float64
	for _, m := range r.Mismatches {
		e := m.RelErrPct
		if e > cap {
			e = cap
		}
		sum += e
	}
	return sum / float64(len(r.Mismatches))
}

// MaxRelErrPct returns the largest per-element relative error.
func (r *Report) MaxRelErrPct() float64 {
	var mx float64
	for _, m := range r.Mismatches {
		if m.RelErrPct > mx {
			mx = m.RelErrPct
		}
	}
	return mx
}

// Filter returns a new report keeping only mismatches with relative error
// strictly greater than thresholdPct (§III: "we ignore all incorrect
// elements whose relative error is lower than 2%"). The receiver is not
// modified, so different consumers can apply different filters to the same
// logged execution.
func (r *Report) Filter(thresholdPct float64) *Report {
	out := &Report{
		Dims:          r.Dims,
		TotalElements: r.TotalElements,
		ThresholdPct:  thresholdPct,
	}
	for _, m := range r.Mismatches {
		if m.RelErrPct > thresholdPct {
			out.Mismatches = append(out.Mismatches, m)
		}
	}
	return out
}

// CountAbove returns how many mismatches Filter(thresholdPct) keeps,
// without building the filtered report. Survivor sets are nested (a
// stricter threshold keeps a subset), so two thresholds with equal counts
// keep the same mismatches.
func (r *Report) CountAbove(thresholdPct float64) int {
	n := 0
	for _, m := range r.Mismatches {
		if m.RelErrPct > thresholdPct {
			n++
		}
	}
	return n
}

// LocalityAbove classifies the spatial pattern of the mismatches
// Filter(thresholdPct) keeps, equal to Filter(thresholdPct).Locality(),
// without building the filtered report.
func (r *Report) LocalityAbove(thresholdPct float64) Pattern {
	return classify(r.Mismatches, thresholdPct, false)
}

// CorruptedFraction returns the fraction of output elements corrupted.
func (r *Report) CorruptedFraction() float64 {
	if r.TotalElements == 0 {
		return 0
	}
	return float64(len(r.Mismatches)) / float64(r.TotalElements)
}

// Locality classifies the spatial pattern of the mismatches (metric 4).
func (r *Report) Locality() Pattern {
	return classify(r.Mismatches, 0, true)
}

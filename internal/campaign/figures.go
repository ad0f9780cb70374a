package campaign

import (
	"radcrit/internal/detect"
	"radcrit/internal/fault"
	"radcrit/internal/fit"
	"radcrit/internal/grid"
	"radcrit/internal/injector"
	"radcrit/internal/metrics"
)

// ScatterSeries is the data behind one subfigure of Figures 2, 4, 6, 8:
// one (incorrect elements, mean relative error) point per SDC, grouped by
// input size.
type ScatterSeries struct {
	Device string
	Kernel string
	// CapPct is the relative-error display cap applied (100% for DGEMM,
	// 20,000% for LavaMD, per the paper's figure notes).
	CapPct float64
	Series []LabeledPoints
}

// LabeledPoints is one input size's point cloud.
type LabeledPoints struct {
	Label  string
	Points []ScatterPoint
}

// LocalityBar is one input size's FIT breakdown pair in Figures 3, 5, 7.
type LocalityBar struct {
	Input string
	// All is the unfiltered breakdown, Filtered the >threshold one.
	All      fit.Breakdown
	Filtered fit.Breakdown
	// FilterMeaningful is false when no mismatch fell below the filter
	// (the paper then shows only the All bar, e.g. DGEMM on the Phi).
	FilterMeaningful bool
}

// LocalityFigure is one subfigure of Figures 3, 5, 7.
type LocalityFigure struct {
	Device       string
	Kernel       string
	ThresholdPct float64
	Bars         []LocalityBar
}

// RatioRow is one (device, kernel, input) SDC:DUE ratio (§V preamble).
type RatioRow struct {
	Device string
	Kernel string
	Input  string
	SDC    int
	DUE    int
	Ratio  float64
}

// ScalingRow captures FIT growth with input size (§V-A: K40 DGEMM FIT
// grows ~7x (All) / ~5x (>2%) across the sweep; Phi only ~1.8x).
type ScalingRow struct {
	Device       string
	Input        string
	FITAll       float64
	FITFiltered  float64
	GrowthAll    float64 // relative to the smallest input
	GrowthFilter float64
}

// ABFTRow is one device's ABFT-correctable share of DGEMM errors (§V-A).
type ABFTRow struct {
	Device string
	Input  string
	// CorrectableFraction is the share of SDCs with single/line locality.
	CorrectableFraction float64
	// ResidualFraction is the square+random share ABFT cannot repair.
	ResidualFraction float64
}

// MassCheckRow is the CLAMR detector-coverage statistic (§V-D: 82%).
type MassCheckRow struct {
	Device       string
	CriticalSDCs int
	Detected     int
	Coverage     float64
}

// MassCheckReducer evaluates CLAMR's mass-conservation check against
// the critical SDCs: those with a mismatch above the paper's 2% filter
// (§V-D). The verdict is the report's Detected bit.
type MassCheckReducer struct {
	Stats detect.CoverageStats
}

// Consume implements Sink.
func (r *MassCheckReducer) Consume(_ int, out injector.Outcome) {
	if out.Class == fault.SDC && out.Report.CountAbove(metrics.DefaultThresholdPct) > 0 {
		r.Stats.Add(out.Report.Detected)
	}
}

// LocalityMap is Fig. 9: the 2D positions of one CLAMR SDC's incorrect
// elements.
type LocalityMap struct {
	Width, Height int
	Marked        [][]bool
	Count         int
}

// WaveReducer keeps the Fig. 9 error wave. The paper's Fig. 9 shows a
// mid-flight wave, so it keeps the SDC whose incorrect-element count is
// closest to a third of the output, the earliest on ties: larger ones
// have already flooded the whole domain, smaller ones have not yet
// developed the wave shape. It copies the kept SDC's coordinates, because
// the engine recycles every report once its chunk is consumed.
type WaveReducer struct {
	score  int
	coords []grid.Coord
}

// Consume implements Sink.
func (r *WaveReducer) Consume(_ int, out injector.Outcome) {
	if out.Class != fault.SDC {
		return
	}
	rep := out.Report
	score := rep.Count() - rep.TotalElements/3
	if score < 0 {
		score = -score
	}
	if len(r.coords) > 0 && score >= r.score {
		return
	}
	r.score = score
	r.coords = r.coords[:0]
	for _, m := range rep.Mismatches {
		r.coords = append(r.coords, m.Coord)
	}
}

// Map marks the kept SDC's incorrect elements on an output of the given
// shape (a zero Count when no SDC occurred).
func (r *WaveReducer) Map(dims grid.Dims) LocalityMap {
	m := LocalityMap{Width: dims.X, Height: dims.Y, Count: len(r.coords)}
	m.Marked = make([][]bool, m.Height)
	for i := range m.Marked {
		m.Marked[i] = make([]bool, m.Width)
	}
	for _, c := range r.coords {
		m.Marked[c.Y][c.X] = true
	}
	return m
}

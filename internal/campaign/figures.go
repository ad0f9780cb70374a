package campaign

import (
	"radcrit/internal/arch"
	"radcrit/internal/beam"
	"radcrit/internal/detect"
	"radcrit/internal/fault"
	"radcrit/internal/fit"
	"radcrit/internal/metrics"
	"radcrit/internal/par"
	"radcrit/internal/xrand"
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

// BuildMassCheckCoverage runs CLAMR strikes and evaluates the mass check
// against critical (above-threshold) SDCs. The profile and golden-state
// handle are prepared once; strikes fan out over the worker pool and the
// per-strike verdicts are merged in index order.
func BuildMassCheckCoverage(dev arch.Device, s Scale, cfg Config, thresholdPct float64) MassCheckRow {
	k := CLAMRKernel(s)
	prof := k.Profile(dev)
	golden := k.Golden(dev)
	rng := xrand.New(cfg.Seed).SplitString(dev.ShortName()).SplitString("masscheck")
	type verdict struct {
		critical, fired bool
	}
	verdicts := make([]verdict, cfg.Strikes)
	par.For(cfg.Strikes, cfg.Workers, func(i int) {
		sub := rng.Split(uint64(i) + 1)
		strike := fault.Strike{When: sub.Float64(), Energy: beam.StrikeEnergy(sub)}
		syn := dev.ResolveStrike(prof, strike, sub)
		if syn.Outcome != fault.SDC {
			return
		}
		rep, det := k.RunInjectedDetailed(golden, syn.Injection, sub)
		if !rep.Filter(thresholdPct).IsSDC() {
			return
		}
		verdicts[i] = verdict{critical: true, fired: det.MassCheckFired}
	})
	var stats detect.CoverageStats
	for _, v := range verdicts {
		if v.critical {
			stats.Add(v.fired)
		}
	}
	return MassCheckRow{
		Device:       dev.ShortName(),
		CriticalSDCs: stats.Evaluated,
		Detected:     stats.Detected,
		Coverage:     stats.Coverage(),
	}
}

// LocalityMap is Fig. 9: the 2D positions of one CLAMR SDC's incorrect
// elements.
type LocalityMap struct {
	Width, Height int
	Marked        [][]bool
	Count         int
}

// BuildCLAMRLocalityMap runs CLAMR strikes until an SDC with a sizeable
// error wave appears and maps it (Fig. 9).
//
// The search runs in two passes so the strike sweep can fan out without
// holding every candidate report in memory: pass one scores each strike in
// parallel (keeping only the incorrect-element count), then the winner —
// the lowest-scoring index, earliest on ties, exactly as the serial scan
// chose — is deterministically re-executed to materialise its report.
func BuildCLAMRLocalityMap(dev arch.Device, s Scale, cfg Config) LocalityMap {
	k := CLAMRKernel(s)
	prof := k.Profile(dev)
	golden := k.Golden(dev)
	// The paper's Fig. 9 shows a mid-flight error wave: prefer the SDC
	// whose corrupted area is closest to a third of the output — larger
	// ones have already flooded the whole domain, smaller ones have not
	// yet developed the wave shape.
	target := k.Side() * k.Side() / 3
	score := func(count int) int {
		d := count - target
		if d < 0 {
			return -d
		}
		return d
	}
	rng := xrand.New(cfg.Seed).SplitString(dev.ShortName()).SplitString("fig9")
	runStrike := func(i int) *metrics.Report {
		sub := rng.Split(uint64(i) + 1)
		strike := fault.Strike{When: sub.Float64(), Energy: beam.StrikeEnergy(sub)}
		syn := dev.ResolveStrike(prof, strike, sub)
		if syn.Outcome != fault.SDC {
			return nil
		}
		return k.RunInjectedPooled(golden, syn.Injection, sub, nil)
	}
	counts := make([]int, cfg.Strikes)
	par.For(cfg.Strikes, cfg.Workers, func(i int) {
		if rep := runStrike(i); rep != nil {
			counts[i] = rep.Count()
		}
	})
	bestIdx := -1
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if bestIdx < 0 || score(c) < score(counts[bestIdx]) {
			bestIdx = i
		}
	}
	m := LocalityMap{Width: k.Side(), Height: k.Side()}
	m.Marked = make([][]bool, m.Height)
	for i := range m.Marked {
		m.Marked[i] = make([]bool, m.Width)
	}
	if bestIdx >= 0 {
		best := runStrike(bestIdx)
		for _, mm := range best.Mismatches {
			m.Marked[mm.Coord.Y][mm.Coord.X] = true
		}
		m.Count = best.Count()
	}
	return m
}

package campaign

// This file freezes the two retired CLAMR figure builders, the §V-D
// mass-check coverage (S4) and the Fig. 9 error-wave map (F9), as a test
// oracle. They drew their own strikes, resolved each syndrome themselves
// and ran the kernel's single-strike path; production now computes both
// with reducers in the shared figure pass. The only edits to the retired
// code are the RNG root, now a parameter (it was seed→device→"masscheck"
// and seed→device→"fig9"), and the loop, now parFor, a plain counter
// loop. Do not share code with the reducers: its value is that it is a
// second implementation.

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"radcrit/internal/arch"
	"radcrit/internal/beam"
	"radcrit/internal/detect"
	"radcrit/internal/fault"
	"radcrit/internal/grid"
	"radcrit/internal/injector"
	"radcrit/internal/metrics"
	"radcrit/internal/xrand"
)

// parFor runs fn(i) for every i in [0, n) on up to workers goroutines
// (<= 0 means GOMAXPROCS), each taking the next index from a shared
// counter.
func parFor(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// cellRoot is the RNG root the engine derives a cell's strikes from.
func cellRoot(c Cell, cfg Config) *xrand.RNG {
	return xrand.New(cfg.Seed).
		SplitString(c.Dev.ShortName()).
		SplitString(c.Kern.Name()).
		SplitString(c.Kern.InputLabel())
}

// oracleMassCheckCoverage runs CLAMR strikes and evaluates the mass check
// against critical (above-threshold) SDCs. The profile and golden-state
// handle are prepared once; strikes fan out over the worker pool and the
// per-strike verdicts are merged in index order.
func oracleMassCheckCoverage(dev arch.Device, s Scale, cfg Config, thresholdPct float64, rng *xrand.RNG) MassCheckRow {
	k := CLAMRKernel(s)
	prof := k.Profile(dev)
	golden := k.Golden(dev)
	type verdict struct {
		critical, fired bool
	}
	verdicts := make([]verdict, cfg.Strikes)
	parFor(cfg.Strikes, cfg.Workers, func(i int) {
		sub := rng.Split(uint64(i) + 1)
		strike := fault.Strike{When: sub.Float64(), Energy: beam.StrikeEnergy(sub)}
		syn := dev.ResolveStrike(prof, strike, sub)
		if syn.Outcome != fault.SDC {
			return
		}
		rep, det := k.RunInjectedDetailed(golden, syn.Injection, sub)
		if rep.CountAbove(thresholdPct) == 0 {
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

// oracleCLAMRLocalityMap runs CLAMR strikes until an SDC with a sizeable
// error wave appears and maps it (Fig. 9).
//
// The search runs in two passes so the strike sweep can fan out without
// holding every candidate report in memory: pass one scores each strike in
// parallel (keeping only the incorrect-element count), then the winner —
// the lowest-scoring index, earliest on ties, exactly as the serial scan
// chose — is deterministically re-executed to materialise its report.
func oracleCLAMRLocalityMap(dev arch.Device, s Scale, cfg Config, rng *xrand.RNG) LocalityMap {
	k := CLAMRKernel(s)
	prof := k.Profile(dev)
	golden := k.Golden(dev)
	// The paper's Fig. 9 shows a mid-flight error wave: prefer the SDC
	// whose corrupted area is closest to a third of the output — larger
	// ones have already flooded the whole domain, smaller ones have not
	// yet developed the wave shape.
	side := prof.OutputDims.X
	target := side * side / 3
	score := func(count int) int {
		d := count - target
		if d < 0 {
			return -d
		}
		return d
	}
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
	parFor(cfg.Strikes, cfg.Workers, func(i int) {
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
	m := LocalityMap{Width: side, Height: side}
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

// TestFigurePassMatchesRetiredCLAMRBuilders pins the S4 and F9 reducers
// against the retired builders run on the cell's own RNG root: the same
// coverage row and the same map, at any worker count.
func TestFigurePassMatchesRetiredCLAMRBuilders(t *testing.T) {
	c := clamrPhiCell()
	base := DefaultConfig(67, 120)
	base.Workers = 1
	wantMC := oracleMassCheckCoverage(c.Dev, TestScale, base, metrics.DefaultThresholdPct, cellRoot(c, base))
	wantMap := oracleCLAMRLocalityMap(c.Dev, TestScale, base, cellRoot(c, base))
	if wantMC.CriticalSDCs == 0 || wantMC.Detected == 0 || wantMap.Count == 0 {
		t.Fatalf("degenerate oracle: %+v, map count %d", wantMC, wantMap.Count)
	}
	for _, workers := range []int{1, 8} {
		cfg := base
		cfg.Workers = workers
		d := figureData(t, []Cell{c}, cfg)
		if got := d.MassCheck(c); !reflect.DeepEqual(got, wantMC) {
			t.Errorf("workers=%d: mass check %+v, retired builder %+v", workers, got, wantMC)
		}
		if got := d.LocalityMap(c); !reflect.DeepEqual(got, wantMap) {
			t.Errorf("workers=%d: locality map (count %d) differs from the retired builder's (count %d)",
				workers, got.Count, wantMap.Count)
		}
	}
}

// sdcOf is a hand-built SDC outcome on a 4x4 output whose mismatches sit
// at the given x positions of row y, each with relative error relErr.
func sdcOf(y int, relErr float64, detected bool, xs ...int) injector.Outcome {
	rep := &metrics.Report{Dims: grid.Dims{X: 4, Y: 4, Z: 1}, TotalElements: 16, Detected: detected}
	for _, x := range xs {
		rep.Mismatches = append(rep.Mismatches, metrics.Mismatch{Coord: grid.Coord{X: x, Y: y}, RelErrPct: relErr})
	}
	return injector.Outcome{Class: fault.SDC, Report: rep}
}

// TestCLAMRReducersEdgeCases pins the rules the real stream rarely
// exercises: the wave keeps the earliest SDC among equally close ones and
// only a strictly closer one replaces it (target 16/3 = 5 elements), and
// the mass check counts only SDCs with a mismatch above the 2% filter.
func TestCLAMRReducersEdgeCases(t *testing.T) {
	var w WaveReducer
	var mc MassCheckReducer
	outs := []injector.Outcome{
		{Class: fault.Masked},
		sdcOf(0, 50, true, 0, 1, 2),                            // score 2: kept
		sdcOf(3, 50, false, 0, 1, 2, 3),                        // score 1: replaces
		sdcOf(1, 50, false, 0, 1, 2, 3, 0, 1),                  // score 1 again: a tie keeps the earlier
		sdcOf(2, metrics.DefaultThresholdPct, true, 0, 1, 2),   // not critical: error equals the filter
		sdcOf(1, 50, true, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3), // score 7
	}
	for i, o := range outs {
		w.Consume(i, o)
		mc.Consume(i, o)
	}
	if want := (detect.CoverageStats{Evaluated: 4, Detected: 2}); mc.Stats != want {
		t.Errorf("mass check %+v, want %+v", mc.Stats, want)
	}
	m := w.Map(grid.Dims{X: 4, Y: 4, Z: 1})
	if m.Count != 4 || m.Width != 4 || m.Height != 4 {
		t.Fatalf("wave map %dx%d with %d elements, want the 4-element row-3 SDC", m.Width, m.Height, m.Count)
	}
	for y, row := range m.Marked {
		for x, marked := range row {
			if marked != (y == 3) {
				t.Fatalf("cell (%d,%d) marked=%v", x, y, marked)
			}
		}
	}
	if empty := new(WaveReducer).Map(grid.Dims{X: 4, Y: 2, Z: 1}); empty.Count != 0 || len(empty.Marked) != 2 || len(empty.Marked[0]) != 4 {
		t.Fatalf("map without an SDC: %+v", empty)
	}
}

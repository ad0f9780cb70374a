package campaign

import (
	"radcrit/internal/fault"
	"radcrit/internal/injector"
	"radcrit/internal/metrics"
	"radcrit/internal/xrand"
)

// This file is the shared figure pass: every aggregate §V artifact —
// scatter, locality, SDC:DUE ratios, FIT scaling, ABFT coverage and the
// per-resource tally — is a pure function of one reducer bundle per
// distinct cell. RunFigurePass collects the bundles for the union of the
// cells the selected artifacts read in one concurrent StreamMatrix pass,
// so a cell several artifacts share is executed once and no report is
// retained: memory is O(reducer state + scatter reservoir) per cell. The
// filtered statistics use the paper's 2% filter (metrics.DefaultThresholdPct).

// scatterCapPct is a kernel family's relative-error display cap in the
// Figure-2/4/6/8 scatters (per the paper's figure notes: 100% for DGEMM,
// 20,000% for LavaMD; HotSpot and CLAMR are uncapped).
func scatterCapPct(kernel string) float64 {
	switch kernel {
	case "DGEMM":
		return 100
	case "LavaMD":
		return 20000
	}
	return 0
}

// cellID is a cell's identity in the figure pass: cells agreeing on
// (device, kernel, input) produce identical outcome streams under one
// config, so they share one engine run.
type cellID struct {
	Device, Kernel, Input string
}

func idOf(c Cell) cellID {
	return cellID{Device: c.Dev.ShortName(), Kernel: c.Kern.Name(), Input: c.Kern.InputLabel()}
}

// CellStats is the reducer bundle one engine run of a cell feeds.
type CellStats struct {
	Info  StreamInfo
	Tally *TallyReducer
	// SDC counts SDCs under the thresholds {0, DefaultThresholdPct}.
	SDC              *SDCCountReducer
	LocalityAll      *LocalityReducer
	LocalityFiltered *LocalityReducer
	Filtered         *FilteredFractionReducer
	// Scatter is capped at the kernel family's display cap.
	Scatter *ScatterReducer
	ABFT    *ABFTReducer
}

func newCellStats(c Cell, cfg Config, maxPoints int) *CellStats {
	const thresholdPct = metrics.DefaultThresholdPct
	return &CellStats{
		Tally:            NewTallyReducer(),
		SDC:              NewSDCCountReducer(0, thresholdPct),
		LocalityAll:      NewLocalityReducer(0),
		LocalityFiltered: NewLocalityReducer(thresholdPct),
		Filtered:         NewFilteredFractionReducer(thresholdPct),
		Scatter:          NewScatterReducer(scatterCapPct(c.Kern.Name()), maxPoints, scatterRNG(cfg, c)),
		ABFT:             NewABFTReducer(),
	}
}

func (s *CellStats) sinks() []Sink {
	return []Sink{s.Tally, s.SDC, s.LocalityAll, s.LocalityFiltered, s.Filtered, s.Scatter, s.ABFT}
}

// scatterRNG derives the deterministic reservoir-eviction stream of one
// cell: a pure function of (seed, cell), independent of Workers, chunking
// and sibling cells.
func scatterRNG(cfg Config, c Cell) *xrand.RNG {
	return xrand.New(cfg.Seed).
		SplitString(c.Dev.ShortName()).
		SplitString(c.Kern.Name()).
		SplitString(c.Kern.InputLabel()).
		SplitString("scatter-reservoir")
}

// FigureData is the product of one figure pass: a CellStats per distinct
// cell, from which the artifact methods below render.
type FigureData struct {
	stats map[cellID]*CellStats
}

// RunFigurePass runs every distinct cell of cells exactly once under cfg,
// all concurrently through StreamMatrix, and returns their reducer
// bundles. Scatter reservoirs keep at most maxPoints points per cell
// (<= 0 keeps every point).
func RunFigurePass(cells []Cell, cfg Config, maxPoints int) (*FigureData, error) {
	d := &FigureData{stats: map[cellID]*CellStats{}}
	var distinct []Cell
	for _, c := range cells {
		id := idOf(c)
		if _, ok := d.stats[id]; !ok {
			d.stats[id] = nil
			distinct = append(distinct, c)
		}
	}
	stats := make([]*CellStats, len(distinct))
	infos, err := StreamMatrix(distinct, cfg, func(i int, c Cell) []Sink {
		stats[i] = newCellStats(c, cfg, maxPoints)
		return stats[i].sinks()
	})
	if err != nil {
		return nil, err
	}
	for i, c := range distinct {
		stats[i].Info = infos[i]
		d.stats[idOf(c)] = stats[i]
	}
	return d, nil
}

// Stats returns c's reducer bundle. It panics if the pass did not run c:
// an artifact reading a cell its selection never asked for is a bug.
func (d *FigureData) Stats(c Cell) *CellStats {
	s := d.stats[idOf(c)]
	if s == nil {
		id := idOf(c)
		panic("campaign: figure pass did not run cell " + id.Device + "/" + id.Kernel + "/" + id.Input)
	}
	return s
}

// Scatter renders a Figure-2/4/6/8 series: one point cloud per cell. The
// cells must share one device and kernel family.
func (d *FigureData) Scatter(cells []Cell) ScatterSeries {
	var out ScatterSeries
	for _, c := range cells {
		s := d.Stats(c)
		out.Device, out.Kernel, out.CapPct = s.Info.Device, s.Info.Kernel, s.Scatter.CapPct
		out.Series = append(out.Series, LabeledPoints{Label: s.Info.Input, Points: s.Scatter.Points()})
	}
	return out
}

// Locality renders a Figure-3/5/7 locality figure: one All/filtered bar
// pair per cell. The cells must share one device and kernel family.
func (d *FigureData) Locality(cells []Cell) LocalityFigure {
	out := LocalityFigure{ThresholdPct: metrics.DefaultThresholdPct}
	for _, c := range cells {
		s := d.Stats(c)
		out.Device, out.Kernel = s.Info.Device, s.Info.Kernel
		out.Bars = append(out.Bars, LocalityBar{
			Input:            s.Info.Input,
			All:              s.LocalityAll.Breakdown(s.Info.Exposure),
			Filtered:         s.LocalityFiltered.Breakdown(s.Info.Exposure),
			FilterMeaningful: s.Filtered.Fraction() > 0,
		})
	}
	return out
}

// Ratios renders the §V preamble SDC:DUE statistics, one row per cell.
func (d *FigureData) Ratios(cells []Cell) []RatioRow {
	rows := make([]RatioRow, len(cells))
	for i, c := range cells {
		s := d.Stats(c)
		t := s.Tally.Tally
		rows[i] = RatioRow{
			Device: s.Info.Device,
			Kernel: s.Info.Kernel,
			Input:  s.Info.Input,
			SDC:    t.SDC,
			DUE:    t.Crash + t.Hang,
			Ratio:  t.SDCToDUERatio(),
		}
	}
	return rows
}

// Scaling renders the §V-A input-size FIT scaling series over an
// input-size sweep: growth is relative to the first cell.
func (d *FigureData) Scaling(cells []Cell) []ScalingRow {
	rows := make([]ScalingRow, len(cells))
	var baseAll, baseF float64
	for i, c := range cells {
		s := d.Stats(c)
		all := s.SDC.FIT(0, s.Info.Exposure)
		fl := s.SDC.FIT(1, s.Info.Exposure)
		if i == 0 {
			baseAll, baseF = all, fl
		}
		rows[i] = ScalingRow{Device: s.Info.Device, Input: s.Info.Input, FITAll: all, FITFiltered: fl}
		if baseAll > 0 {
			rows[i].GrowthAll = all / baseAll
		}
		if baseF > 0 {
			rows[i].GrowthFilter = fl / baseF
		}
	}
	return rows
}

// ABFTCoverage renders the §V-A ABFT-correctable share of SDCs per cell
// (§V-A: "applying ABFT, DGEMM would be affected by only 20% to 40% of all
// errors on K40, and 60% to 80% on Xeon Phi").
func (d *FigureData) ABFTCoverage(cells []Cell) []ABFTRow {
	rows := make([]ABFTRow, len(cells))
	for i, c := range cells {
		s := d.Stats(c)
		frac := s.ABFT.Coverage.CorrectableFraction()
		rows[i] = ABFTRow{
			Device:              s.Info.Device,
			Input:               s.Info.Input,
			CorrectableFraction: frac,
			ResidualFraction:    1 - frac,
		}
	}
	return rows
}

// ResourceTally returns c's per-resource outcome accounting, the beam
// side of the §IV-D software-injector comparison.
func (d *FigureData) ResourceTally(c Cell) map[fault.Resource]injector.Tally {
	return d.Stats(c).Tally.ByResource
}

// Benchmarks regenerating every table and figure of the paper (one
// Benchmark per artifact, see DESIGN.md §3) plus the ablation studies of
// DESIGN.md §4. Each benchmark reports the headline shape statistic of its
// artifact via b.ReportMetric so `go test -bench` doubles as a compact
// reproduction summary. Test-scale inputs are used so the full suite runs
// in minutes; cmd/figures -scale paper regenerates at Table II sizes.
package radcrit

import (
	"context"
	"fmt"
	"testing"

	"radcrit/internal/abft"
	"radcrit/internal/arch"
	"radcrit/internal/campaign"
	"radcrit/internal/fault"
	"radcrit/internal/floatbits"
	"radcrit/internal/grid"
	"radcrit/internal/injector"
	"radcrit/internal/k40"
	"radcrit/internal/kernels"
	"radcrit/internal/kernels/dgemm"
	"radcrit/internal/metrics"
	"radcrit/internal/phi"
	"radcrit/internal/xrand"
)

const benchStrikes = 120

func benchCfg(i int) campaign.Config {
	return campaign.DefaultConfig(uint64(1000+i), benchStrikes)
}

// figurePass runs the shared figure pass cmd/figures renders from (every
// scatter point kept) over cells(dev, TestScale) on the K40 and the Phi,
// and returns those two cell sets with it.
func figurePass(b *testing.B, i int, cells func(arch.Device, campaign.Scale) []campaign.Cell) (d *campaign.FigureData, k40Cells, phiCells []campaign.Cell) {
	b.Helper()
	k40Cells, phiCells = cells(k40.New(), campaign.TestScale), cells(phi.New(), campaign.TestScale)
	d, err := campaign.RunFigurePass(append(append([]campaign.Cell(nil), k40Cells...), phiCells...), benchCfg(i), 0)
	if err != nil {
		b.Fatal(err)
	}
	return d, k40Cells, phiCells
}

func hotspotCells(dev arch.Device, s campaign.Scale) []campaign.Cell {
	return []campaign.Cell{{Dev: dev, Kern: campaign.HotSpotKernel(s)}}
}

// BenchmarkTable1 regenerates the kernel classification (Table I).
func BenchmarkTable1(b *testing.B) {
	dev := k40.New()
	for i := 0; i < b.N; i++ {
		ks := campaign.AllKernels(campaign.TestScale, dev)
		if len(ks) != 4 {
			b.Fatal("kernel set wrong")
		}
		for _, k := range ks {
			_ = k.Class()
		}
	}
}

// BenchmarkTable2 regenerates the kernel details (Table II).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, dev := range []arch.Device{k40.New(), phi.New()} {
			for _, k := range campaign.AllKernels(campaign.TestScale, dev) {
				p := k.Profile(dev)
				if p.Threads <= 0 {
					b.Fatal("profile degenerate")
				}
			}
		}
	}
}

// BenchmarkFigure2 regenerates the DGEMM MRE-vs-elements scatter.
func BenchmarkFigure2(b *testing.B) {
	var sdcs int
	for i := 0; i < b.N; i++ {
		d, k, p := figurePass(b, i, campaign.DGEMMCells)
		for _, cells := range [][]campaign.Cell{k, p} {
			for _, series := range d.Scatter(cells).Series {
				sdcs += len(series.Points)
			}
		}
	}
	b.ReportMetric(float64(sdcs)/float64(b.N), "SDCs/op")
}

// BenchmarkFigure3 regenerates the DGEMM locality/FIT breakdown and
// reports the K40's 2%-filter reliability gain (paper: >= 60%).
func BenchmarkFigure3(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		d, k, p := figurePass(b, i, campaign.DGEMMCells)
		f := d.Locality(k)
		_ = d.Locality(p)
		last := f.Bars[len(f.Bars)-1]
		if t := last.All.Total(); t > 0 {
			gain += 1 - last.Filtered.Total()/t
		}
	}
	b.ReportMetric(100*gain/float64(b.N), "K40-filter-gain-%")
}

// BenchmarkFigure4 regenerates the LavaMD scatter.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, k, p := figurePass(b, i, campaign.LavaMDCells)
		_, _ = d.Scatter(k), d.Scatter(p)
	}
}

// BenchmarkFigure5 regenerates the LavaMD locality breakdown and reports
// the Phi's cubic+square share (paper: dominant).
func BenchmarkFigure5(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		d, k, p := figurePass(b, i, campaign.LavaMDCells)
		_ = d.Locality(k)
		f := d.Locality(p)
		var spread, total float64
		for _, bar := range f.Bars {
			spread += bar.All.Values[0] + bar.All.Values[1] // cubic + square
			total += bar.All.Total()
		}
		if total > 0 {
			share += spread / total
		}
	}
	b.ReportMetric(100*share/float64(b.N), "Phi-cubic+square-%")
}

// BenchmarkFigure6 regenerates the HotSpot scatter.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, k, p := figurePass(b, i, hotspotCells)
		_, _ = d.Scatter(k), d.Scatter(p)
	}
}

// BenchmarkFigure7 regenerates the HotSpot locality breakdown and reports
// the filtered fraction (paper: 80-95% of executions under 2%).
func BenchmarkFigure7(b *testing.B) {
	var filtered float64
	for i := 0; i < b.N; i++ {
		d, k, p := figurePass(b, i, hotspotCells)
		filtered += d.Stats(k[0]).Summary.FilteredFraction[1]
		_ = d.Locality(p)
	}
	b.ReportMetric(100*filtered/float64(b.N), "K40-filtered-%")
}

// clamrPass runs the figure pass over the Xeon Phi CLAMR cell, the one
// cell F8, F9 and S4 read.
func clamrPass(b *testing.B, i int) (*campaign.FigureData, campaign.Cell) {
	b.Helper()
	cell := campaign.Cell{Dev: phi.New(), Kern: campaign.CLAMRKernel(campaign.TestScale)}
	d, err := campaign.RunFigurePass([]campaign.Cell{cell}, benchCfg(i), 0)
	if err != nil {
		b.Fatal(err)
	}
	return d, cell
}

// BenchmarkFigure8 regenerates the CLAMR scatter (Xeon Phi).
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, cell := clamrPass(b, i)
		_ = d.Scatter([]campaign.Cell{cell})
	}
}

// BenchmarkFigure9 regenerates the CLAMR error-wave locality map.
func BenchmarkFigure9(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		d, cell := clamrPass(b, i)
		m := d.LocalityMap(cell)
		frac += float64(m.Count) / float64(m.Width*m.Height)
	}
	b.ReportMetric(100*frac/float64(b.N), "wave-coverage-%")
}

// BenchmarkSDCRatios regenerates the §V preamble SDC:DUE statistics.
func BenchmarkSDCRatios(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, k, p := figurePass(b, i, campaign.DeviceCells)
		rows := d.Ratios(append(k, p...))
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkInputScaling regenerates the §V-A FIT-growth analysis and
// reports the K40 growth factor at paper-scale profiles (paper: ~7x;
// evaluated analytically so the paper-scale number is exact).
func BenchmarkInputScaling(b *testing.B) {
	dev := k40.New()
	var growth float64
	for i := 0; i < b.N; i++ {
		small := dgemm.New(1024).Profile(dev)
		large := dgemm.New(4096).Profile(dev)
		_, sdcS, _, _ := dev.Model().ExpectedRates(small)
		_, sdcL, _, _ := dev.Model().ExpectedRates(large)
		growth = (sdcL * dev.SensitiveArea(large)) / (sdcS * dev.SensitiveArea(small))
		d, k, p := figurePass(b, i, campaign.DGEMMCells)
		_, _ = d.Scaling(k), d.Scaling(p)
	}
	b.ReportMetric(growth, "K40-FIT-growth-x")
}

// BenchmarkABFTCoverage regenerates the §V-A ABFT analysis and reports
// the K40 correctable share (paper: 60-80%).
func BenchmarkABFTCoverage(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		d, k, p := figurePass(b, i, campaign.DGEMMCells)
		rows := d.ABFTCoverage(k)
		frac += rows[len(rows)-1].CorrectableFraction
		_ = d.ABFTCoverage(p)
	}
	b.ReportMetric(100*frac/float64(b.N), "K40-correctable-%")
}

// BenchmarkMassCheck regenerates the §V-D CLAMR detector coverage
// (paper: 82%).
func BenchmarkMassCheck(b *testing.B) {
	var cov float64
	for i := 0; i < b.N; i++ {
		d, cell := clamrPass(b, i)
		cov += d.MassCheck(cell).Coverage
	}
	b.ReportMetric(100*cov/float64(b.N), "coverage-%")
}

// --- Ablations (DESIGN.md §4) ---

// BenchmarkAblationScheduler compares FIT growth with the hardware
// scheduler's strain enabled vs disabled: the strain is the entire
// input-size dependence of the K40's DGEMM FIT.
func BenchmarkAblationScheduler(b *testing.B) {
	var withStrain, without float64
	for i := 0; i < b.N; i++ {
		dev := k40.New()
		small := dgemm.New(1024).Profile(dev)
		large := dgemm.New(4096).Profile(dev)
		grow := func(m *arch.Model) float64 {
			_, s, _, _ := m.ExpectedRates(small)
			_, l, _, _ := m.ExpectedRates(large)
			return (l * m.SensitiveArea(large)) / (s * m.SensitiveArea(small))
		}
		withStrain = grow(dev.Model())
		off := k40.New().Model()
		off.SchedStrainAt64K = 0
		off.RFResidencyPerKWaiting = 0
		without = grow(off)
	}
	b.ReportMetric(withStrain, "growth-with-strain-x")
	b.ReportMetric(without, "growth-without-x")
}

// BenchmarkAblationCacheSharing compares the Phi's incorrect-element
// multiplicity with its coherent-L2 line spread on vs off.
func BenchmarkAblationCacheSharing(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		var shared elementCounts
		streamCell(b, phi.New(), dgemm.New(256), campaign.DefaultConfig(uint64(3000+i), benchStrikes), &shared)
		with += medianElements(shared)

		isolated := phi.New()
		isolated.L2SharingDegree = 1
		var split elementCounts
		streamCell(b, isolated, dgemm.New(256), campaign.DefaultConfig(uint64(4000+i), benchStrikes), &split)
		without += medianElements(split)
	}
	b.ReportMetric(with/float64(b.N), "median-elems-shared")
	b.ReportMetric(without/float64(b.N), "median-elems-isolated")
}

// streamCell runs one campaign cell through the streaming engine, failing
// the benchmark on error.
func streamCell(b *testing.B, dev arch.Device, kern kernels.Kernel, cfg campaign.Config, sinks ...campaign.Sink) campaign.StreamInfo {
	b.Helper()
	info, err := campaign.RunStreamingCtx(context.Background(), dev, kern, cfg, sinks...)
	if err != nil {
		b.Fatal(err)
	}
	return info
}

// elementCounts collects the unfiltered incorrect-element count of every
// SDC, in strike order.
type elementCounts []int

func (e *elementCounts) Consume(_ int, out injector.Outcome) {
	if out.Class == fault.SDC {
		*e = append(*e, out.Report.Count())
	}
}

func medianElements(counts elementCounts) float64 {
	if len(counts) == 0 {
		return 0
	}
	// insertion sort: tiny slices
	for i := 1; i < len(counts); i++ {
		for j := i; j > 0 && counts[j] < counts[j-1]; j-- {
			counts[j], counts[j-1] = counts[j-1], counts[j]
		}
	}
	return float64(counts[len(counts)/2])
}

// BenchmarkAblationECC compares the K40's SDC rate with register-file and
// shared-memory ECC on vs off.
func BenchmarkAblationECC(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		on := campaign.NewTallyReducer()
		streamCell(b, k40.New(), dgemm.New(256), campaign.DefaultConfig(uint64(5000+i), benchStrikes), on)
		with += float64(on.Tally.SDC)

		dev := k40.New()
		dev.ECCRegisterFile = false
		dev.ECCSharedMemory = false
		off := campaign.NewTallyReducer()
		streamCell(b, dev, dgemm.New(256), campaign.DefaultConfig(uint64(6000+i), benchStrikes), off)
		without += float64(off.Tally.SDC)
	}
	b.ReportMetric(with/float64(b.N), "SDCs-ecc-on")
	b.ReportMetric(without/float64(b.N), "SDCs-ecc-off")
}

// BenchmarkAblationBitModel compares the K40's filtered fraction with its
// mantissa-biased datapath flips vs a Phi-style high-magnitude model: the
// bit-position distribution decides how much imprecise computing buys.
func BenchmarkAblationBitModel(b *testing.B) {
	var biased, uniform float64
	for i := 0; i < b.N; i++ {
		std := campaign.NewSummaryAccumulator([]float64{2})
		info := streamCell(b, k40.New(), dgemm.New(256), campaign.DefaultConfig(uint64(7000+i), benchStrikes), std)
		biased += std.Summary(info).FilteredFraction[0]

		dev := k40.New()
		dev.DatapathFlip = arch.FlipDist{
			Specs:   []fault.FlipSpec{{Field: floatbits.Exponent, Bits: 1}, {Field: floatbits.AnyField, Bits: 1}},
			Weights: []float64{0.5, 0.5},
		}
		alt := campaign.NewSummaryAccumulator([]float64{2})
		info = streamCell(b, dev, dgemm.New(256), campaign.DefaultConfig(uint64(8000+i), benchStrikes), alt)
		uniform += alt.Summary(info).FilteredFraction[0]
	}
	b.ReportMetric(100*biased/float64(b.N), "filtered-mantissa-biased-%")
	b.ReportMetric(100*uniform/float64(b.N), "filtered-high-magnitude-%")
}

// BenchmarkAblationThreshold sweeps the relative-error tolerance and
// reports the K40 DGEMM SDC FIT at each, quantifying how much apparent
// reliability the imprecision budget buys (§III).
func BenchmarkAblationThreshold(b *testing.B) {
	thresholds := []float64{0.5, 1, 2, 5, 10}
	var out string
	for i := 0; i < b.N; i++ {
		acc := campaign.NewSummaryAccumulator(append([]float64{0}, thresholds...))
		fits := acc.Summary(streamCell(b, k40.New(), dgemm.New(256), campaign.DefaultConfig(uint64(9000+i), 300), acc)).SDCFIT
		out = ""
		for k, th := range thresholds {
			out += fmt.Sprintf("%.0f%%@%v ", 100*fits[k+1]/fits[0], th)
		}
	}
	if testing.Verbose() {
		b.Logf("FIT retained vs threshold: %s", out)
	}
}

// --- Campaign engine: serial vs parallel (DESIGN.md §5) ---

// benchCampaignEngine measures whole campaign cells at a fixed worker
// count. The engine memoises nothing, so every iteration pays the full
// strike loop; the kernel is hoisted so iterations beyond the first run
// against warm golden-state handles (the engine's steady state).
func benchCampaignEngine(b *testing.B, workers int) {
	dev := k40.New()
	kern := dgemm.New(512)
	cfg := campaign.DefaultConfig(42, 400)
	cfg.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tally := campaign.NewTallyReducer()
		streamCell(b, dev, kern, cfg, tally)
		if tally.Tally.Count() != cfg.Strikes {
			b.Fatal("strike count wrong")
		}
	}
}

// BenchmarkCampaignEngineSerial pins the pre-parallel baseline: one worker.
func BenchmarkCampaignEngineSerial(b *testing.B) { benchCampaignEngine(b, 1) }

// BenchmarkCampaignEngineParallel runs the default engine (GOMAXPROCS
// workers). Results are bit-identical to the serial engine; only wall
// time may differ (see the determinism contract, DESIGN.md §5).
func BenchmarkCampaignEngineParallel(b *testing.B) { benchCampaignEngine(b, 0) }

// --- Micro-benchmarks of the core machinery ---

// BenchmarkMetricsEvaluate measures raw output comparison.
func BenchmarkMetricsEvaluate(b *testing.B) {
	golden := gridOf(512, 1.0)
	observed := gridOf(512, 1.0)
	observed.Data()[1000] = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := metrics.Evaluate(golden, observed)
		if rep.Count() != 1 {
			b.Fatal("unexpected mismatch count")
		}
	}
}

// BenchmarkLocalityClassify measures the spatial classifier on a large
// mismatch set.
func BenchmarkLocalityClassify(b *testing.B) {
	rep := &metrics.Report{Dims: gridDims(1024), TotalElements: 1024 * 1024}
	rng := xrand.New(1)
	for j := 0; j < 5000; j++ {
		rep.Mismatches = append(rep.Mismatches, metrics.Mismatch{
			Coord: gridCoord(rng.Intn(1024), rng.Intn(1024)),
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep.Locality() == metrics.NoPattern {
			b.Fatal("no pattern")
		}
	}
}

// BenchmarkDGEMMInjection measures one delta-propagated faulty execution
// at a paper-scale input.
func BenchmarkDGEMMInjection(b *testing.B) {
	kern := dgemm.New(2048)
	dev := k40.New()
	inj := arch.Injection{
		Scope: arch.ScopeCacheLine, Words: 16, Lines: 2,
		Flip: fault.FlipSpec{Field: floatbits.AnyField, Bits: 1},
	}
	golden := kern.Golden(dev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = kern.RunInjectedPooled(golden, inj, xrand.New(uint64(i)), nil)
	}
}

// BenchmarkABFTAudit measures a checksum audit of a 512x512 product.
func BenchmarkABFTAudit(b *testing.B) {
	cs := abft.Attach(gridOf(512, 1.5))
	cs.C.Set2(100, 100, 99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clone := abft.Attach(cs.C)
		_ = clone.Audit(0)
	}
}

// helpers for benches

func gridOf(side int, v float64) *grid.Grid {
	g := grid.New2D(side, side)
	for i := range g.Data() {
		g.Data()[i] = v
	}
	return g
}

func gridDims(side int) grid.Dims { return grid.Dims{X: side, Y: side, Z: 1} }

func gridCoord(x, y int) grid.Coord { return grid.Coord{X: x, Y: y} }

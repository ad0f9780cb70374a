package campaign

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"radcrit/internal/abft"
	"radcrit/internal/arch"
	"radcrit/internal/core"
	"radcrit/internal/harden"
	"radcrit/internal/k40"
	"radcrit/internal/kernels"
	"radcrit/internal/kernels/dgemm"
	"radcrit/internal/kernels/lavamd"
	"radcrit/internal/logdata"
	"radcrit/internal/metrics"
	"radcrit/internal/phi"
	"radcrit/internal/xrand"
)

// requireSameFloat asserts bit-identity, which is NaN-safe: reservoirs and
// FIT values computed by two engines must agree to the last bit, and NaN
// == NaN under bit comparison even though it fails under ==.
func requireSameFloat(t *testing.T, label string, a, b float64) {
	t.Helper()
	if math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("%s: %v (%#x) != %v (%#x)", label, a, math.Float64bits(a), b, math.Float64bits(b))
	}
}

func requireSameBreakdown(t *testing.T, label string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: lengths %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		requireSameFloat(t, label, a[i], b[i])
	}
}

// streamSinks is one full reducer stack plus the batch methods it must
// reproduce.
type streamSinks struct {
	tally    *TallyReducer
	counts   *SDCCountReducer
	locAll   *LocalityReducer
	locFilt  *LocalityReducer
	fraction *FilteredFractionReducer
	scatter  *ScatterReducer
	abftRed  *ABFTReducer
	analyzer *core.Analyzer
	harden   *harden.Reducer
}

func newStreamSinks(threshold, capPct float64, maxPoints int) (streamSinks, []Sink) {
	s := streamSinks{
		tally:    NewTallyReducer(),
		counts:   NewSDCCountReducer(0, threshold),
		locAll:   NewLocalityReducer(0),
		locFilt:  NewLocalityReducer(threshold),
		fraction: NewFilteredFractionReducer(threshold),
		scatter:  NewScatterReducer(capPct, maxPoints, xrand.New(99)),
		abftRed:  NewABFTReducer(),
		analyzer: core.NewAnalyzer(core.Options{ThresholdPct: threshold, CapPct: capPct}),
		harden:   harden.NewReducer(threshold),
	}
	return s, []Sink{s.tally, s.counts, s.locAll, s.locFilt, s.fraction, s.scatter, s.abftRed, s.analyzer, s.harden}
}

// coverageOf classifies retained reports one by one, the reference for
// ABFTReducer.
func coverageOf(reports []*metrics.Report) abft.Coverage {
	var cov abft.Coverage
	for _, r := range reports {
		cov.Add(r)
	}
	return cov
}

// requireSameCriticality asserts two criticality profiles agree bit for
// bit, floats compared by their bits so NaN matches NaN.
func requireSameCriticality(t *testing.T, label string, a, b *core.Criticality) {
	t.Helper()
	if a.Options != b.Options || a.TotalExecutions != b.TotalExecutions || a.CriticalSDCs != b.CriticalSDCs {
		t.Fatalf("%s: criticality counts %+v vs %+v", label, a, b)
	}
	if !reflect.DeepEqual(a.Locality, b.Locality) {
		t.Fatalf("%s: locality %v vs %v", label, a.Locality, b.Locality)
	}
	requireSameFloat(t, label+": FilteredFraction", a.FilteredFraction, b.FilteredFraction)
	requireSameFloat(t, label+": correlation", a.CountVsMRECorrelation, b.CountVsMRECorrelation)
	for _, m := range []struct {
		name string
		a, b core.Summary
	}{{"elements", a.IncorrectElements, b.IncorrectElements}, {"MRE", a.MeanRelErrPct, b.MeanRelErrPct}} {
		requireSameBreakdown(t, label+": "+m.name+" summary",
			[]float64{m.a.Mean, m.a.Median, m.a.P90, m.a.Max},
			[]float64{m.b.Mean, m.b.Median, m.b.P90, m.b.Max})
	}
}

// requireStreamMatchesBatch asserts every reducer output is bit-identical
// to the corresponding frozen batch Result method (result_oracle_test.go).
func requireStreamMatchesBatch(t *testing.T, label string, s streamSinks, info StreamInfo, res *Result, threshold float64) {
	t.Helper()
	if s.tally.Tally != res.Tally {
		t.Fatalf("%s: tally %+v != batch %+v", label, s.tally.Tally, res.Tally)
	}
	if !reflect.DeepEqual(s.tally.ByResource, res.ResourceTally) {
		t.Fatalf("%s: per-resource tallies differ", label)
	}
	if info.Exposure != res.Exposure {
		t.Fatalf("%s: exposures differ: %+v vs %+v", label, info.Exposure, res.Exposure)
	}
	requireSameFloat(t, label+": SDCFIT(0)", s.counts.FIT(0, info.Exposure), res.SDCFIT(0))
	requireSameFloat(t, label+": SDCFIT(t)", s.counts.FIT(1, info.Exposure), res.SDCFIT(threshold))
	requireSameBreakdown(t, label+": LocalityBreakdown(0)",
		s.locAll.Breakdown(info.Exposure).Values, res.LocalityBreakdown(0).Values)
	requireSameBreakdown(t, label+": LocalityBreakdown(t)",
		s.locFilt.Breakdown(info.Exposure).Values, res.LocalityBreakdown(threshold).Values)
	requireSameFloat(t, label+": FilteredFraction", s.fraction.Fraction(), res.FilteredFraction(threshold))
	batchPts := res.Scatter(s.scatter.CapPct)
	if len(s.scatter.Points()) != len(batchPts) {
		t.Fatalf("%s: scatter sizes %d vs %d", label, len(s.scatter.Points()), len(batchPts))
	}
	for i, p := range s.scatter.Points() {
		if p.IncorrectElements != batchPts[i].IncorrectElements {
			t.Fatalf("%s: scatter point %d element count differs", label, i)
		}
		requireSameFloat(t, label+": scatter MRE", p.MeanRelErrPct, batchPts[i].MeanRelErrPct)
	}
	if cov := coverageOf(res.Reports); s.abftRed.Coverage != cov {
		t.Fatalf("%s: ABFT coverage %+v != batch %+v", label, s.abftRed.Coverage, cov)
	}
	requireSameCriticality(t, label+": criticality", s.analyzer.Criticality(),
		core.Analyze(res.Reports, core.Options{ThresholdPct: threshold, CapPct: s.scatter.CapPct}))
	got := s.harden.Advise(info.Device, info.Kernel, info.Input)
	if want := adviseOracle(res, threshold); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: hardening advice %+v != batch %+v", label, got, want)
	}
}

// TestStreamingEquivalenceProperty is the property-based pin of the
// acceptance criterion: for random (seed, strikes, kernel, device,
// threshold, cap, chunk) draws, the streaming reducers must be
// bit-identical to the frozen batch Result methods, under 1 worker and 8
// workers alike. The cap bounds both the scatter points and the
// criticality analysis (core.Analyzer against core.Analyze over the
// retained reports); the selective-hardening reducer is pinned against
// adviseOracle.
func TestStreamingEquivalenceProperty(t *testing.T) {
	rng := xrand.New(20260729)
	devices := []arch.Device{k40.New(), phi.New()}
	kerns := []kernels.Kernel{
		dgemm.New(128),
		lavamd.New(4),
		HotSpotKernel(TestScale),
		CLAMRKernel(TestScale),
	}
	thresholds := []float64{0, 0.5, 1, 2, 5, 50}
	caps := []float64{0, 100, 20000}
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		dev := devices[rng.Intn(len(devices))]
		kern := kerns[rng.Intn(len(kerns))]
		threshold := thresholds[rng.Intn(len(thresholds))]
		capPct := caps[rng.Intn(len(caps))]
		cfg := DefaultConfig(rng.Uint64(), 30+rng.Intn(90))
		cfg.StreamChunk = 1 + rng.Intn(64)
		label := kern.Name() + "/" + dev.ShortName()

		batchCfg := cfg
		batchCfg.Workers = 1
		res := runOracle(dev, kern, batchCfg)

		for _, workers := range []int{1, 8} {
			streamCfg := cfg
			streamCfg.Workers = workers
			s, sinks := newStreamSinks(threshold, capPct, cfg.Strikes+1)
			info, err := RunStreamingCtx(context.Background(), dev, kern, streamCfg, sinks...)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireStreamMatchesBatch(t, label, s, info, res, threshold)
		}
	}
}

// TestScatterReservoirBounded checks the sampling side of the reservoir:
// with a cap smaller than the SDC count it must retain exactly MaxPoints
// points, every one of them a real scatter point of the batch result, and
// the sample must be deterministic for a fixed RNG.
func TestScatterReservoirBounded(t *testing.T) {
	dev := k40.New()
	kern := dgemm.New(128)
	cfg := DefaultConfig(7, 300)
	res := runOracle(dev, kern, cfg)
	if res.Tally.SDC < 20 {
		t.Fatalf("need a report-rich cell, got %d SDCs", res.Tally.SDC)
	}
	const maxPts = 10
	sample := func() []ScatterPoint {
		sc := NewScatterReducer(100, maxPts, xrand.New(5))
		if _, err := RunStreamingCtx(context.Background(), dev, kern, cfg, sc); err != nil {
			t.Fatal(err)
		}
		if sc.Seen() != res.Tally.SDC {
			t.Fatalf("reservoir saw %d SDCs, want %d", sc.Seen(), res.Tally.SDC)
		}
		return sc.Points()
	}
	a := sample()
	if len(a) != maxPts {
		t.Fatalf("reservoir kept %d points, want %d", len(a), maxPts)
	}
	full := map[ScatterPoint]int{}
	for _, p := range res.Scatter(100) {
		full[p]++
	}
	for _, p := range a {
		if full[p] == 0 {
			t.Fatalf("sampled point %+v not in (or oversampled from) the full scatter", p)
		}
		full[p]--
	}
	if b := sample(); !reflect.DeepEqual(a, b) {
		t.Fatal("reservoir sample not deterministic for a fixed RNG")
	}
}

// TestFigurePassMatchesReference pins every artifact of the shared figure
// pass against its reference: the uncached runOracle of each cell plus the
// Result methods (an abft.Coverage over the retained reports for ABFT,
// Result.ResourceTally for the X1 comparison).
func TestFigurePassMatchesReference(t *testing.T) {
	c := DefaultConfig(301, 120)
	dgemmCells := DGEMMCells(k40.New(), TestScale)
	lavaCells := LavaMDCells(phi.New(), TestScale)
	d := figureData(t, append(append([]Cell{}, dgemmCells...), lavaCells...), c)
	dg, lv := runAll(dgemmCells, c), runAll(lavaCells, c)

	requireDeepEqual(t, "DGEMM scatter", d.Scatter(dgemmCells), refScatter(dg, 100))
	requireDeepEqual(t, "LavaMD scatter", d.Scatter(lavaCells), refScatter(lv, 20000))
	requireDeepEqual(t, "DGEMM locality", d.Locality(dgemmCells), refLocality(dg, 2))
	requireDeepEqual(t, "LavaMD locality", d.Locality(lavaCells), refLocality(lv, 2))
	requireDeepEqual(t, "DGEMM scaling", d.Scaling(dgemmCells), refScaling(dg, 2))
	requireDeepEqual(t, "DGEMM ABFT coverage", d.ABFTCoverage(dgemmCells), refABFT(dg))
	requireDeepEqual(t, "X1 resource tally", d.ResourceTally(dgemmCells[0]), dg[0].ResourceTally)

	// The full 18-cell matrix is the expensive comparison: a reduced
	// strike count keeps the property meaningful (every cell, every row
	// field) without doubling the suite's wall time.
	ratioCfg := DefaultConfig(301, 40)
	all := AllCells(TestScale)
	requireDeepEqual(t, "SDC ratios", figureData(t, all, ratioCfg).Ratios(all), refRatios(runAll(all, ratioCfg)))
}

func requireDeepEqual(t *testing.T, label string, got, want any) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: figure pass\n  %+v\ndiffers from reference\n  %+v", label, got, want)
	}
}

func runAll(cells []Cell, c Config) []*Result {
	out := make([]*Result, len(cells))
	for i, cell := range cells {
		out[i] = runOracle(cell.Dev, cell.Kern, c)
	}
	return out
}

func refScatter(rs []*Result, capPct float64) ScatterSeries {
	out := ScatterSeries{Device: rs[0].Device, Kernel: rs[0].Kernel, CapPct: capPct}
	for _, r := range rs {
		out.Series = append(out.Series, LabeledPoints{Label: r.Input, Points: r.Scatter(capPct)})
	}
	return out
}

func refLocality(rs []*Result, thresholdPct float64) LocalityFigure {
	out := LocalityFigure{Device: rs[0].Device, Kernel: rs[0].Kernel, ThresholdPct: thresholdPct}
	for _, r := range rs {
		out.Bars = append(out.Bars, LocalityBar{
			Input:            r.Input,
			All:              r.LocalityBreakdown(0),
			Filtered:         r.LocalityBreakdown(thresholdPct),
			FilterMeaningful: r.FilteredFraction(thresholdPct) > 0,
		})
	}
	return out
}

func refScaling(rs []*Result, thresholdPct float64) []ScalingRow {
	var rows []ScalingRow
	for _, r := range rs {
		row := ScalingRow{Device: r.Device, Input: r.Input, FITAll: r.SDCFIT(0), FITFiltered: r.SDCFIT(thresholdPct)}
		if base := rs[0].SDCFIT(0); base > 0 {
			row.GrowthAll = row.FITAll / base
		}
		if base := rs[0].SDCFIT(thresholdPct); base > 0 {
			row.GrowthFilter = row.FITFiltered / base
		}
		rows = append(rows, row)
	}
	return rows
}

func refABFT(rs []*Result) []ABFTRow {
	var rows []ABFTRow
	for _, r := range rs {
		frac := coverageOf(r.Reports).CorrectableFraction()
		rows = append(rows, ABFTRow{Device: r.Device, Input: r.Input, CorrectableFraction: frac, ResidualFraction: 1 - frac})
	}
	return rows
}

func refRatios(rs []*Result) []RatioRow {
	var rows []RatioRow
	for _, r := range rs {
		rows = append(rows, RatioRow{
			Device: r.Device, Kernel: r.Kernel, Input: r.Input,
			SDC: r.Tally.SDC, DUE: r.Tally.Crash + r.Tally.Hang, Ratio: r.Tally.SDCToDUERatio(),
		})
	}
	return rows
}

// TestCheckpointLogMatchesResult checks the checkpointed event stream is a
// faithful, parseable record: counts, masked executions and per-SDC
// mismatches all reconstruct the batch result.
func TestCheckpointLogMatchesResult(t *testing.T) {
	dev := phi.New()
	kern := dgemm.New(128)
	cfg := DefaultConfig(17, 150)
	cfg.StreamChunk = 32

	info, err := CellInfo(dev, kern, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink, err := NewCheckpointSink(&buf, info, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunStreamingCtx(context.Background(), dev, kern, cfg, sink); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	res := runOracle(dev, kern, cfg)
	l, err := logdata.Parse(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if l.Masked != res.Tally.Masked {
		t.Fatalf("log masked %d != %d", l.Masked, res.Tally.Masked)
	}
	if l.SDCCount() != res.Tally.SDC || l.CrashHangCount() != res.Tally.Crash+res.Tally.Hang {
		t.Fatalf("log counts (%d SDC, %d DUE) != tally %+v", l.SDCCount(), l.CrashHangCount(), res.Tally)
	}
	if got := l.Masked + l.SDCCount() + l.CrashHangCount(); got != cfg.Strikes {
		t.Fatalf("log reconstructs %d strikes, want %d", got, cfg.Strikes)
	}
	reps := l.Reports()
	if len(reps) != len(res.Reports) {
		t.Fatalf("log has %d reports, batch %d", len(reps), len(res.Reports))
	}
	for i, rep := range reps {
		if rep.Count() != res.Reports[i].Count() {
			t.Fatalf("report %d: %d mismatches vs %d", i, rep.Count(), res.Reports[i].Count())
		}
	}
}

// TestCheckpointResumeReproducesTail is the crash-recovery contract: a log
// truncated at an arbitrary byte offset recovers, via RecoverLog, into a
// log whose parsed content is identical to the uninterrupted run's.
func TestCheckpointResumeReproducesTail(t *testing.T) {
	dev := k40.New()
	kern := dgemm.New(128)
	cfg := DefaultConfig(23, 120)
	cfg.StreamChunk = 16

	info, err := CellInfo(dev, kern, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	sink, err := NewCheckpointSink(&full, info, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunStreamingCtx(context.Background(), dev, kern, cfg, sink); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := logdata.Parse(bytes.NewReader(full.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	data := full.Bytes()
	cuts := []int{}
	for _, frac := range []float64{0.15, 0.4, 0.7, 0.95} {
		cuts = append(cuts, int(float64(len(data))*frac))
	}
	// Torn-line cuts: a crash most often tears the very line being
	// flushed, and a torn "#CHK ... masked:20" or "#END ..." can truncate
	// to syntactically valid text with wrong values — recovery must
	// discard the unterminated tail, not trust or choke on it.
	s := string(data)
	if i := strings.LastIndex(s, "#CHK"); i >= 0 {
		cuts = append(cuts, i+10)
	}
	if i := strings.LastIndex(s, "#END"); i >= 0 {
		cuts = append(cuts, i+9, len(data)-1)
	}
	for _, cut := range cuts {
		var recovered bytes.Buffer
		if err := RecoverLog(&recovered, bytes.NewReader(data[:cut]), dev, kern, cfg); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		got, err := logdata.Parse(strings.NewReader(recovered.String()))
		if err != nil {
			t.Fatalf("cut %d: recovered log unparseable: %v", cut, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d bytes: recovered log differs from the uninterrupted run", cut)
		}
	}

	// A complete log passes through recovery untouched too.
	var normalized bytes.Buffer
	if err := RecoverLog(&normalized, bytes.NewReader(data), dev, kern, cfg); err != nil {
		t.Fatal(err)
	}
	got, err := logdata.Parse(strings.NewReader(normalized.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("recovering a complete log changed it")
	}
}

// TestRecoverLogRejectsMismatchedCell guards against resuming a log under
// the wrong cell or seed, which would silently fabricate a hybrid
// campaign.
func TestRecoverLogRejectsMismatchedCell(t *testing.T) {
	dev := k40.New()
	kern := dgemm.New(128)
	cfg := DefaultConfig(29, 60)
	cfg.StreamChunk = 16

	info, err := CellInfo(dev, kern, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink, err := NewCheckpointSink(&buf, info, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunStreamingCtx(context.Background(), dev, kern, cfg, sink); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := RecoverLog(&out, bytes.NewReader(buf.Bytes()), dev, dgemm.New(256), cfg); err == nil {
		t.Fatal("recovery accepted a log from a different input size")
	}
	badSeed := cfg
	badSeed.Seed = 999
	if err := RecoverLog(&out, bytes.NewReader(buf.Bytes()), dev, kern, badSeed); err == nil {
		t.Fatal("recovery accepted a log written under a different seed")
	}
}

// TestStreamChunkInvariant pins StreamChunk's contract: like Workers it
// may never change results, only flush granularity.
func TestStreamChunkInvariant(t *testing.T) {
	dev := phi.New()
	kern := lavamd.New(4)
	base := DefaultConfig(31, 100)
	var first *Result
	for _, chunk := range []int{1, 7, 64, 1000} {
		cfg := base
		cfg.StreamChunk = chunk
		res := runOracle(dev, kern, cfg)
		if first == nil {
			first = res
			continue
		}
		requireIdentical(t, "StreamChunk", first, res)
	}
}

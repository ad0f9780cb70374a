package campaign

import (
	"math"
	"testing"

	"radcrit/internal/arch"
	"radcrit/internal/beam"
	"radcrit/internal/fault"
	"radcrit/internal/injector"
	"radcrit/internal/k40"
	"radcrit/internal/kernels/dgemm"
	"radcrit/internal/phi"
)

func cfg(strikes int) Config { return DefaultConfig(7, strikes) }

// allCells returns the full device x kernel x input matrix of the paper's
// evaluation at the given scale, in the §V presentation order (per device:
// DGEMM sweep, LavaMD sweep, HotSpot, CLAMR).
func allCells(s Scale) []Cell {
	var cells []Cell
	for _, dev := range []arch.Device{k40.New(), phi.New()} {
		cells = append(cells, DeviceCells(dev, s)...)
	}
	return cells
}

// TestRunDeterministicAndCached pins that repeated Runs of one cell are
// bit-identical and that the Result retains one report per SDC.
func TestRunDeterministicAndCached(t *testing.T) {
	dev := k40.New()
	kern := dgemm.New(128)
	a := runOracle(dev, kern, cfg(60))
	b := runOracle(dev, kern, cfg(60))
	requireIdentical(t, "repeated Run", a, b)
	if a.Tally.Count() != 60 {
		t.Fatalf("tally covers %d strikes, want 60", a.Tally.Count())
	}
	if len(a.Reports) != a.Tally.SDC {
		t.Fatal("reports do not match SDC tally")
	}
}

func TestRunProducesAllOutcomeKinds(t *testing.T) {
	res := runOracle(k40.New(), dgemm.New(128), cfg(300))
	if res.Tally.SDC == 0 || res.Tally.Masked == 0 || res.Tally.Crash+res.Tally.Hang == 0 {
		t.Fatalf("outcome mix degenerate: %+v", res.Tally)
	}
}

func TestSDCFITFilterMonotonic(t *testing.T) {
	res := runOracle(k40.New(), dgemm.New(128), cfg(300))
	all := res.SDCFIT(0)
	filtered := res.SDCFIT(2)
	if all <= 0 {
		t.Fatal("zero SDC FIT")
	}
	if filtered > all {
		t.Fatal("filtering cannot raise FIT")
	}
	stricter := res.SDCFIT(50)
	if stricter > filtered {
		t.Fatal("stricter filter cannot raise FIT")
	}
}

func TestLocalityBreakdownSumsToSDCFIT(t *testing.T) {
	res := runOracle(k40.New(), dgemm.New(128), cfg(300))
	bd := res.LocalityBreakdown(0)
	if math.Abs(bd.Total()-res.SDCFIT(0)) > 1e-9*bd.Total() {
		t.Fatalf("breakdown total %v != SDC FIT %v", bd.Total(), res.SDCFIT(0))
	}
	if len(bd.Labels) != 5 {
		t.Fatalf("expected 5 pattern labels, got %v", bd.Labels)
	}
}

func TestScatterMatchesReports(t *testing.T) {
	res := runOracle(phi.New(), dgemm.New(128), cfg(200))
	pts := res.Scatter(100)
	if len(pts) != len(res.Reports) {
		t.Fatal("one point per SDC expected")
	}
	for _, p := range pts {
		if p.IncorrectElements <= 0 {
			t.Fatal("SDC with no incorrect elements")
		}
		if p.MeanRelErrPct > 100 {
			t.Fatalf("cap not applied: %v", p.MeanRelErrPct)
		}
	}
}

func TestExposureBackComputation(t *testing.T) {
	res := runOracle(k40.New(), dgemm.New(128), cfg(120))
	if e := res.Exposure; e.BeamHours <= 0 || e.ExecSeconds <= 0 || e.SensitiveArea <= 0 ||
		e.Board.Derating <= 0 || e.Board.Derating > 1 {
		t.Fatalf("back-computed exposure out of range: %+v", e)
	}
	// The exposure must sit in the single-strike regime (§IV-D).
	if res.Exposure.StrikeRatePerExec() > 1.0001e-3 {
		t.Fatalf("strike rate %e over the single-strike bound", res.Exposure.StrikeRatePerExec())
	}
	// Expected strikes over the back-computed hours ≈ configured strikes.
	mean := res.Exposure.StrikeRatePerExec() * float64(res.Exposure.Executions())
	if math.Abs(mean-120) > 6 {
		t.Fatalf("expected strikes %v, want ~120", mean)
	}
}

func TestPresetsScales(t *testing.T) {
	k40Dev := k40.New()
	phiDev := phi.New()
	if len(DGEMMSizes(PaperScale, k40Dev)) != 3 || len(DGEMMSizes(PaperScale, phiDev)) != 4 {
		t.Fatal("paper DGEMM sweep sizes wrong (Fig. 2: 3 on K40, 4 on Phi)")
	}
	if len(LavaMDSizes(PaperScale, k40Dev)) != 3 || len(LavaMDSizes(PaperScale, phiDev)) != 4 {
		t.Fatal("paper LavaMD sweep sizes wrong (Fig. 4)")
	}
	side, _ := HotSpotConfig(PaperScale)
	if side != 1024 {
		t.Fatal("paper HotSpot is 1024x1024 (Table II)")
	}
	side, _ = CLAMRConfig(PaperScale)
	if side != 512 {
		t.Fatal("paper CLAMR is 512x512 (Table II)")
	}
}

func TestKernelCaches(t *testing.T) {
	a := HotSpotKernel(TestScale)
	b := HotSpotKernel(TestScale)
	if a != b {
		t.Fatal("HotSpot kernel not cached")
	}
	c := CLAMRKernel(TestScale)
	d := CLAMRKernel(TestScale)
	if c != d {
		t.Fatal("CLAMR kernel not cached")
	}
}

func TestAllKernels(t *testing.T) {
	ks := AllKernels(TestScale, k40.New())
	if len(ks) != 4 {
		t.Fatalf("expected 4 kernels, got %d", len(ks))
	}
	names := map[string]bool{}
	for _, k := range ks {
		names[k.Name()] = true
	}
	for _, want := range []string{"DGEMM", "LavaMD", "HotSpot", "CLAMR"} {
		if !names[want] {
			t.Fatalf("missing kernel %s", want)
		}
	}
}

// clamrPhiCell is the cell F8, F9 and S4 read: CLAMR on the Xeon Phi.
func clamrPhiCell() Cell { return Cell{Dev: phi.New(), Kern: CLAMRKernel(TestScale)} }

func TestBuildMassCheckCoverage(t *testing.T) {
	c := clamrPhiCell()
	row := figureData(t, []Cell{c}, cfg(250)).MassCheck(c)
	if row.CriticalSDCs == 0 {
		t.Fatal("no critical CLAMR SDCs sampled")
	}
	// Paper: 82% coverage. Accept a generous band around it.
	if row.Coverage < 0.45 || row.Coverage > 0.99 {
		t.Fatalf("mass-check coverage %v far from the paper's 82%%", row.Coverage)
	}
}

func TestBuildCLAMRLocalityMap(t *testing.T) {
	c := clamrPhiCell()
	m := figureData(t, []Cell{c}, cfg(40)).LocalityMap(c)
	if m.Count == 0 {
		t.Fatal("no SDC found for the locality map")
	}
	marked := 0
	for _, row := range m.Marked {
		for _, b := range row {
			if b {
				marked++
			}
		}
	}
	if marked != m.Count {
		t.Fatalf("marked %d != count %d", marked, m.Count)
	}
}

// figureData runs the shared figure pass over cells, keeping every
// scatter point.
func figureData(t *testing.T, cells []Cell, c Config) *FigureData {
	t.Helper()
	d, err := RunFigurePass(cells, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBuildSDCRatiosCoversMatrix(t *testing.T) {
	rows := figureData(t, allCells(TestScale), cfg(80)).Ratios(allCells(TestScale))
	// K40: 3 DGEMM + 3 LavaMD + HotSpot + CLAMR = 8; Phi: 4+4+2 = 10.
	if len(rows) != 18 {
		t.Fatalf("expected 18 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.SDC < 0 || r.DUE < 0 {
			t.Fatalf("negative counts: %+v", r)
		}
	}
}

func TestBuildABFTCoverage(t *testing.T) {
	cells := DGEMMCells(k40.New(), TestScale)
	rows := figureData(t, cells, cfg(200)).ABFTCoverage(cells)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.CorrectableFraction < 0 || r.CorrectableFraction > 1 {
			t.Fatalf("fraction out of range: %+v", r)
		}
		if math.Abs(r.CorrectableFraction+r.ResidualFraction-1) > 1e-12 {
			t.Fatal("fractions do not sum to 1")
		}
	}
}

func TestFITIsFacilityInvariant(t *testing.T) {
	// FIT normalises errors by fluence, so the same device+workload must
	// yield the same failure rate whether measured under LANSCE's or
	// ISIS's flux (§IV-D: both "provide the predicted error rates on a
	// realistic application"). Identical seeds give identical strike
	// streams; only the flux bookkeeping differs.
	base := DefaultConfig(13, 200)
	lansce := base
	lansce.Facility = beam.LANSCE
	isis := base
	isis.Facility = beam.ISIS
	a := runOracle(k40.New(), dgemm.New(128), lansce)
	b := runOracle(k40.New(), dgemm.New(128), isis)
	fa, fb := a.SDCFIT(0), b.SDCFIT(0)
	if fa <= 0 {
		t.Fatal("zero FIT")
	}
	if diff := math.Abs(fa-fb) / fa; diff > 1e-9 {
		t.Fatalf("FIT depends on facility flux: %v vs %v", fa, fb)
	}
	// Beam hours, however, must shrink under the hotter ISIS beam.
	if b.Exposure.BeamHours >= a.Exposure.BeamHours {
		t.Fatal("higher flux should need fewer beam hours for the same strikes")
	}
}

func TestResourceAttributionConsistent(t *testing.T) {
	res := runOracle(k40.New(), dgemm.New(128), cfg(300))
	if len(res.ReportResource) != len(res.Reports) {
		t.Fatal("one resource per SDC report expected")
	}
	var tallySum injector.Tally
	for _, tl := range res.ResourceTally {
		tallySum.Masked += tl.Masked
		tallySum.SDC += tl.SDC
		tallySum.Crash += tl.Crash
		tallySum.Hang += tl.Hang
	}
	if tallySum != res.Tally {
		t.Fatalf("per-resource tallies %+v do not sum to %+v", tallySum, res.Tally)
	}
}

func TestOutcomeClassesStable(t *testing.T) {
	// Guard the fault class values logdata events carry.
	if fault.Masked != 0 || fault.SDC != 1 || fault.Crash != 2 || fault.Hang != 3 {
		t.Fatal("outcome class values changed; update logdata consumers")
	}
}

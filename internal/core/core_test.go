package core

import (
	"math"
	"strings"
	"testing"

	"radcrit/internal/grid"
	"radcrit/internal/logdata"
	"radcrit/internal/metrics"
)

func report(dims grid.Dims, ms ...metrics.Mismatch) *metrics.Report {
	return &metrics.Report{Dims: dims, TotalElements: dims.Len(), Mismatches: ms}
}

func mk(x, y int, read, expected float64) metrics.Mismatch {
	return metrics.Mismatch{
		Coord: grid.Coord{X: x, Y: y}, Read: read, Expected: expected,
		RelErrPct: metrics.RelativeErrorPct(read, expected),
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	c := Analyze(nil, DefaultOptions())
	if c.TotalExecutions != 0 || c.CriticalSDCs != 0 {
		t.Fatal("empty analysis not zero")
	}
}

func TestAnalyzeFiltersAndSummarizes(t *testing.T) {
	dims := grid.Dims{X: 32, Y: 32, Z: 1}
	reports := []*metrics.Report{
		// Fully tolerable (all below 2%): cleared by the filter.
		report(dims, mk(1, 1, 100.5, 100)),
		// Critical: one large error.
		report(dims, mk(2, 2, 200, 100)),
		// Critical: a line of large errors.
		report(dims, mk(1, 5, 150, 100), mk(7, 5, 150, 100)),
	}
	c := Analyze(reports, DefaultOptions())
	if c.TotalExecutions != 3 || c.CriticalSDCs != 2 {
		t.Fatalf("counts wrong: %+v", c)
	}
	if math.Abs(c.FilteredFraction-1.0/3.0) > 1e-12 {
		t.Fatalf("filtered fraction = %v", c.FilteredFraction)
	}
	if c.Locality[metrics.Single] != 1 || c.Locality[metrics.Line] != 1 {
		t.Fatalf("locality histogram wrong: %v", c.Locality)
	}
	if c.IncorrectElements.Max != 2 {
		t.Fatalf("max incorrect elements = %v", c.IncorrectElements.Max)
	}
	if c.MeanRelErrPct.Max != 100 {
		t.Fatalf("max MRE = %v", c.MeanRelErrPct.Max)
	}
}

func TestAnalyzeNoFilterKeepsEverything(t *testing.T) {
	dims := grid.Dims{X: 8, Y: 8, Z: 1}
	reports := []*metrics.Report{report(dims, mk(0, 0, 100.0001, 100))}
	c := Analyze(reports, Options{ThresholdPct: 0})
	if c.CriticalSDCs != 1 {
		t.Fatal("zero threshold should keep all SDCs")
	}
}

func TestAnalyzeCapping(t *testing.T) {
	dims := grid.Dims{X: 8, Y: 8, Z: 1}
	reports := []*metrics.Report{report(dims, mk(0, 0, 1e6, 1))}
	capped := Analyze(reports, Options{ThresholdPct: 2, CapPct: 100})
	if capped.MeanRelErrPct.Max != 100 {
		t.Fatalf("cap not applied: %v", capped.MeanRelErrPct.Max)
	}
	uncapped := Analyze(reports, Options{ThresholdPct: 2})
	if uncapped.MeanRelErrPct.Max <= 100 {
		t.Fatal("no cap should keep the raw magnitude")
	}
}

func TestLocalityShares(t *testing.T) {
	dims := grid.Dims{X: 8, Y: 8, Z: 1}
	reports := []*metrics.Report{
		report(dims, mk(1, 1, 150, 100), mk(2, 1, 150, 100), mk(1, 2, 150, 100), mk(2, 2, 150, 100)), // square
		report(dims, mk(3, 3, 150, 100)), // single
	}
	c := Analyze(reports, DefaultOptions())
	if c.LocalityShare(metrics.Square) != 0.5 {
		t.Fatalf("square share = %v", c.LocalityShare(metrics.Square))
	}
	if spread := c.LocalityShare(metrics.Cubic) + c.LocalityShare(metrics.Square); spread != 0.5 {
		t.Fatalf("spread share = %v", spread)
	}
}

func TestCorrelation(t *testing.T) {
	dims := grid.Dims{X: 64, Y: 64, Z: 1}
	// More elements <-> bigger errors: positive correlation.
	var reports []*metrics.Report
	for n := 1; n <= 5; n++ {
		var ms []metrics.Mismatch
		for i := 0; i < n; i++ {
			ms = append(ms, mk(i, n, 100+float64(n)*50, 100))
		}
		reports = append(reports, report(dims, ms...))
	}
	c := Analyze(reports, DefaultOptions())
	if c.CountVsMRECorrelation < 0.9 {
		t.Fatalf("correlation = %v", c.CountVsMRECorrelation)
	}
}

func TestAnalyzeLog(t *testing.T) {
	l := &logdata.Log{
		OutputDims: grid.Dims{X: 16, Y: 16, Z: 1},
		Events: []logdata.Event{
			{Class: 1 /* SDC */, Mismatches: []metrics.Mismatch{mk(1, 1, 150, 100)}},
		},
	}
	c := AnalyzeLog(l, DefaultOptions())
	if c.CriticalSDCs != 1 {
		t.Fatalf("log analysis wrong: %+v", c)
	}
}

func TestStringRendering(t *testing.T) {
	dims := grid.Dims{X: 8, Y: 8, Z: 1}
	c := Analyze([]*metrics.Report{report(dims, mk(0, 0, 150, 100))}, DefaultOptions())
	s := c.String()
	for _, want := range []string{"critical SDCs: 1", "incorrect elements", "locality", "single=1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestVerdict(t *testing.T) {
	dims := grid.Dims{X: 8, Y: 8, Z: 1}
	manySmall := Analyze([]*metrics.Report{
		report(dims, mk(0, 0, 103, 100), mk(1, 0, 103, 100), mk(2, 0, 103, 100)),
	}, DefaultOptions())
	fewBig := Analyze([]*metrics.Report{
		report(dims, mk(0, 0, 1000, 100)),
	}, DefaultOptions())
	v := Verdict("XeonPhi", manySmall, "K40", fewBig)
	if !strings.Contains(v, "XeonPhi corrupts more elements") {
		t.Fatalf("verdict wrong:\n%s", v)
	}
	if !strings.Contains(v, "K40 produces larger") {
		t.Fatalf("verdict wrong:\n%s", v)
	}
	if !strings.Contains(v, "trade-off") {
		t.Fatal("trade-off phrasing missing")
	}
}

package radcrit

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"radcrit/internal/campaign"
	"radcrit/internal/logdata"
	"radcrit/internal/metrics"
)

// device and kernel build registered devices and kernels through the
// facade, failing the test on error.
func device(t *testing.T, name string) Device {
	t.Helper()
	dev, err := NewDevice(name)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func kernel(t *testing.T, spec string) Kernel {
	t.Helper()
	kern, err := NewKernel(spec)
	if err != nil {
		t.Fatal(err)
	}
	return kern
}

// config is the standard campaign configuration under seed: what a plan
// with no facility or base-time override runs.
func config(seed uint64, strikes int) Config { return NewPlan(seed, strikes).Config() }

// stream runs one campaign cell through the facade's streaming engine,
// failing the test on error.
func stream(t *testing.T, dev Device, kern Kernel, cfg Config, sinks ...Sink) StreamInfo {
	t.Helper()
	info, err := RunCampaignStreaming(dev, kern, cfg, sinks...)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// analyze runs one cell and returns its criticality profile under opts.
func analyze(t *testing.T, dev Device, kern Kernel, cfg Config, opts AnalysisOptions) *Criticality {
	t.Helper()
	crit := NewCriticalityReducer(opts)
	stream(t, dev, kern, cfg, crit)
	return crit.Criticality()
}

// TestEndToEnd exercises the full public pipeline: device + kernel ->
// campaign -> log round trip -> criticality analysis -> rendering.
func TestEndToEnd(t *testing.T) {
	dev := device(t, "k40")
	kern := kernel(t, "dgemm:128")
	cfg := config(1, 200)

	// One pass feeds the streamed checkpoint log and every reducer.
	var sb strings.Builder
	logw, err := NewCampaignLogWriter(&sb, dev, kern, cfg)
	if err != nil {
		t.Fatal(err)
	}
	crit := NewCriticalityReducer(DefaultAnalysisOptions())
	acc := NewSummaryAccumulator([]float64{0, DefaultThresholdPct})
	info := stream(t, dev, kern, cfg, logw, crit, acc)
	if err := logw.Close(); err != nil {
		t.Fatal(err)
	}
	sum := acc.Summary(info)

	if sum.Tally.Count() != 200 {
		t.Fatalf("strikes accounted: %d", sum.Tally.Count())
	}
	if sum.Tally.SDC == 0 {
		t.Fatal("no SDCs in 200 strikes")
	}

	// Log round trip.
	l, err := ParseLog(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if l.SDCCount() != sum.Tally.SDC || l.Masked != sum.Tally.Masked {
		t.Fatal("log tally diverged")
	}

	// Analysis paths agree.
	direct := crit.Criticality()
	fromLog := AnalyzeLog(l, DefaultAnalysisOptions())
	if direct.TotalExecutions != sum.Tally.SDC || direct.CriticalSDCs != fromLog.CriticalSDCs {
		t.Fatalf("analysis diverged: %d of %d vs %d", direct.CriticalSDCs, direct.TotalExecutions, fromLog.CriticalSDCs)
	}

	// The renderer produces content.
	var out strings.Builder
	RenderLocality(&out, info, acc.Summary(info))
	if !strings.Contains(out.String(), "K40 DGEMM") {
		t.Fatal("renderer produced no figure content")
	}
}

func TestDevicesDiffer(t *testing.T) {
	k, p := device(t, "k40"), device(t, "phi")
	if k.ShortName() == p.ShortName() {
		t.Fatal("devices not distinct")
	}
}

// TestCrossArchitectureHeadline reproduces the abstract's headline claim:
// "arithmetic operations are less critical for the K40" — for DGEMM the
// K40's surviving errors are smaller and fewer than the Phi's.
func TestCrossArchitectureHeadline(t *testing.T) {
	kern := kernel(t, "dgemm:256")
	cfg := config(3, 300)
	opts := DefaultAnalysisOptions()
	opts.CapPct = 100 // the paper's Fig. 2 display cap

	k40Crit := analyze(t, device(t, "k40"), kern, cfg, opts)
	phiCrit := analyze(t, device(t, "phi"), kern, cfg, opts)

	// K40 clears far more runs through the 2% filter (paper: 50-75% vs
	// essentially none on the Phi).
	if k40Crit.FilteredFraction <= phiCrit.FilteredFraction {
		t.Fatalf("K40 filtered %v should exceed Phi %v",
			k40Crit.FilteredFraction, phiCrit.FilteredFraction)
	}
	// Phi's DGEMM errors are near the cap; K40's sit lower.
	if phiCrit.MeanRelErrPct.Median < k40Crit.MeanRelErrPct.Median {
		t.Fatalf("Phi median MRE %v should exceed K40's %v",
			phiCrit.MeanRelErrPct.Median, k40Crit.MeanRelErrPct.Median)
	}
	// The verdict must articulate a comparison.
	v := Verdict("K40", k40Crit, "XeonPhi", phiCrit)
	if !strings.Contains(v, "K40") || !strings.Contains(v, "XeonPhi") {
		t.Fatal("verdict names missing")
	}
}

// TestLavaMDTradeoff reproduces §V-E: the Phi corrupts more elements with
// smaller relative errors than the K40 for FDM-style codes.
func TestLavaMDTradeoff(t *testing.T) {
	cfg := config(5, 300)
	// Fig. 4 plots all mismatches (no filter), capped at 20,000% as in
	// the paper's figure note.
	opts := AnalysisOptions{ThresholdPct: 0, CapPct: 20000}

	k40Crit := analyze(t, device(t, "k40"), kernel(t, "lavamd:5"), cfg, opts)
	phiCrit := analyze(t, device(t, "phi"), kernel(t, "lavamd:5"), cfg, opts)
	if k40Crit.CriticalSDCs == 0 || phiCrit.CriticalSDCs == 0 {
		t.Fatal("no critical SDCs sampled")
	}
	if phiCrit.IncorrectElements.Median <= k40Crit.IncorrectElements.Median {
		t.Fatalf("Phi should corrupt more elements: %v vs %v",
			phiCrit.IncorrectElements.Median, k40Crit.IncorrectElements.Median)
	}
	// Fig. 4a vs 4b: the K40's point cloud sits at larger relative errors
	// (transcendental-unit amplification) while the Phi's — diluted over
	// thousands of cache-shared consumers — sits markedly lower.
	if k40Crit.MeanRelErrPct.Median <= phiCrit.MeanRelErrPct.Median {
		t.Fatalf("K40 median LavaMD MRE %.3f should exceed the Phi's %.3f",
			k40Crit.MeanRelErrPct.Median, phiCrit.MeanRelErrPct.Median)
	}
}

// TestHotSpotResilience reproduces §V-C: stencils are the most resilient
// class — the 2% filter clears the large majority of HotSpot SDCs.
func TestHotSpotResilience(t *testing.T) {
	kern := kernel(t, "hotspot:64x80")
	for _, name := range []string{"k40", "phi"} {
		dev := device(t, name)
		acc := NewSummaryAccumulator([]float64{2})
		sum := acc.Summary(stream(t, dev, kern, config(9, 300), acc))
		if sum.Tally.SDC == 0 {
			t.Fatalf("%s: no SDCs", dev.ShortName())
		}
		frac := sum.FilteredFraction[0]
		if frac < 0.6 {
			t.Fatalf("%s: only %.0f%%%% of HotSpot SDCs filtered; paper reports 80-95%%",
				dev.ShortName(), 100*frac)
		}
	}
}

// TestCLAMRCriticality reproduces §V-D: CLAMR errors are widespread,
// mostly square, and essentially none fall under the 2% filter.
func TestCLAMRCriticality(t *testing.T) {
	kern := kernel(t, "clamr:48x60")
	acc := NewSummaryAccumulator([]float64{2})
	red := NewCriticalityReducer(DefaultAnalysisOptions())
	sum := acc.Summary(stream(t, device(t, "phi"), kern, config(11, 300), acc, red))
	if sum.Tally.SDC == 0 {
		t.Fatal("no SDCs")
	}
	if frac := sum.FilteredFraction[0]; frac > 0.35 {
		t.Fatalf("%.0f%% of CLAMR SDCs filtered; the paper found none", 100*frac)
	}
	crit := red.Criticality()
	if crit.LocalityShare(0) != 0 { // metrics.NoPattern guard
		t.Fatal("critical SDC with no pattern")
	}
	if spread := crit.LocalityShare(metrics.Cubic) + crit.LocalityShare(metrics.Square); spread < 0.7 {
		t.Fatalf("square+cubic share %.2f; the paper reports 99%% square", spread)
	}
}

// TestStreamingFacade exercises the public streaming pipeline: reducers
// fed by RunCampaignStreaming in small chunks reproduce a serial run at
// the default chunk, a checkpointed log written alongside is parseable,
// and a truncated copy recovers, through the ResumePlanCell path the
// daemon and the fleet use, into the identical log.
func TestStreamingFacade(t *testing.T) {
	dev := device(t, "k40")
	kern := kernel(t, "dgemm:128")
	cfg := config(3, 120)
	serial := cfg
	serial.Workers = 1
	wantAcc := NewSummaryAccumulator([]float64{0})
	want := wantAcc.Summary(stream(t, dev, kern, serial, wantAcc))
	cfg.StreamChunk = 32

	var logBuf bytes.Buffer
	ckpt, err := NewCampaignLogWriter(&logBuf, dev, kern, cfg)
	if err != nil {
		t.Fatal(err)
	}
	acc := NewSummaryAccumulator([]float64{0, DefaultThresholdPct})
	info, err := RunCampaignStreaming(dev, kern, cfg, acc, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Close(); err != nil {
		t.Fatal(err)
	}
	sum := acc.Summary(info)
	if sum.Tally != want.Tally {
		t.Fatalf("chunked tally %+v != serial %+v", sum.Tally, want.Tally)
	}
	if got := sum.SDCFIT[0]; got != want.SDCFIT[0] {
		t.Fatalf("chunked SDC FIT %v != serial %v", got, want.SDCFIT[0])
	}
	full, err := ParseLog(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if full.Masked != sum.Tally.Masked || full.SDCCount() != sum.Tally.SDC {
		t.Fatalf("log counts (masked %d, sdc %d) != tally %+v", full.Masked, full.SDCCount(), sum.Tally)
	}

	// Crash recovery: drop the tail, recover, compare.
	cut := logBuf.Len() / 2
	res, err := logdata.ParseResume(bytes.NewReader(logBuf.Bytes()[:cut]))
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete || res.Next <= 0 {
		t.Fatalf("truncated log should resume mid-campaign, got %+v", res)
	}
	var recovered bytes.Buffer
	cell := campaign.Cell{Dev: dev, Kern: kern}
	if _, _, err := campaign.ResumePlanCell(context.Background(), bytes.NewReader(logBuf.Bytes()[:cut]), &recovered, cell, cfg, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ParseLog(bytes.NewReader(recovered.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, full) {
		t.Fatal("recovered log differs from the uninterrupted run")
	}
}

package campaign

// This file freezes the retired report-retaining batch engine as a test
// oracle: Result, its five statistics methods, the resultSink that built
// it, and the selective-hardening ranking that read it. Production code
// computes every one of these statistics with a streaming reducer; the
// golden, property and determinism suites compare those reducers against
// this independent, report-retaining reference. Do not "fix" or share code
// with it: its value is that it is a second implementation.

import (
	"context"
	"sort"

	"radcrit/internal/arch"
	"radcrit/internal/beam"
	"radcrit/internal/fault"
	"radcrit/internal/fit"
	"radcrit/internal/harden"
	"radcrit/internal/injector"
	"radcrit/internal/kernels"
	"radcrit/internal/metrics"
)

// Result is one experiment cell's aggregated outcome.
type Result struct {
	Device  string
	Kernel  string
	Input   string
	Profile arch.Profile

	Strikes int
	Tally   injector.Tally
	Reports []*metrics.Report // one per SDC execution
	// ReportResource[i] is the struck resource behind Reports[i],
	// enabling the selective-hardening analysis the paper proposes as
	// future work (§VI).
	ReportResource []fault.Resource
	// ResourceTally is the per-resource outcome accounting.
	ResourceTally map[fault.Resource]injector.Tally
	Exposure      beam.Exposure
}

// runOracle simulates cfg.Strikes strikes of kern on dev and returns the
// cell's Result with every SDC report retained. It is one RunStreamingCtx
// pass with the resultSink stack, so the Result is bit-identical to a
// serial execution for a given seed whatever the Workers and StreamChunk
// settings (pinned by parallel_test.go and the golden/property suites).
// Nothing is memoised: every call pays the full strike loop.
//
// runOracle cannot be cancelled and panics on an invalid cell.
func runOracle(dev arch.Device, kern kernels.Kernel, cfg Config) *Result {
	sink := newResultSink()
	info, err := RunStreamingCtx(context.Background(), dev, kern, cfg, sink)
	if err != nil {
		panic(err.Error())
	}
	return sink.result(info)
}

// SDCFIT returns the SDC failure rate in FIT, optionally applying the
// relative-error filter first (executions whose mismatches are all below
// the threshold are no longer errors, §III).
func (r *Result) SDCFIT(thresholdPct float64) float64 {
	count := 0
	for _, rep := range r.Reports {
		if thresholdPct <= 0 || rep.Filter(thresholdPct).IsSDC() {
			count++
		}
	}
	return fit.FITFromCampaign(count, r.Exposure)
}

// DUEFIT returns the crash+hang (detectable-unrecoverable) rate in FIT.
func (r *Result) DUEFIT() float64 {
	return fit.FITFromCampaign(r.Tally.Crash+r.Tally.Hang, r.Exposure)
}

// LocalityBreakdown splits the SDC FIT by spatial pattern after applying
// the relative-error filter (thresholdPct <= 0 keeps all mismatches):
// the data behind Figures 3, 5 and 7.
func (r *Result) LocalityBreakdown(thresholdPct float64) fit.Breakdown {
	counts := make(map[metrics.Pattern]int)
	for _, rep := range r.Reports {
		eff := rep
		if thresholdPct > 0 {
			eff = rep.Filter(thresholdPct)
		}
		if !eff.IsSDC() {
			continue
		}
		counts[eff.Locality()]++
	}
	bd := fit.Breakdown{}
	for _, p := range metrics.Patterns {
		bd.Labels = append(bd.Labels, p.String())
		bd.Values = append(bd.Values, fit.FITFromCampaign(counts[p], r.Exposure))
	}
	return bd
}

// Scatter extracts the (incorrect elements, mean relative error) points,
// capping the per-element relative error at capPct as the paper's figures
// do for readability (capPct <= 0 disables capping).
func (r *Result) Scatter(capPct float64) []ScatterPoint {
	limit := capPct
	if limit <= 0 {
		limit = 1e308
	}
	pts := make([]ScatterPoint, 0, len(r.Reports))
	for _, rep := range r.Reports {
		pts = append(pts, ScatterPoint{
			IncorrectElements: rep.Count(),
			MeanRelErrPct:     rep.MeanRelErrPct(limit),
		})
	}
	return pts
}

// FilteredFraction is the fraction of SDC executions fully cleared by the
// relative-error filter (§V: 50-75% for DGEMM on K40, ~95% for HotSpot).
func (r *Result) FilteredFraction(thresholdPct float64) float64 {
	if len(r.Reports) == 0 {
		return 0
	}
	cleared := 0
	for _, rep := range r.Reports {
		if !rep.Filter(thresholdPct).IsSDC() {
			cleared++
		}
	}
	return float64(cleared) / float64(len(r.Reports))
}

// resultSink rebuilds the report-retaining *Result from the outcome
// stream: the stack that makes runOracle one RunStreamingCtx pass.
// The tally/per-resource accounting is delegated to a TallyReducer (one
// merge loop, not two to drift apart); this sink only adds the report
// retention that makes a Result a Result. Because the engine recycles
// reports after the chunk's sinks consume them, retention means cloning:
// the Result owns deep copies with lifetimes independent of the pool.
type resultSink struct {
	tally *TallyReducer
	res   *Result
}

func newResultSink() *resultSink {
	return &resultSink{tally: NewTallyReducer(), res: &Result{}}
}

// Consume implements Sink.
func (s *resultSink) Consume(i int, out injector.Outcome) {
	s.tally.Consume(i, out)
	if out.Class == fault.SDC {
		s.res.Reports = append(s.res.Reports, out.Report.Clone())
		s.res.ReportResource = append(s.res.ReportResource, out.Resource)
	}
}

// result stamps the cell identity onto the accumulated outcome.
func (s *resultSink) result(info StreamInfo) *Result {
	s.res.Tally = s.tally.Tally
	s.res.ResourceTally = s.tally.ByResource
	s.res.Device = info.Device
	s.res.Kernel = info.Kernel
	s.res.Input = info.Input
	s.res.Profile = info.Profile
	s.res.Strikes = info.Strikes
	s.res.Exposure = info.Exposure
	return s.res
}

// adviseOracle is the selective-hardening ranking as it read a retained
// Result, the reference for harden.Reducer.
func adviseOracle(res *Result, thresholdPct float64) harden.Advice {
	adv := harden.Advice{
		Device:       res.Device,
		Kernel:       res.Kernel,
		Input:        res.Input,
		ThresholdPct: thresholdPct,
	}
	counts := make(map[fault.Resource]int)
	for i, rep := range res.Reports {
		if i >= len(res.ReportResource) {
			break
		}
		eff := rep
		if thresholdPct > 0 {
			eff = rep.Filter(thresholdPct)
		}
		if !eff.IsSDC() {
			continue
		}
		counts[res.ReportResource[i]]++
		adv.TotalCriticalSDCs++
	}
	for r, c := range counts {
		adv.Rankings = append(adv.Rankings, harden.ResourceImpact{Resource: r, CriticalSDCs: c})
	}
	sort.Slice(adv.Rankings, func(i, j int) bool {
		if adv.Rankings[i].CriticalSDCs != adv.Rankings[j].CriticalSDCs {
			return adv.Rankings[i].CriticalSDCs > adv.Rankings[j].CriticalSDCs
		}
		return adv.Rankings[i].Resource < adv.Rankings[j].Resource
	})
	cum := 0
	for i := range adv.Rankings {
		cum += adv.Rankings[i].CriticalSDCs
		if adv.TotalCriticalSDCs > 0 {
			adv.Rankings[i].Share = float64(adv.Rankings[i].CriticalSDCs) / float64(adv.TotalCriticalSDCs)
			adv.Rankings[i].CumulativeShare = float64(cum) / float64(adv.TotalCriticalSDCs)
		}
	}
	return adv
}

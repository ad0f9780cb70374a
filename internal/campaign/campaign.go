// Package campaign assembles full beam-test campaigns: device x kernel x
// input-size experiment matrices, strike sampling, outcome aggregation,
// FIT accounting and the per-figure data series of the paper's evaluation
// (§V). It is the layer cmd/figures, the benchmarks and the public facade
// build on.
package campaign

import (
	"context"
	"errors"
	"fmt"

	"radcrit/internal/arch"
	"radcrit/internal/beam"
	"radcrit/internal/fault"
	"radcrit/internal/fit"
	"radcrit/internal/injector"
	"radcrit/internal/kernels"
	"radcrit/internal/metrics"
)

// CellError is the typed failure of one experiment cell: it carries the
// cell's identity so a matrix or plan run can report which cell failed,
// and wraps the underlying cause. Both engines return it in place of the
// panics the pre-plan API used for invalid cells.
type CellError struct {
	Device, Kernel, Input string
	Err                   error
}

func (e *CellError) Error() string {
	return fmt.Sprintf("campaign: cell %s/%s/%s: %v", e.Device, e.Kernel, e.Input, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// isCancellation reports whether err is the caller's context speaking —
// the one error class the engines must never wrap as a cell failure.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// cellError wraps err with the cell's identity (no-op for nil, for an
// error that already carries it, and for context cancellation, which is
// the caller's signal, not the cell's fault).
func cellError(dev arch.Device, kern kernels.Kernel, err error) error {
	var ce *CellError
	if err == nil || isCancellation(err) || errors.As(err, &ce) {
		return err
	}
	return &CellError{Device: dev.ShortName(), Kernel: kern.Name(), Input: kern.InputLabel(), Err: err}
}

// Config controls one experiment's statistical weight.
type Config struct {
	// Seed is the campaign's reproducibility root.
	Seed uint64
	// Strikes is the number of particle strikes to simulate per
	// (device, kernel, input) cell. The paper gathers enough beam time
	// for statistically significant counts; several hundred strikes per
	// cell reproduce the trends.
	Strikes int
	// BaseExecSeconds scales a profile's RelRuntime into wall seconds.
	BaseExecSeconds float64
	// Facility provides the neutron flux (default LANSCE).
	Facility beam.Facility
	// Workers sizes the strike worker pool (0 = GOMAXPROCS). Every strike
	// derives its randomness from an independent per-index RNG split and
	// outcomes are merged in index order, so Workers affects wall time
	// only — Results are bit-identical for any value. It is therefore
	// deliberately excluded from CellKey.
	Workers int
	// StreamChunk sizes the streaming engine's execution window
	// (0 = DefaultStreamChunk). Like Workers it can never change results —
	// outcomes are consumed in strike-index order whatever the chunking —
	// it only sets the flush/checkpoint granularity and the engine's peak
	// outcome memory, so it too is excluded from CellKey.
	//
	// One carve-out: when Adaptive is set with CheckEvery == 0, the look
	// spacing defaults to the effective chunk, and the look schedule DOES
	// change where a cell stops. The resolved spacing (not StreamChunk
	// itself) is what enters CellKey.
	StreamChunk int
	// Adaptive, when non-nil, enables sequential early stopping: the
	// streaming engine evaluates Adaptive's stop rule at every chunk
	// boundary and ends the cell once its SDC-proportion confidence
	// interval is tight enough (DESIGN.md §11). Run ignores it entirely:
	// a retained Result always covers the full budget.
	Adaptive *AdaptiveSpec
}

// DefaultConfig returns the standard campaign configuration.
func DefaultConfig(seed uint64, strikes int) Config {
	return Config{
		Seed:            seed,
		Strikes:         strikes,
		BaseExecSeconds: 1.0,
		Facility:        beam.LANSCE,
	}
}

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

// Run simulates cfg.Strikes strikes of kern on dev and returns the cell's
// Result with every SDC report retained. It is one RunStreamingCtx pass
// with the resultSink stack, so the Result is bit-identical to a serial
// execution for a given seed whatever the Workers and StreamChunk
// settings (pinned by parallel_test.go and the golden/property suites).
// Nothing is memoised: every call pays the full strike loop.
//
// Run cannot be cancelled and panics on an invalid cell. Plan-driven
// callers use a Runner (or RunPlanCell), which returns a typed *CellError
// instead.
func Run(dev arch.Device, kern kernels.Kernel, cfg Config) *Result {
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

// ScatterPoint is one SDC execution in a Figure-2/4/6/8 style scatter.
type ScatterPoint struct {
	IncorrectElements int
	MeanRelErrPct     float64
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

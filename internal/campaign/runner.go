package campaign

import (
	"context"
	"errors"

	"radcrit/internal/fit"
	"radcrit/internal/injector"
)

// Summary is one cell's aggregated statistics under the plan's
// thresholds, folded by online reducers. Every statistic is bit-identical
// to the frozen report-retaining oracle over the same cell (pinned by the
// golden suite).
type Summary struct {
	// Thresholds are the relative-error filters (percent) the per-index
	// slices below are computed under.
	Thresholds []float64
	// Tally is the outcome census of the cell.
	Tally injector.Tally
	// SDCFIT[k] is the SDC failure rate (FIT, arbitrary units) under
	// Thresholds[k].
	SDCFIT []float64
	// Locality[k] is the spatial-pattern FIT breakdown under
	// Thresholds[k].
	Locality []fit.Breakdown
	// FilteredFraction[k] is the share of SDC executions fully cleared by
	// Thresholds[k].
	FilteredFraction []float64
	// DUEFIT is the crash+hang failure rate.
	DUEFIT float64
}

// LocalityBar renders the Figure-3/5/7 bar pair of the cell labelled
// input from a summary whose thresholds are {0, t}: the unfiltered
// breakdown, the breakdown above t, and whether t cleared any SDC.
func (s *Summary) LocalityBar(input string) LocalityBar {
	return LocalityBar{
		Input:            input,
		All:              s.Locality[0],
		Filtered:         s.Locality[1],
		FilterMeaningful: s.FilteredFraction[1] > 0,
	}
}

// CellOutcome is one plan cell's execution record.
type CellOutcome struct {
	// Spec is the cell as the plan named it.
	Spec CellSpec
	// Info is the resolved cell identity and exposure (zero if the cell
	// failed before its session was established). On a cancelled
	// streaming cell both Info and Summary are rescaled to the strikes
	// actually consumed, so rates derived from either are consistent.
	Info StreamInfo
	// Summary holds the cell's statistics; on a cancelled streaming cell
	// it holds the chunk-aligned partial state accumulated so far. Nil
	// when the cell failed outright.
	Summary *Summary
	// Err is the cell's failure: a *CellError for an invalid cell, or
	// ctx.Err() if the run was cancelled while this cell was in flight.
	Err error
}

// PlanResult is a Runner's record of one plan execution, cell for cell in
// plan order. A cancelled or partially failed run still returns a
// PlanResult holding every outcome gathered so far.
type PlanResult struct {
	// Plan is the executed plan.
	Plan *Plan
	// Thresholds are the effective summary thresholds.
	Thresholds []float64
	// Cells holds one outcome per plan cell. On early cancellation the
	// tail cells carry Err == ctx.Err() and no summary.
	Cells []*CellOutcome
}

// Err joins the per-cell errors (nil when every cell succeeded).
func (r *PlanResult) Err() error {
	var errs []error
	for _, c := range r.Cells {
		if c != nil && c.Err != nil {
			errs = append(errs, c.Err)
		}
	}
	return errors.Join(errs...)
}

// Progress carries a Runner's optional observation hooks. Hooks are
// invoked synchronously from the runner's goroutine, so they never need
// their own locking.
type Progress struct {
	// OnCell fires when a cell completes (successfully or not), with its
	// plan index.
	OnCell func(i int, out *CellOutcome)
	// OnChunk fires at every streaming chunk boundary with the number of
	// strikes consumed so far; a cell's checkpoint log, if any, already
	// covers that boundary.
	OnChunk func(cell int, done int)
}

// Runner executes a validated plan under a context. Implementations
// honour cancellation at chunk boundaries, return the partial PlanResult
// gathered so far together with ctx.Err(), and leak no goroutines. An
// invalid plan is rejected up front (Plan.Validate) — no panic is
// reachable from any Runner for any plan value.
type Runner interface {
	Run(ctx context.Context, p *Plan) (*PlanResult, error)
}

// StreamRunner executes cells sequentially through the streaming engine:
// summaries come from online reducers, no reports are retained, and peak
// memory per cell is O(StreamChunk + reducer state). A cancelled cell's
// outcome keeps the partial reducer state accumulated up to the last
// complete chunk.
type StreamRunner struct {
	Progress Progress
}

var _ Runner = (*StreamRunner)(nil)

// planStart validates and builds the plan (honouring ctx between kernel
// constructions — the golden simulations happen here) and allocates the
// shared result shell. An invalid plan returns (nil, nil, err); a
// cancellation during the build phase returns the shell with every cell
// marked ctx.Err(), honouring the Runner contract that a cancelled run
// always yields a partial PlanResult.
func planStart(ctx context.Context, p *Plan) (*PlanResult, []Cell, error) {
	cells, err := p.BuildCtx(ctx)
	if err != nil {
		if isCancellation(err) {
			res := planShell(p)
			markCancelled(res.Cells, err)
			return res, nil, err
		}
		return nil, nil, err
	}
	return planShell(p), cells, nil
}

// planShell allocates a PlanResult with one empty outcome per plan cell.
func planShell(p *Plan) *PlanResult {
	res := &PlanResult{
		Plan:       p,
		Thresholds: p.EffectiveThresholds(),
		Cells:      make([]*CellOutcome, len(p.Cells)),
	}
	for i := range res.Cells {
		res.Cells[i] = &CellOutcome{Spec: p.Cells[i]}
	}
	return res
}

// markCancelled stamps ctx's error on outcomes the runner never reached.
func markCancelled(outs []*CellOutcome, err error) {
	for _, o := range outs {
		if o.Err == nil && o.Summary == nil {
			o.Err = err
		}
	}
}

// prefixInfo rescales a cell's exposure to the strikes consumed before a
// cancellation, so partial FIT values are true rates over the prefix.
func prefixInfo(info StreamInfo, consumed int) StreamInfo {
	info.Strikes = consumed
	info.Exposure.BeamHours = info.Exposure.HoursForStrikes(float64(consumed))
	return info
}

// Run implements Runner.
func (r *StreamRunner) Run(ctx context.Context, p *Plan) (*PlanResult, error) {
	res, cells, err := planStart(ctx, p)
	if err != nil {
		// res is non-nil (with cells marked) for build-phase cancellation,
		// nil for an invalid plan.
		return res, err
	}
	cfg := p.Config()
	for i, cell := range cells {
		out := res.Cells[i]
		if cerr := ctx.Err(); cerr != nil {
			markCancelled(res.Cells[i:], cerr)
			return res, cerr
		}
		var extra []Sink
		if r.Progress.OnChunk != nil {
			extra = append(extra, FlushFunc(func(next int) { r.Progress.OnChunk(i, next) }))
		}
		// RunPlanCell handles the cancellation bookkeeping: a cancelled
		// cell comes back with its info rescaled to the strikes actually
		// consumed and the partial summary over that prefix — against the
		// full planned exposure the FIT rates would be biased low by the
		// cancelled fraction.
		info, sum, err := RunPlanCell(ctx, cell, cfg, res.Thresholds, extra...)
		out.Info, out.Summary = info, sum
		if err != nil {
			out.Err = err
			if isCancellation(err) {
				if r.Progress.OnCell != nil {
					r.Progress.OnCell(i, out)
				}
				markCancelled(res.Cells[i+1:], err)
				return res, ctx.Err()
			}
		}
		if r.Progress.OnCell != nil {
			r.Progress.OnCell(i, out)
		}
	}
	return res, res.Err()
}

package campaign

import (
	"bytes"
	"context"
	"errors"
	"io"

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
	// OnCell fires once per cell, with its plan index, as soon as the
	// cell's outcome is final: it failed, its stop rule fired, it ran
	// the budget of its last epoch, or a cancellation interrupted it
	// after it had run. StreamRunner fires OnCell(i) before cell i+1
	// starts; a cell a cancellation reached before it ran gets ctx's
	// error and no OnCell.
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
// memory per cell is O(window + reducer state). It is the plan loop
// capped at one epoch: an adaptive cell may stop early, but the strikes
// it frees are never re-dealt, so every cell's outcome is its own
// RunPlanCell's (the daemon, which runs each cell through
// ResumePlanCell, reports the same). A cancelled cell's outcome keeps the
// partial reducer state accumulated up to the last complete chunk.
type StreamRunner struct {
	Progress Progress
}

var _ Runner = (*StreamRunner)(nil)

// Run implements Runner.
func (r *StreamRunner) Run(ctx context.Context, p *Plan) (*PlanResult, error) {
	return runPlan(ctx, p, 1, r.Progress, nil)
}

// prefixInfo rescales a cell's exposure to the strikes consumed before a
// cancellation, so partial FIT values are true rates over the prefix.
func prefixInfo(info StreamInfo, consumed int) StreamInfo {
	info.Strikes = consumed
	info.Exposure.BeamHours = info.Exposure.HoursForStrikes(float64(consumed))
	return info
}

// planCell is one cell's state in the plan loop. Past setup, run is the
// only reference to the cell's kernel, so dropping it frees a finished
// cell's golden state while later cells run.
type planCell struct {
	run    *cellRun // nil once the cell's outcome is final
	logw   io.WriteCloser
	budget int  // current strike allocation
	ran    bool // advanced at least once
}

// runPlan is the one plan loop under both Runners. It runs the plan in
// budget epochs: epoch 1 deals every cell the plan's strike budget, a
// cell whose stop rule fires returns its unused strikes to a shared
// pool, and between epochs the pool is re-dealt to the open cells
// (reallocate). A plan runs at most its adaptive spec's MaxEpochs
// epochs, one without a spec, and never more than epochCap when it is
// positive. logs, when non-nil, supplies each cell's checkpoint-log
// writer (AdaptiveRunner.Logs).
//
// A cell's outcome becomes final in one place (finish): when the cell
// fails, when its stop rule fires, when it has run the budget of its
// last epoch, or when a cancellation interrupts it. That is also where
// its log is sealed or closed, OnCell fires and its cellRun is released.
func runPlan(ctx context.Context, p *Plan, epochCap int, prog Progress, logs func(int, CellSpec) (io.WriteCloser, error)) (*PlanResult, error) {
	// BuildCtx validates the plan first, then honours ctx between kernel
	// constructions (the golden simulations happen here).
	cells, err := p.BuildCtx(ctx)
	if err != nil && !isCancellation(err) {
		return nil, err
	}
	res := &PlanResult{
		Plan:       p,
		Thresholds: p.EffectiveThresholds(),
		Cells:      make([]*CellOutcome, len(p.Cells)),
	}
	for i := range res.Cells {
		// err is set only if the build was cancelled: no cell ran.
		res.Cells[i] = &CellOutcome{Spec: p.Cells[i], Err: err}
	}
	if err != nil {
		return res, err
	}
	cfg, rule, adaptive := adaptiveConfig(p.Config())
	epochs := 1
	if adaptive {
		epochs = cfg.Adaptive.MaxEpochs
	}
	if epochCap > 0 {
		epochs = min(epochs, epochCap)
	}

	states := make([]planCell, len(cells))
	// finish makes cell i's outcome final: err is nil for a completed
	// cell, the cell's failure, or ctx's error. Only a completed cell's
	// log gets its #END trailer; any other is left resumable. OnCell
	// fires for every cell but one a cancellation reached before it ran.
	finish := func(i int, err error) {
		st, out := &states[i], res.Cells[i]
		out.Err = err
		if err == nil || (st.ran && isCancellation(err)) {
			out.Info, out.Summary = st.run.outcome()
		}
		if err == nil && st.run.chk != nil {
			out.Err = st.run.chk.Close()
		}
		if st.logw != nil {
			if cerr := st.logw.Close(); cerr != nil && out.Err == nil {
				out.Err = cerr
			}
		}
		st.run = nil
		if prog.OnCell != nil && (st.ran || !isCancellation(err)) {
			prog.OnCell(i, out)
		}
	}
	// finishOpen finishes every cell still open with err.
	finishOpen := func(err error) {
		for i := range states {
			if states[i].run != nil {
				finish(i, err)
			}
		}
	}

	for i, cell := range cells {
		var extra []Sink
		if prog.OnChunk != nil {
			extra = append(extra, FlushFunc(func(next int) { prog.OnChunk(i, next) }))
		}
		st := &states[i]
		st.run, st.budget = newCellRun(cell, cfg, res.Thresholds, extra), cfg.Strikes
		if logs == nil {
			continue
		}
		w, err := logs(i, p.Cells[i])
		if err == nil {
			st.logw = w
			_, err = st.run.salvage(bytes.NewReader(nil), w)
		}
		if err != nil {
			finish(i, cellError(cell.Dev, cell.Kern, err))
		}
	}

	pool := 0
	for epoch := 1; epoch <= epochs; epoch++ {
		for i := range states {
			st := &states[i]
			if st.run == nil || st.run.next >= st.budget {
				continue
			}
			if cerr := ctx.Err(); cerr != nil {
				finishOpen(cerr)
				return res, cerr
			}
			alloc := st.budget
			err := st.run.advance(ctx, alloc)
			if err != nil && !isCancellation(err) {
				finish(i, err)
				continue
			}
			st.ran = true
			if err != nil {
				finishOpen(ctx.Err())
				return res, ctx.Err()
			}
			if st.run.stopped() {
				pool += st.budget - st.run.next
				st.budget = st.run.next
			}
			st.run.recordEpoch(epoch, alloc)
			if st.run.stopped() || epoch == epochs {
				finish(i, nil)
			}
		}
		var open []int
		for i := range states {
			if states[i].run != nil {
				open = append(open, i)
			}
		}
		if len(open) == 0 || epoch == epochs || pool < cfg.StreamChunk {
			break
		}
		pool = reallocate(states, open, rule, pool, cfg.StreamChunk)
	}
	// Cells still open ran their budget in the last epoch that dealt any.
	finishOpen(nil)
	return res, res.Err()
}

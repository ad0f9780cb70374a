package campaign

// This file is the adaptive campaign layer: sequential early stopping
// for individual cells and deterministic strike-budget reallocation
// across a plan (DESIGN.md §11).
//
// The determinism story, because everything else hangs off it: a stop
// decision is a pure function of (SDC count, trials) evaluated at chunk
// boundaries, through stats.StopRule's anytime-valid confidence
// sequence. The engine already guarantees that the outcome stream is a
// bit-identical, chunk-aligned sequence for any worker count and any
// interruption history, so two runs of the same cell always present the
// rule with the same (SDC, trials) pairs in the same order and stop at
// the same strike. An early-stopped cell is therefore exactly "a cell
// whose strike budget was its stop point": its summary is byte-identical
// to a straight run with Strikes = the stop point, and a salvaged log
// replayed through ResumePlanCell re-derives the same decision from the
// same events.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sort"

	"radcrit/internal/fault"
	"radcrit/internal/injector"
	"radcrit/internal/logdata"
	"radcrit/internal/stats"
)

// ErrEarlyStop is the cancellation cause an earlyStopSink arms when its
// stop rule fires: the cell is complete at its chunk-aligned stop point,
// not aborted. cellRun.advance translates it back into a nil error, and
// the cell's outcome is rescaled to the strikes actually consumed.
var ErrEarlyStop = errors.New("campaign: confidence target reached")

// Default adaptive parameters.
const (
	// DefaultAdaptiveAlpha is the confidence sequence's overall error
	// budget when a spec leaves Alpha unset.
	DefaultAdaptiveAlpha = stats.DefaultAlpha
	// DefaultMaxEpochs bounds the AdaptiveRunner's reallocation rounds.
	DefaultMaxEpochs = 8
)

// AdaptiveSpec configures sequential early stopping for a plan: stop a
// cell once the anytime-valid confidence interval for its SDC proportion
// is tighter than TargetHalfWidth, and (under AdaptiveRunner) reallocate
// the freed strikes to the cells with the widest intervals.
type AdaptiveSpec struct {
	// TargetHalfWidth is the interval half-width at which a cell stops.
	// Required, in (0, 0.5]: a proportion's half-width cannot exceed 0.5.
	TargetHalfWidth float64 `json:"target_half_width"`
	// MinStrikes is the floor below which no cell stops (0 = none).
	MinStrikes int `json:"min_strikes,omitempty"`
	// CheckEvery is the look spacing in strikes. The engine forces its
	// stream chunk to this value so every chunk boundary is a scheduled
	// look; 0 adopts the plan's effective stream chunk.
	CheckEvery int `json:"check_every,omitempty"`
	// Alpha is the confidence sequence's overall error budget
	// (0 = DefaultAdaptiveAlpha).
	Alpha float64 `json:"alpha,omitempty"`
	// MaxEpochs bounds AdaptiveRunner's budget-reallocation rounds
	// (0 = DefaultMaxEpochs). It never affects a single cell's summary —
	// only how many times freed strikes are re-dealt — so it is excluded
	// from CellKey.
	MaxEpochs int `json:"max_epochs,omitempty"`
}

// validate rejects malformed specs with errors naming the field.
func (a *AdaptiveSpec) validate() error {
	if !(a.TargetHalfWidth > 0 && a.TargetHalfWidth <= 0.5) {
		return fmt.Errorf("target_half_width must be in (0, 0.5], got %v", a.TargetHalfWidth)
	}
	if a.MinStrikes < 0 {
		return fmt.Errorf("negative min_strikes %d", a.MinStrikes)
	}
	if a.CheckEvery < 0 {
		return fmt.Errorf("negative check_every %d", a.CheckEvery)
	}
	if a.Alpha < 0 || a.Alpha >= 1 {
		return fmt.Errorf("alpha must be in [0, 1), got %v", a.Alpha)
	}
	if a.MaxEpochs < 0 {
		return fmt.Errorf("negative max_epochs %d", a.MaxEpochs)
	}
	return nil
}

// normalized fills defaults against the plan's effective stream chunk,
// yielding the canonical spec CellKey and the engine run under.
func (a AdaptiveSpec) normalized(chunk int) AdaptiveSpec {
	if a.CheckEvery <= 0 {
		a.CheckEvery = chunk
	}
	if a.Alpha <= 0 || a.Alpha >= 1 {
		a.Alpha = DefaultAdaptiveAlpha
	}
	if a.MaxEpochs <= 0 {
		a.MaxEpochs = DefaultMaxEpochs
	}
	return a
}

// rule converts the (normalized) spec into the engine's stop rule.
func (a AdaptiveSpec) rule() stats.StopRule {
	return stats.StopRule{
		TargetHalfWidth: a.TargetHalfWidth,
		MinStrikes:      a.MinStrikes,
		CheckEvery:      a.CheckEvery,
		Alpha:           a.Alpha,
	}
}

// effectiveChunk is the stream chunk the engine will actually use.
func (cfg Config) effectiveChunk() int {
	if cfg.StreamChunk > 0 {
		return cfg.StreamChunk
	}
	return DefaultStreamChunk
}

// adaptiveConfig resolves cfg's adaptive spec: defaults filled in, the
// stream chunk forced to the look spacing (so every chunk boundary is a
// scheduled look and stop points land exactly on #CHK records), and the
// stop rule extracted. Non-adaptive configs pass through untouched.
func adaptiveConfig(cfg Config) (Config, stats.StopRule, bool) {
	if cfg.Adaptive == nil {
		return cfg, stats.StopRule{}, false
	}
	a := cfg.Adaptive.normalized(cfg.effectiveChunk())
	cfg.Adaptive = &a
	cfg.StreamChunk = a.CheckEvery
	return cfg, a.rule(), true
}

// earlyStopSink rides the streaming sink stack, counting SDC outcomes
// and evaluating the stop rule at every chunk boundary. When the rule
// fires it cancels the run's context with ErrEarlyStop — the engine's
// existing chunk-aligned cancellation path does the actual stopping, so
// the sinks ahead of it always hold a clean chunk-aligned prefix.
//
// It must be appended LAST in the sink order: a CheckpointSink earlier
// in the stack has then already flushed the #CHK record the decision is
// anchored to before the stop is requested.
type earlyStopSink struct {
	rule   stats.StopRule
	cancel context.CancelCauseFunc

	sdc     int
	stopped bool
	stopAt  int
}

// Consume implements Sink.
func (s *earlyStopSink) Consume(_ int, out injector.Outcome) {
	if out.Class == fault.SDC {
		s.sdc++
	}
}

// seed replays one salvaged log event into the SDC count, so a resumed
// tail evaluates the rule over the full history.
func (s *earlyStopSink) seed(ev logdata.Event) {
	if ev.Class == fault.SDC {
		s.sdc++
	}
}

// FlushChunk implements ChunkFlusher: chunk boundaries are the looks.
func (s *earlyStopSink) FlushChunk(next int) { s.evaluate(next) }

// evaluate runs the stop rule at an absolute trial count.
func (s *earlyStopSink) evaluate(trials int) {
	if s.stopped {
		return
	}
	d, ok := s.rule.Evaluate(s.sdc, trials)
	if !ok || !d.Stop {
		return
	}
	s.stopped, s.stopAt = true, trials
	if s.cancel != nil {
		s.cancel(ErrEarlyStop)
	}
}

// mark renders the sink's state as the epoch record for a run that ended
// (stopped or exhausted) at consumed strikes under the given allocation.
func (s *earlyStopSink) mark(epoch, alloc, consumed int) logdata.EpochMark {
	return logdata.EpochMark{
		Epoch:     epoch,
		Alloc:     alloc,
		Consumed:  consumed,
		SDC:       s.sdc,
		HalfWidth: s.rule.HalfWidthAt(s.sdc, consumed),
		Stopped:   s.stopped,
	}
}

// EpochRecorder is implemented by sinks that persist #EPOCH budget
// records (CheckpointSink). The adaptive paths scan a cell's extra sinks
// for it, so whatever checkpoint log the caller attached receives the
// stop record next to its #CHK lines.
type EpochRecorder interface {
	RecordEpoch(m logdata.EpochMark) error
}

// AdaptiveRunner executes a plan in budget epochs: every cell starts
// with the plan's strike budget; cells whose confidence interval reaches
// the target stop early and return their unused strikes to a shared
// pool; between epochs the pool is re-dealt (in chunk quanta) to the
// open cells with the widest intervals, widest first. The loop ends when
// every cell has stopped, the pool is too small to deal, or MaxEpochs is
// reached.
//
// Reallocation is a pure function of the epoch log — cells are ranked by
// the same half-width the #EPOCH records carry, ties break on plan index
// — so a re-run of the same plan deals the same budgets. Each cell's
// summary is byte-identical to a straight run with Strikes = the strikes
// it actually consumed (the early-stop determinism contract), whatever
// epoch history produced that number.
//
// A plan without an Adaptive spec delegates to StreamRunner: outcomes
// are byte-identical to today's non-adaptive path.
type AdaptiveRunner struct {
	Progress Progress
	// Logs, when non-nil, supplies a checkpoint-log writer per cell. The
	// runner streams the cell's #CHK and #EPOCH records into it across
	// epochs and closes it when the plan finishes; an error creating a
	// log fails that cell. On cancellation the log is left without its
	// #END trailer — resumable, like every interrupted checkpoint log.
	Logs func(i int, spec CellSpec) (io.WriteCloser, error)
}

var _ Runner = (*AdaptiveRunner)(nil)

// adaptiveCellState is one cell's long-lived state across epochs.
type adaptiveCellState struct {
	run  *cellRun
	logw io.WriteCloser

	budget  int // current strike allocation
	started bool
	failed  bool
}

// open reports the cell still wants strikes: neither stopped nor failed.
func (st *adaptiveCellState) open() bool {
	return !st.failed && !st.run.stopped()
}

// Run implements Runner.
func (r *AdaptiveRunner) Run(ctx context.Context, p *Plan) (*PlanResult, error) {
	if p == nil || p.Adaptive == nil {
		sr := &StreamRunner{Progress: r.Progress}
		return sr.Run(ctx, p)
	}
	res, cells, err := planStart(ctx, p)
	if err != nil {
		return res, err
	}
	baseCfg, rule, _ := adaptiveConfig(p.Config())
	chunk := baseCfg.StreamChunk
	maxEpochs := baseCfg.Adaptive.MaxEpochs

	states := make([]*adaptiveCellState, len(cells))
	for i, cell := range cells {
		var extra []Sink
		if r.Progress.OnChunk != nil {
			extra = append(extra, FlushFunc(func(next int) { r.Progress.OnChunk(i, next) }))
		}
		st := &adaptiveCellState{
			run:    newCellRun(cell, baseCfg, res.Thresholds, extra),
			budget: baseCfg.Strikes,
		}
		states[i] = st
		if r.Logs == nil {
			continue
		}
		w, err := r.Logs(i, p.Cells[i])
		if err == nil {
			st.logw = w
			_, err = st.run.salvage(bytes.NewReader(nil), w)
		}
		if err != nil {
			st.failed = true
			res.Cells[i].Err = cellError(cell.Dev, cell.Kern, err)
		}
	}

	pool := 0
	for epoch := 1; epoch <= maxEpochs; epoch++ {
		for i, st := range states {
			if !st.open() || st.run.next >= st.budget {
				continue
			}
			if cerr := ctx.Err(); cerr != nil {
				return r.finishCancelled(res, states, cerr)
			}
			alloc := st.budget
			err := st.run.advance(ctx, alloc)
			if err != nil && !isCancellation(err) {
				st.failed = true
				res.Cells[i].Err = err
				continue
			}
			st.started = true
			if err != nil {
				return r.finishCancelled(res, states, ctx.Err())
			}
			if st.run.stopped() {
				pool += st.budget - st.run.next
				st.budget = st.run.next
			}
			st.run.recordEpoch(epoch, alloc)
		}

		var open []int
		for i, st := range states {
			if st.open() {
				open = append(open, i)
			}
		}
		if len(open) == 0 || epoch == maxEpochs || pool < chunk {
			break
		}
		// Reallocate the freed pool to the widest intervals, widest first
		// (ties in plan order), in chunk quanta so continuation runs stay
		// look-aligned. Each open cell gets an equal chunk-quantized
		// share; the remainder is dealt a chunk at a time down the
		// ranking.
		sort.SliceStable(open, func(a, b int) bool {
			sa, sb := states[open[a]].run, states[open[b]].run
			ha := rule.HalfWidthAt(sa.es.sdc, sa.next)
			hb := rule.HalfWidthAt(sb.es.sdc, sb.next)
			if ha != hb {
				return ha > hb
			}
			return open[a] < open[b]
		})
		per := pool / len(open)
		per -= per % chunk
		rem := pool - per*len(open)
		for _, idx := range open {
			add := per
			if rem >= chunk {
				add += chunk
				rem -= chunk
			}
			states[idx].budget += add
			pool -= add
		}
	}

	for i, st := range states {
		out := res.Cells[i]
		switch {
		case st.failed:
		case st.started:
			out.Info, out.Summary = st.run.outcome()
		default:
			out.Err = fmt.Errorf("campaign: cell %d never ran", i)
		}
		r.closeCell(st, out)
		if r.Progress.OnCell != nil {
			r.Progress.OnCell(i, out)
		}
	}
	return res, res.Err()
}

// closeCell seals a cell's checkpoint log (trailer + file handle).
func (r *AdaptiveRunner) closeCell(st *adaptiveCellState, out *CellOutcome) {
	if st.run.chk != nil {
		if err := st.run.chk.Close(); err != nil && out.Err == nil {
			out.Err = err
		}
	}
	if st.logw != nil {
		if err := st.logw.Close(); err != nil && out.Err == nil {
			out.Err = err
		}
	}
}

// finishCancelled fills partial outcomes after an external cancellation:
// cells with progress keep their prefix-rescaled info and partial
// summary (like StreamRunner's cancelled cell), checkpoint logs are left
// WITHOUT their #END trailer so they stay resumable, and untouched cells
// are marked with ctx's error.
func (r *AdaptiveRunner) finishCancelled(res *PlanResult, states []*adaptiveCellState, cerr error) (*PlanResult, error) {
	for i, st := range states {
		out := res.Cells[i]
		if st.started {
			out.Info, out.Summary = st.run.outcome()
			if !st.run.stopped() {
				out.Err = cerr
			}
		} else if out.Err == nil {
			out.Err = cerr
		}
		// Close file handles but never the CheckpointSink: no #END means
		// the log resumes.
		if st.logw != nil {
			_ = st.logw.Close()
		}
	}
	return res, cerr
}

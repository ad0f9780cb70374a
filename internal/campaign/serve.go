package campaign

// This file is the serving-layer surface: the per-cell execution
// primitives a long-lived campaign service composes — summary
// accumulation as a Sink and one-cell execution with attachable sinks,
// with or without a checkpoint log. RunPlanCell and ResumePlanCell are
// thin calls into one core (runCell), and the Runners' plan loop
// (runPlan) advances the same cellRun once per budget epoch, so a daemon
// that interleaves caching and checkpointing still runs the exact engine
// path the in-process runners are pinned against.

import (
	"context"
	"fmt"
	"io"

	"radcrit/internal/fault"
	"radcrit/internal/fit"
	"radcrit/internal/grid"
	"radcrit/internal/injector"
	"radcrit/internal/logdata"
	"radcrit/internal/metrics"
)

// SummaryAccumulator folds a streaming outcome sequence into a Summary —
// the reducer every Runner and RunPlanCell attach per cell, exported as a
// Sink so serving layers can combine it with their own sinks (checkpoint
// logs, progress relays) on one engine pass. It additionally replays salvaged
// checkpoint-log events, which is what makes a resumed cell's summary
// bit-identical to an uninterrupted run: the prefix comes from the log's
// exact hex-float record, the tail from the deterministic per-index RNG
// splits.
//
// It is the one reducer of the §III filtered statistics (SDC FIT,
// locality breakdown, filter-cleared share). Each SDC is read once per
// threshold without copying it, and each distinct survivor set is
// classified for locality once.
//
// Not safe for concurrent use; the engine's in-order consume loop is a
// single goroutine (Sink contract).
type SummaryAccumulator struct {
	ts    []float64
	tally *TallyReducer
	per   []thresholdCounts // one per threshold
}

// thresholdCounts is a SummaryAccumulator's state under one threshold.
type thresholdCounts struct {
	sdcs     int                     // SDCs that survive it (every SDC when t <= 0)
	cleared  int                     // SDCs with no mismatch above it
	locality [metrics.Random + 1]int // spatial-pattern counts of the survivors
	// size and pattern describe the current SDC's locality set.
	size    int
	pattern metrics.Pattern
}

// NewSummaryAccumulator returns an empty accumulator summarising under
// the given thresholds (a plan's EffectiveThresholds).
func NewSummaryAccumulator(thresholds []float64) *SummaryAccumulator {
	return &SummaryAccumulator{
		ts:    append([]float64(nil), thresholds...),
		tally: NewTallyReducer(),
		per:   make([]thresholdCounts, len(thresholds)),
	}
}

// Consume implements Sink. A threshold t <= 0 turns the filter off for
// the SDC count and the locality breakdown (every SDC counts, locality is
// over the unfiltered report), while the cleared share still applies the
// strict > t test.
func (a *SummaryAccumulator) Consume(i int, out injector.Outcome) {
	a.tally.Consume(i, out)
	if out.Class != fault.SDC {
		return
	}
	rep := out.Report
	for k, t := range a.ts {
		c := &a.per[k]
		n := rep.CountAbove(t)
		if n == 0 {
			c.cleared++
		}
		if t <= 0 {
			n = rep.Count()
			c.sdcs++
		} else if n > 0 {
			c.sdcs++
		}
		c.size = n
		if n > 0 {
			c.pattern = a.pattern(rep, k, t, n)
			c.locality[c.pattern]++
		}
	}
}

// pattern classifies threshold k's locality set of n mismatches. Survivor
// sets are nested, so an earlier threshold whose set has the same size
// has the same set, and its pattern is reused.
func (a *SummaryAccumulator) pattern(rep *metrics.Report, k int, t float64, n int) metrics.Pattern {
	for _, prev := range a.per[:k] {
		if prev.size == n {
			return prev.pattern
		}
	}
	if n == rep.Count() {
		return rep.Locality()
	}
	return rep.LocalityAbove(t)
}

// AddMasked records n masked executions without per-strike payloads — the
// form a checkpoint log carries them in (they are a count in the #CHK
// record, not events). Replay-only; the live path counts masked outcomes
// through Consume.
func (a *SummaryAccumulator) AddMasked(n int) {
	a.tally.Tally.Masked += n
}

// ReplayEvent feeds one salvaged checkpoint-log event into the reducers,
// reconstructing the outcome exactly as logdata.Log.Reports does: the
// logged hex floats round-trip bit-exactly and RelErrPct is recomputed
// with the same function the live comparator uses, so every summary
// statistic derived from a replayed prefix matches the live run bit for
// bit. dims is the cell's output shape (the log header's dims). The
// injection scope is not reconstructed — no reducer reads it.
func (a *SummaryAccumulator) ReplayEvent(ev logdata.Event, dims grid.Dims) {
	out := injector.Outcome{Class: ev.Class}
	if r, ok := fault.ResourceFromString(ev.Resource); ok {
		out.Resource = r
	}
	if ev.Class == fault.SDC {
		out.Report = &metrics.Report{
			Dims:          dims,
			TotalElements: dims.Len(),
			Mismatches:    ev.Mismatches,
		}
	}
	a.Consume(ev.Exec, out)
}

// Consumed returns the number of strikes folded in so far (replayed and
// live), the prefix length a cancelled cell's summary covers.
func (a *SummaryAccumulator) Consumed() int {
	t := a.tally.Tally
	return t.Masked + t.SDC + t.Crash + t.Hang
}

// Summary renders the accumulated state under the cell's exposure. Valid
// on partial (cancelled) state too: every statistic is over the
// chunk-aligned prefix consumed so far, under a prefix-rescaled info.
func (a *SummaryAccumulator) Summary(info StreamInfo) *Summary {
	s := &Summary{
		Thresholds: append([]float64(nil), a.ts...),
		Tally:      a.tally.Tally,
		DUEFIT:     fit.FITFromCampaign(a.tally.Tally.Crash+a.tally.Tally.Hang, info.Exposure),
	}
	for _, c := range a.per {
		bd := fit.Breakdown{}
		for _, p := range metrics.Patterns {
			bd.Labels = append(bd.Labels, p.String())
			bd.Values = append(bd.Values, fit.FITFromCampaign(c.locality[p], info.Exposure))
		}
		frac := 0.0
		if sdcs := a.tally.Tally.SDC; sdcs > 0 {
			frac = float64(c.cleared) / float64(sdcs)
		}
		s.SDCFIT = append(s.SDCFIT, fit.FITFromCampaign(c.sdcs, info.Exposure))
		s.Locality = append(s.Locality, bd)
		s.FilteredFraction = append(s.FilteredFraction, frac)
	}
	return s
}

// RunPlanCell executes one resolved plan cell through the streaming
// engine and returns its StreamInfo and Summary — the outcome
// StreamRunner reports for that cell, exported for serving layers. The
// extra sinks observe the same in-order outcome stream after the
// accumulator. It keeps no checkpoint
// log of its own; ResumePlanCell is the same run under one.
//
// On cancellation the returned info is rescaled to the chunk-aligned
// prefix actually consumed and the partial summary over that prefix is
// returned alongside ctx.Err(); on any other error the summary is nil.
//
// When cfg.Adaptive is set the cell may stop early: the stop rule is
// evaluated at every chunk boundary (the stream chunk is forced to the
// look spacing), and a rule-triggered stop is a COMPLETION, not an error
// — the info and summary come back rescaled to the stop point with a nil
// error, and an #EPOCH record lands in any EpochRecorder among the extra
// sinks. Callers distinguish "stopped early" from "ran the budget" by
// Info.Strikes, never by the error.
func RunPlanCell(ctx context.Context, cell Cell, cfg Config, thresholds []float64, extra ...Sink) (StreamInfo, *Summary, error) {
	return runCell(ctx, nil, nil, cell, cfg, thresholds, extra)
}

// ResumePlanCell runs a cell under the checkpoint log it writes to w,
// picking up from prev, the (possibly truncated, possibly empty) log a
// previous execution left behind. It is the one way to run a cell under
// a checkpoint log: an empty prev is a fresh run from strike 0 whose log
// is byte-identical to a NewCheckpointSink attached to RunPlanCell.
// Otherwise the salvaged prefix — everything up to the last complete
// #CHK record — is replayed into the summary and into the new log, and
// only the uncovered tail re-runs. The final summary is bit-identical to
// an uninterrupted run's (per-index RNG splits reproduce the tail;
// hex-float logging reproduces the prefix), and the log written to w is
// event-for-event what an uninterrupted run would have written — so a
// resume interrupted again stays resumable, indefinitely.
//
// prev must describe this cell and seed; a mismatch, like an
// unparseable prev, is an error rather than a silently wrong summary,
// and is returned before anything is written to w — a caller may discard
// prev and start again on the same w. On cancellation the returned
// info/summary cover the consumed prefix (like RunPlanCell) and w holds
// a resumable log without its #END trailer. Adaptive configs behave as
// under RunPlanCell, with the #EPOCH records going to w's log.
func ResumePlanCell(ctx context.Context, prev io.Reader, w io.Writer, cell Cell, cfg Config, thresholds []float64, extra ...Sink) (StreamInfo, *Summary, error) {
	return runCell(ctx, prev, w, cell, cfg, thresholds, extra)
}

// runCell is the one body under RunPlanCell and ResumePlanCell: one cellRun advanced once to the full budget. With w nil
// the cell runs unlogged from strike 0; otherwise salvage opens w's log
// and replays prev's prefix first.
func runCell(ctx context.Context, prev io.Reader, w io.Writer, cell Cell, cfg Config, thresholds []float64, extra []Sink) (StreamInfo, *Summary, error) {
	c := newCellRun(cell, cfg, thresholds, extra)
	epoch := 1
	if w != nil {
		res, err := c.salvage(prev, w)
		if err != nil {
			return c.info, nil, err
		}
		if n := len(res.Log.Epochs); n > 0 {
			epoch = res.Log.Epochs[n-1].Epoch + 1
		}
	}
	if err := c.advance(ctx, c.cfg.Strikes); err != nil {
		if isCancellation(err) {
			info, sum := c.outcome()
			return info, sum, err
		}
		return c.info, nil, err
	}
	if !c.complete {
		// A complete log already carries its #EPOCH records.
		c.recordEpoch(epoch, c.cfg.Strikes)
	}
	info, sum := c.outcome()
	if c.chk != nil {
		// The #END trailer is written only on completion, so an
		// interrupted run leaves w resumable.
		if err := c.chk.Close(); err != nil {
			return info, nil, err
		}
	}
	return info, sum, nil
}

// cellRun is one cell's execution state: the summary accumulator, the
// optional checkpoint log, the caller's extra sinks and, under an
// adaptive config, the stop rule. runCell advances it once; the plan
// loop (runPlan) advances it once per budget epoch. advance fixes the
// sink order: the accumulator, then the checkpoint log (so a chunk's
// #CHK record is written before any extra sink sees that chunk
// boundary), then the extra sinks, then the stop rule (so every
// checkpoint has flushed before it requests a stop).
//
// Under an adaptive config a salvaged prefix is re-judged exactly as the
// original run judged it: the replayed events seed the stop rule's SDC
// count, the salvage point itself is a look — a run whose stop decision
// was made but whose log tore before recording it stops again without
// re-running anything — and the re-run tail evaluates live at every
// boundary. The decisions are pure functions of (SDC, trials), so the
// resumed cell stops where the uninterrupted one did. Nothing salvaged
// means no look at trial 0 and nothing written beyond a fresh run's log.
type cellRun struct {
	cell  Cell
	cfg   Config // adaptive spec resolved; Strikes is the planned budget
	acc   *SummaryAccumulator
	chk   *CheckpointSink
	extra []Sink
	es    *earlyStopSink // nil unless adaptive

	info     StreamInfo
	next     int  // first strike index not yet run
	complete bool // salvaged a complete log: nothing left to run
}

func newCellRun(cell Cell, cfg Config, thresholds []float64, extra []Sink) *cellRun {
	cfg, rule, adaptive := adaptiveConfig(cfg)
	c := &cellRun{cell: cell, cfg: cfg, acc: NewSummaryAccumulator(thresholds), extra: extra}
	if adaptive {
		c.es = &earlyStopSink{rule: rule}
	}
	return c
}

// stopped reports that the stop rule has fired.
func (c *cellRun) stopped() bool { return c.es != nil && c.es.stopped }

// advance runs strikes [next, budget) through the engine. A stop the rule
// requested is a completion, not an error: the cell then holds its
// chunk-aligned stop point. A cell already stopped or complete runs
// nothing.
func (c *cellRun) advance(ctx context.Context, budget int) error {
	if c.complete || c.stopped() {
		return nil
	}
	sinks := make([]Sink, 0, len(c.extra)+3)
	sinks = append(sinks, c.acc)
	if c.chk != nil {
		sinks = append(sinks, c.chk)
	}
	sinks = append(sinks, c.extra...)
	runCtx := ctx
	if c.es != nil {
		var cancel context.CancelCauseFunc
		runCtx, cancel = context.WithCancelCause(ctx)
		defer cancel(nil)
		c.es.cancel = cancel
		sinks = append(sinks, c.es)
	}
	cfg := c.cfg
	cfg.Strikes = budget
	var err error
	c.info, err = RunStreamingFromCtx(runCtx, c.cell.Dev, c.cell.Kern, cfg, c.next, sinks...)
	c.next = c.acc.Consumed()
	if c.stopped() && ctx.Err() == nil {
		// The stop rule cancelled, not the caller.
		return nil
	}
	return err
}

// recordEpoch writes the adaptive #EPOCH record for a run that ended
// (stopped or exhausted) under allocation alloc into every EpochRecorder
// among the log and the extra sinks. Write errors are sticky inside the
// recorder and surface at its Close. A no-op for a non-adaptive cell.
func (c *cellRun) recordEpoch(epoch, alloc int) {
	if c.es == nil {
		return
	}
	m := c.es.mark(epoch, alloc, c.acc.Consumed())
	if c.chk != nil {
		_ = c.chk.RecordEpoch(m)
	}
	for _, s := range c.extra {
		if r, ok := s.(EpochRecorder); ok {
			_ = r.RecordEpoch(m)
		}
	}
}

// outcome renders the cell's info, rescaled to the strikes it actually
// holds so the summary rates are true over the executed prefix, and the
// summary under it. Valid on a cancelled cell too.
func (c *cellRun) outcome() (StreamInfo, *Summary) {
	info := prefixInfo(c.info, c.acc.Consumed())
	return info, c.acc.Summary(info)
}

// salvage validates that prev describes the cell, opens the checkpoint
// log at w, and replays prev's salvaged prefix into it, into the
// accumulator and into the stop rule. With an empty prev it only opens
// the log. Every check precedes the first write to w. Salvaged #EPOCH
// marks are re-emitted where they originally stood: a mark at consumed c
// precedes the first event at strike index >= c, so every re-emitted
// #EPOCH still agrees with the cumulative SDC count at its position — the
// consistency both parsers enforce.
func (c *cellRun) salvage(prev io.Reader, w io.Writer) (logdata.Resume, error) {
	res, err := logdata.ParseResume(prev)
	if err != nil {
		return res, err
	}
	info, err := CellInfo(c.cell.Dev, c.cell.Kern, c.cfg)
	if err != nil {
		return res, err
	}
	c.info = info
	// Header fields are serialised space-escaped and the escaping is lossy
	// (logdata.HeaderField), so the live metadata is escaped before the
	// comparison — the parsed side cannot be unescaped.
	if res.Log.Device != "" &&
		(res.Log.Device != logdata.HeaderField(info.Device) ||
			res.Log.Kernel != logdata.HeaderField(info.Kernel) ||
			res.Log.Input != logdata.HeaderField(info.Input)) {
		return res, fmt.Errorf("campaign: log describes %s/%s/%s, not %s/%s/%s",
			res.Log.Device, res.Log.Kernel, res.Log.Input, info.Device, info.Kernel, info.Input)
	}
	if res.Log.Device != "" && res.Log.Seed != c.cfg.Seed {
		return res, fmt.Errorf("campaign: log was written under seed %d, not %d — the tail would not match",
			res.Log.Seed, c.cfg.Seed)
	}
	chk, err := NewCheckpointSink(w, info, c.cfg.Seed)
	if err != nil {
		return res, err
	}
	c.chk = chk
	chk.sw.AddMasked(res.Masked)
	c.acc.AddMasked(res.Masked)
	marks := res.Log.Epochs
	for _, ev := range res.Log.Events {
		for len(marks) > 0 && marks[0].Consumed <= ev.Exec {
			if err := chk.RecordEpoch(marks[0]); err != nil {
				return res, err
			}
			marks = marks[1:]
		}
		if err := chk.sw.WriteEvent(ev); err != nil {
			return res, err
		}
		c.acc.ReplayEvent(ev, info.Profile.OutputDims)
		if c.es != nil {
			c.es.seed(ev)
		}
	}
	for _, m := range marks {
		if err := chk.RecordEpoch(m); err != nil {
			return res, err
		}
	}
	c.next, c.complete = res.Next, res.Complete
	if res.Next > 0 && !res.Complete {
		// Flush a checkpoint covering the replayed prefix before any tail
		// strike runs: the new log is now durable to at least the point
		// the old one reached, so an interruption during the tail — or
		// even before its first chunk — can never lose salvaged progress.
		if err := chk.sw.Checkpoint(res.Next); err != nil {
			return res, err
		}
		if c.es != nil {
			// The salvage point is a look: a prefix that already satisfies
			// the rule stops here, re-running nothing.
			c.es.evaluate(res.Next)
		}
	}
	return res, nil
}

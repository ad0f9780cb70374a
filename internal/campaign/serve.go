package campaign

// This file is the serving-layer surface: the per-cell execution
// primitives a long-lived campaign service composes — summary
// accumulation as a Sink and one-cell execution with attachable sinks,
// with or without a checkpoint log. RunPlanCell, ResumePlanCell and
// RecoverLog are thin calls into one core (runCell), so a daemon that
// interleaves caching and checkpointing still runs the exact engine path
// the in-process runners are pinned against.

import (
	"context"
	"fmt"
	"io"

	"radcrit/internal/fault"
	"radcrit/internal/grid"
	"radcrit/internal/injector"
	"radcrit/internal/logdata"
	"radcrit/internal/metrics"
)

// SummaryAccumulator folds a streaming outcome sequence into a Summary —
// the reducer stack StreamRunner attaches per cell, exported as a Sink so
// serving layers can combine it with their own sinks (checkpoint logs,
// progress relays) on one engine pass. It additionally replays salvaged
// checkpoint-log events, which is what makes a resumed cell's summary
// bit-identical to an uninterrupted run: the prefix comes from the log's
// exact hex-float record, the tail from the deterministic per-index RNG
// splits.
//
// Not safe for concurrent use; the engine's in-order consume loop is a
// single goroutine (Sink contract).
type SummaryAccumulator struct {
	ts    []float64
	red   *streamReducers
	sinks []Sink
}

// NewSummaryAccumulator returns an empty accumulator summarising under
// the given thresholds (a plan's EffectiveThresholds).
func NewSummaryAccumulator(thresholds []float64) *SummaryAccumulator {
	ts := append([]float64(nil), thresholds...)
	red := newStreamReducers(ts)
	return &SummaryAccumulator{ts: ts, red: red, sinks: red.sinks()}
}

// Consume implements Sink.
func (a *SummaryAccumulator) Consume(i int, out injector.Outcome) {
	for _, s := range a.sinks {
		s.Consume(i, out)
	}
}

// AddMasked records n masked executions without per-strike payloads — the
// form a checkpoint log carries them in (they are a count in the #CHK
// record, not events). Replay-only; the live path counts masked outcomes
// through Consume.
func (a *SummaryAccumulator) AddMasked(n int) {
	a.red.tally.Tally.Masked += n
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
func (a *SummaryAccumulator) Consumed() int { return a.red.consumed() }

// Summary renders the accumulated state under the cell's exposure. Valid
// on partial (cancelled) state too, under a prefix-rescaled info.
func (a *SummaryAccumulator) Summary(info StreamInfo) *Summary {
	return a.red.summary(a.ts, info)
}

// RunPlanCell executes one resolved plan cell through the streaming
// engine and returns its StreamInfo and Summary — StreamRunner's per-cell
// body, exported for serving layers. The extra sinks observe the same
// in-order outcome stream after the accumulator. It keeps no checkpoint
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

// runCell is the one body under RunPlanCell, ResumePlanCell and
// RecoverLog. With w nil the cell runs unlogged from strike 0; otherwise
// salvage opens w's log and replays prev's prefix first. The sink order
// is fixed here: the accumulator, then the checkpoint log (so a chunk's
// #CHK record is written before any extra sink sees that chunk boundary),
// then the extra sinks, then the stop rule (so every checkpoint has
// flushed before it requests a stop).
//
// Under an adaptive cfg a salvaged prefix is re-judged exactly as the
// original run judged it: the replayed events seed the stop rule's SDC
// count, the salvage point itself is a look — a run whose stop decision
// was made but whose log tore before recording it stops again without
// re-running anything — and the re-run tail evaluates live at every
// boundary. The decisions are pure functions of (SDC, trials), so the
// resumed cell stops where the uninterrupted one did. Nothing salvaged
// means no look at trial 0 and nothing written beyond a fresh run's log.
func runCell(ctx context.Context, prev io.Reader, w io.Writer, cell Cell, cfg Config, thresholds []float64, extra []Sink) (StreamInfo, *Summary, error) {
	cfg, rule, adaptive := adaptiveConfig(cfg)
	acc := NewSummaryAccumulator(thresholds)
	var es *earlyStopSink
	if adaptive {
		es = &earlyStopSink{rule: rule}
	}
	sinks := make([]Sink, 0, len(extra)+3)
	sinks = append(sinks, acc)
	var info StreamInfo
	var chk *CheckpointSink
	var res logdata.Resume
	epoch := 1
	if w != nil {
		var err error
		if info, chk, res, err = salvage(prev, w, cell, cfg, acc, es); err != nil {
			return info, nil, err
		}
		sinks = append(sinks, chk)
		if n := len(res.Log.Epochs); n > 0 {
			epoch = res.Log.Epochs[n-1].Epoch + 1
		}
	}
	sinks = append(sinks, extra...)

	run := !res.Complete
	if run && es != nil && res.Next > 0 {
		// The salvage point is a look: a prefix that already satisfies the
		// rule stops here, re-running nothing.
		es.evaluate(res.Next)
		run = !es.stopped
	}
	var err error
	if run {
		runCtx := ctx
		if es != nil {
			var cancel context.CancelCauseFunc
			runCtx, cancel = context.WithCancelCause(ctx)
			defer cancel(nil)
			es.cancel = cancel
			sinks = append(sinks, es)
		}
		info, err = RunStreamingFromCtx(runCtx, cell.Dev, cell.Kern, cfg, res.Next, sinks...)
		if es != nil && es.stopped && ctx.Err() == nil {
			// The stop rule cancelled, not the caller: the cell is complete
			// at its chunk-aligned stop point.
			err = nil
		}
	}
	if err != nil {
		if isCancellation(err) {
			info = prefixInfo(info, acc.Consumed())
			return info, acc.Summary(info), err
		}
		return info, nil, err
	}
	if adaptive {
		// Rescale to the strikes the cell actually holds, so the summary
		// rates are true over the executed prefix. A complete log already
		// carries its #EPOCH records.
		if !res.Complete {
			recordEpoch(sinks, es.mark(epoch, cfg.Strikes, acc.Consumed()))
		}
		info = prefixInfo(info, acc.Consumed())
	}
	if chk != nil {
		// The #END trailer is written only on completion, so an
		// interrupted run leaves w resumable.
		if err := chk.Close(); err != nil {
			return info, nil, err
		}
	}
	return info, acc.Summary(info), nil
}

// salvage validates that prev describes (cell, cfg), opens the new
// checkpoint log at w, and replays prev's salvaged prefix into it, into
// acc and into es (when adaptive). Every check precedes the first write
// to w. Salvaged #EPOCH marks are re-emitted where they originally
// stood: a mark at consumed c precedes the first event at strike index
// >= c, so every re-emitted #EPOCH still agrees with the cumulative SDC
// count at its position — the consistency both parsers enforce.
func salvage(prev io.Reader, w io.Writer, cell Cell, cfg Config, acc *SummaryAccumulator, es *earlyStopSink) (StreamInfo, *CheckpointSink, logdata.Resume, error) {
	res, err := logdata.ParseResume(prev)
	if err != nil {
		return StreamInfo{}, nil, res, err
	}
	info, err := CellInfo(cell.Dev, cell.Kern, cfg)
	if err != nil {
		return StreamInfo{}, nil, res, err
	}
	// Header fields are serialised space-escaped and the escaping is lossy
	// (logdata.HeaderField), so the live metadata is escaped before the
	// comparison — the parsed side cannot be unescaped.
	if res.Log.Device != "" &&
		(res.Log.Device != logdata.HeaderField(info.Device) ||
			res.Log.Kernel != logdata.HeaderField(info.Kernel) ||
			res.Log.Input != logdata.HeaderField(info.Input)) {
		return info, nil, res, fmt.Errorf("campaign: log describes %s/%s/%s, not %s/%s/%s",
			res.Log.Device, res.Log.Kernel, res.Log.Input, info.Device, info.Kernel, info.Input)
	}
	if res.Log.Device != "" && res.Log.Seed != cfg.Seed {
		return info, nil, res, fmt.Errorf("campaign: log was written under seed %d, not %d — the tail would not match",
			res.Log.Seed, cfg.Seed)
	}
	chk, err := NewCheckpointSink(w, info, cfg.Seed)
	if err != nil {
		return info, nil, res, err
	}
	chk.sw.AddMasked(res.Masked)
	acc.AddMasked(res.Masked)
	marks := res.Log.Epochs
	for _, ev := range res.Log.Events {
		for len(marks) > 0 && marks[0].Consumed <= ev.Exec {
			if err := chk.RecordEpoch(marks[0]); err != nil {
				return info, nil, res, err
			}
			marks = marks[1:]
		}
		if err := chk.sw.WriteEvent(ev); err != nil {
			return info, nil, res, err
		}
		acc.ReplayEvent(ev, info.Profile.OutputDims)
		if es != nil {
			es.seed(ev)
		}
	}
	for _, m := range marks {
		if err := chk.RecordEpoch(m); err != nil {
			return info, nil, res, err
		}
	}
	if res.Next > 0 && !res.Complete {
		// Flush a checkpoint covering the replayed prefix before any tail
		// strike runs: the new log is now durable to at least the point
		// the old one reached, so an interruption during the tail — or
		// even before its first chunk — can never lose salvaged progress.
		if err := chk.sw.Checkpoint(res.Next); err != nil {
			return info, nil, res, err
		}
	}
	return info, chk, res, nil
}

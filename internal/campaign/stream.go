package campaign

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"radcrit/internal/abft"
	"radcrit/internal/arch"
	"radcrit/internal/beam"
	"radcrit/internal/fault"
	"radcrit/internal/injector"
	"radcrit/internal/kernels"
	"radcrit/internal/logdata"
	"radcrit/internal/xrand"
)

// DefaultStreamChunk is the streaming engine's flush granularity: sinks
// see a chunk boundary (FlushChunk) every this many strikes, and
// cancellation takes effect at the next one. The engine's peak memory is
// O(min(chunk, maxWindow)) outcomes plus reducer state, independent of
// the campaign's SDC count.
const DefaultStreamChunk = 512

// Sink consumes classified strike outcomes as the engine produces them.
//
// The engine's determinism contract (DESIGN.md §6): Consume is called from
// a single goroutine, in strictly ascending strike-index order, for every
// index exactly once — regardless of Config.Workers.
//
// Report ownership (DESIGN.md §8): out.Report is only valid for the
// duration of the Consume call. Once every sink has consumed a strike the
// engine releases the report back to the session pool for reuse by a
// later strike, so a sink must extract what it needs before returning and
// must Clone the report to retain it. The online reducers all satisfy
// this by construction: none keeps a report past its Consume call.
type Sink interface {
	Consume(i int, out injector.Outcome)
}

// ChunkFlusher is implemented by sinks that persist state at chunk
// boundaries (e.g. CheckpointSink). FlushChunk(next) is called after every
// outcome with index < next has been consumed; next is always a chunk
// boundary or the campaign's strike count.
type ChunkFlusher interface {
	FlushChunk(next int)
}

// FlushFunc is a Sink that only observes chunk boundaries: FlushChunk
// calls the function with the flushed strike count, Consume ignores the
// outcomes. Progress relays and strike trackers are one of these.
type FlushFunc func(next int)

// Consume implements Sink.
func (FlushFunc) Consume(int, injector.Outcome) {}

// FlushChunk implements ChunkFlusher.
func (f FlushFunc) FlushChunk(next int) { f(next) }

// StreamInfo is the cell metadata a streaming run yields: identity,
// occupancy profile and the back-computed beam exposure. Reducers combine
// it with their accumulated state to produce the cell's statistics (FIT
// needs the exposure).
type StreamInfo struct {
	Device  string
	Kernel  string
	Input   string
	Profile arch.Profile
	Strikes int
	// Exposure is a pure function of (profile, config): it is available
	// before any strike runs, which is what lets a checkpoint log write
	// its header up front.
	Exposure beam.Exposure
}

// CellInfo computes a cell's StreamInfo without running any strikes.
func CellInfo(dev arch.Device, kern kernels.Kernel, cfg Config) (StreamInfo, error) {
	ses, err := injector.NewSession(dev, kern)
	if err != nil {
		return StreamInfo{}, cellError(dev, kern, err)
	}
	return cellInfo(ses, dev, kern, cfg), nil
}

// cellInfo assembles the metadata for a validated session. The exposure
// back-computation: strikes derated into the single-strike regime, beam
// hours solved from the strike count.
func cellInfo(ses *injector.Session, dev arch.Device, kern kernels.Kernel, cfg Config) StreamInfo {
	prof := ses.Profile()
	execSeconds := prof.RelRuntime * cfg.BaseExecSeconds
	exp := beam.Exposure{
		Facility:      cfg.Facility,
		Board:         beam.Board{Label: dev.ShortName(), Derating: 1},
		ExecSeconds:   execSeconds,
		SensitiveArea: dev.SensitiveArea(prof),
	}
	exp = exp.TuneSingleStrike()
	exp.BeamHours = exp.HoursForStrikes(float64(cfg.Strikes))
	return StreamInfo{
		Device:   dev.ShortName(),
		Kernel:   kern.Name(),
		Input:    kern.InputLabel(),
		Profile:  prof,
		Strikes:  cfg.Strikes,
		Exposure: exp,
	}
}

// RunStreamingCtx executes cfg.Strikes strikes of kern on dev, feeding
// every outcome to the sinks in strike-index order, holding O(window +
// reducer state) memory instead of O(SDC reports). Strikes fan out over
// the Config.Workers pool with per-index RNG splits, so the outcome
// stream is bit-identical for any worker count. Cancellation is honoured
// at chunk boundaries (see RunStreamingFromCtx).
func RunStreamingCtx(ctx context.Context, dev arch.Device, kern kernels.Kernel, cfg Config, sinks ...Sink) (StreamInfo, error) {
	return RunStreamingFromCtx(ctx, dev, kern, cfg, 0, sinks...)
}

// RunStreamingFromCtx is RunStreamingCtx restarted at strike index start:
// it executes indices [start, cfg.Strikes). Because every strike derives
// its randomness from an independent per-index RNG split, the tail
// produced here is bit-identical to the same indices of a full run — the
// foundation of checkpoint/resume (a crashed campaign re-runs only the
// strikes after its last flushed checkpoint).
//
// Workers run strikes at most min(chunk, maxWindow) ahead of the sinks
// (no further than the strikes left to run), which consume on the calling
// goroutine while the workers run; chunk boundaries fall every
// cfg.StreamChunk strikes counted from start.
// Cancellation is graceful and chunk-aligned: the engine checks ctx only
// at a boundary, so the chunk in progress runs to its end and the sinks
// always observe a chunk-aligned prefix of the deterministic outcome
// stream — partial reducer state remains meaningful, and a
// CheckpointSink's log stays recoverable. The engine then stops and
// returns ctx.Err() alongside the cell's StreamInfo; strikes the workers
// ran past the boundary are discarded, and no worker goroutine outlives
// the call.
func RunStreamingFromCtx(ctx context.Context, dev arch.Device, kern kernels.Kernel, cfg Config, start int, sinks ...Sink) (StreamInfo, error) {
	ses, err := injector.NewSession(dev, kern)
	if err != nil {
		return StreamInfo{}, cellError(dev, kern, err)
	}
	info := cellInfo(ses, dev, kern, cfg)
	rng := xrand.New(cfg.Seed).
		SplitString(dev.ShortName()).
		SplitString(kern.Name()).
		SplitString(kern.InputLabel())

	chunk := cfg.StreamChunk
	if chunk <= 0 {
		chunk = DefaultStreamChunk
	}
	start = max(start, 0)
	size := windowSize(chunk, cfg.Strikes-start)
	outs := make([]injector.Outcome, size)
	strikes := make([]fault.Strike, size)
	rngs := make([]*xrand.RNG, size)
	err = pipeline(ctx, start, cfg.Strikes, chunk, cfg.Workers, stages{
		// Each span runs through the session's batch path: strikes derive
		// their RNG from the per-index split (bit-identity at any worker
		// count), and the kernel sees the whole span at once.
		run: func(lo, hi, slot int) {
			for j := lo; j < hi; j++ {
				sub := rng.Split(uint64(j) + 1)
				strikes[slot+j-lo] = fault.Strike{When: sub.Float64(), Energy: beam.StrikeEnergy(sub)}
				rngs[slot+j-lo] = sub
			}
			end := slot + hi - lo
			ses.RunBatch(strikes[slot:end], rngs[slot:end], outs[slot:end])
		},
		consume: func(i, slot int) {
			for _, s := range sinks {
				s.Consume(i, outs[slot])
			}
		},
		// Recycle the report into the session pool: the sinks have
		// consumed it (Sink contract) or never will, so a later strike
		// reuses its memory instead of allocating afresh.
		free: func(slot int) {
			ses.ReleaseReport(outs[slot].Report)
			outs[slot] = injector.Outcome{}
		},
		flush: func(next int) {
			for _, s := range sinks {
				if f, ok := s.(ChunkFlusher); ok {
					f.FlushChunk(next)
				}
			}
		},
	})
	return info, err
}

// StreamMatrix evaluates every cell under cfg concurrently through the
// streaming engine. The sinks factory is called once per cell (from that
// cell's goroutine) and must return the sinks that cell feeds; per-cell
// reducers need no locking because each cell's consume loop is a single
// goroutine. Infos are returned in cell order. Every listed cell runs:
// callers that want one run per distinct cell dedupe first, as
// RunFigurePass does.
func StreamMatrix(cells []Cell, cfg Config, sinks func(i int, c Cell) []Sink) ([]StreamInfo, error) {
	infos := make([]StreamInfo, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	wg.Add(len(cells))
	for i := range cells {
		go func(i int) {
			defer wg.Done()
			info, err := RunStreamingCtx(context.Background(), cells[i].Dev, cells[i].Kern, cfg, sinks(i, cells[i])...)
			infos[i] = info
			if err != nil {
				errs[i] = fmt.Errorf("cell %d (%s/%s/%s): %w", i,
					cells[i].Dev.ShortName(), cells[i].Kern.Name(), cells[i].Kern.InputLabel(), err)
			}
		}(i)
	}
	wg.Wait()
	return infos, errors.Join(errs...)
}

// --- Online reducers ---
//
// Each reducer computes statistics of the paper's analyses from the
// outcome stream alone; the §III filtered statistics (SDC FIT, locality,
// filter-cleared share) all come from SummaryAccumulator (serve.go). The
// golden and property suites (golden_test.go, stream_test.go) pin each
// one bit for bit against the retired report-retaining engine, frozen as
// a test oracle in result_oracle_test.go.

// TallyReducer accumulates the outcome tally and its per-resource split.
type TallyReducer struct {
	Tally      injector.Tally
	ByResource map[fault.Resource]injector.Tally
}

// NewTallyReducer returns an empty tally reducer.
func NewTallyReducer() *TallyReducer {
	return &TallyReducer{ByResource: make(map[fault.Resource]injector.Tally)}
}

// Consume implements Sink.
func (t *TallyReducer) Consume(_ int, out injector.Outcome) {
	rt := t.ByResource[out.Resource]
	switch out.Class {
	case fault.Masked:
		t.Tally.Masked++
		rt.Masked++
	case fault.SDC:
		t.Tally.SDC++
		rt.SDC++
	case fault.Crash:
		t.Tally.Crash++
		rt.Crash++
	case fault.Hang:
		t.Tally.Hang++
		rt.Hang++
	}
	t.ByResource[out.Resource] = rt
}

// ScatterReducer keeps a bounded uniform sample of the scatter points of
// Figures 2/4/6/8 via reservoir sampling (Vitter's Algorithm R). Each
// point is an SDC's incorrect-element count and its mean relative error,
// capped per element at CapPct as the paper's figures do for readability.
// With MaxPoints <= 0 or larger than the SDC count it degenerates to the
// exact point list in strike order; otherwise each SDC has equal
// probability of being retained while memory stays O(MaxPoints).
type ScatterReducer struct {
	CapPct    float64
	MaxPoints int

	rng  *xrand.RNG
	seen int
	pts  []ScatterPoint
}

// NewScatterReducer returns a reducer capping per-point mean relative
// error at capPct (<= 0 disables capping) and retaining at most maxPoints
// points. The rng drives reservoir eviction only — it is never consumed
// before the reservoir overflows, so a full retention is rng-independent;
// pass nil for a fixed default stream.
func NewScatterReducer(capPct float64, maxPoints int, rng *xrand.RNG) *ScatterReducer {
	if rng == nil {
		rng = xrand.New(0x5ca77e12) // any fixed seed: eviction only needs uniformity
	}
	return &ScatterReducer{CapPct: capPct, MaxPoints: maxPoints, rng: rng}
}

// Consume implements Sink.
func (r *ScatterReducer) Consume(_ int, out injector.Outcome) {
	if out.Class != fault.SDC {
		return
	}
	limit := r.CapPct
	if limit <= 0 {
		limit = 1e308
	}
	pt := ScatterPoint{
		IncorrectElements: out.Report.Count(),
		MeanRelErrPct:     out.Report.MeanRelErrPct(limit),
	}
	r.seen++
	if r.MaxPoints <= 0 || len(r.pts) < r.MaxPoints {
		r.pts = append(r.pts, pt)
		return
	}
	if j := r.rng.Intn(r.seen); j < r.MaxPoints {
		r.pts[j] = pt
	}
}

// Points returns the sampled points. When no eviction occurred (at most
// MaxPoints SDCs offered, or MaxPoints <= 0) these are every SDC's points
// in strike order.
func (r *ScatterReducer) Points() []ScatterPoint { return r.pts }

// ABFTReducer accumulates the ABFT coverage classification of every SDC
// (§V-A): which errors ABFT corrects and which it only detects.
type ABFTReducer struct {
	Coverage abft.Coverage
}

// NewABFTReducer returns an empty coverage reducer.
func NewABFTReducer() *ABFTReducer { return &ABFTReducer{} }

// Consume implements Sink.
func (r *ABFTReducer) Consume(_ int, out injector.Outcome) {
	if out.Class != fault.SDC {
		return
	}
	r.Coverage.Add(out.Report)
}

// --- Checkpointed event streaming ---

// CheckpointSink streams every non-masked outcome into a logdata campaign
// log as it happens, flushing a checkpoint record at every chunk boundary.
// A campaign killed mid-cell leaves a log that ParseResume can truncate to
// its last checkpoint; ResumePlanCell then re-runs only the missing tail.
//
// Write errors are sticky: the first one is remembered and returned by
// Close (the engine's Consume path has no error channel, matching the
// real campaigns where logging must never abort beam time).
type CheckpointSink struct {
	sw *logdata.StreamWriter
}

// NewCheckpointSink starts a checkpointed log for the cell described by
// info, owned by the campaign with the given seed.
func NewCheckpointSink(w io.Writer, info StreamInfo, seed uint64) (*CheckpointSink, error) {
	sw, err := logdata.NewStreamWriter(w, checkpointMeta(info, seed))
	if err != nil {
		return nil, err
	}
	return &CheckpointSink{sw: sw}, nil
}

func checkpointMeta(info StreamInfo, seed uint64) *logdata.Log {
	return &logdata.Log{
		Device:     info.Device,
		Kernel:     info.Kernel,
		Input:      info.Input,
		Facility:   info.Exposure.Facility.Name,
		Seed:       seed,
		Executions: info.Exposure.Executions(),
		BeamHours:  info.Exposure.BeamHours,
		OutputDims: info.Profile.OutputDims,
	}
}

// Consume implements Sink. The event's Exec is the strike index, giving
// resumed logs a stable, replayable position key.
func (c *CheckpointSink) Consume(i int, out injector.Outcome) {
	switch out.Class {
	case fault.Masked:
		c.sw.AddMasked(1)
	case fault.SDC:
		c.sw.WriteEvent(logdata.Event{
			Class:      fault.SDC,
			Exec:       i,
			Resource:   out.Resource.String(),
			Scope:      out.Scope.String(),
			Mismatches: out.Report.Mismatches,
		})
	case fault.Crash:
		c.sw.WriteEvent(logdata.Event{Class: fault.Crash, Exec: i, Resource: out.Resource.String()})
	case fault.Hang:
		c.sw.WriteEvent(logdata.Event{Class: fault.Hang, Exec: i, Resource: out.Resource.String()})
	}
}

// FlushChunk implements ChunkFlusher: every chunk boundary becomes a
// durable checkpoint.
func (c *CheckpointSink) FlushChunk(next int) { c.sw.Checkpoint(next) }

// RecordEpoch writes an adaptive #EPOCH budget record into the log next
// to the checkpoint it annotates, implementing EpochRecorder. Like every
// other write, errors are sticky and surface at Close.
func (c *CheckpointSink) RecordEpoch(m logdata.EpochMark) error { return c.sw.WriteEpoch(m) }

// Close writes the trailer and reports any write error seen on the way.
func (c *CheckpointSink) Close() error { return c.sw.Close() }

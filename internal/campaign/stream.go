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
	"radcrit/internal/fit"
	"radcrit/internal/injector"
	"radcrit/internal/kernels"
	"radcrit/internal/logdata"
	"radcrit/internal/metrics"
	"radcrit/internal/par"
	"radcrit/internal/xrand"
)

// DefaultStreamChunk is the streaming engine's flush granularity: strikes
// are executed in chunks of this many indices, consumed in order, and the
// chunk buffer is recycled. Peak memory is O(chunk) outcomes plus reducer
// state, independent of the campaign's SDC count.
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
// every outcome to the sinks in strike-index order, holding O(chunk +
// reducer state) memory instead of O(SDC reports). Strikes within a chunk
// fan out over the Config.Workers pool with per-index RNG splits, so the
// outcome stream is bit-identical for any worker count. Cancellation is
// honoured at chunk boundaries (see RunStreamingFromCtx).
func RunStreamingCtx(ctx context.Context, dev arch.Device, kern kernels.Kernel, cfg Config, sinks ...Sink) (StreamInfo, error) {
	return RunStreamingFromCtx(ctx, dev, kern, cfg, 0, sinks...)
}

// RunStreamingFromCtx is RunStreamingCtx restarted at strike index start:
// it executes indices [start, cfg.Strikes). Because every strike derives
// its randomness from an independent per-index RNG split, the tail
// produced here is bit-identical to the same indices of a full run — the
// foundation of checkpoint/resume (a crashed campaign re-runs only the
// strikes after its last flushed checkpoint). Cancellation is graceful
// and chunk-aligned: a chunk whose execution was interrupted is discarded
// whole, so the sinks always observe a chunk-aligned prefix of the
// deterministic outcome stream — partial reducer state remains
// meaningful, and a CheckpointSink's log stays recoverable. The engine
// then stops and returns ctx.Err() alongside the cell's StreamInfo; no
// worker goroutine outlives the call.
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
	if start < 0 {
		start = 0
	}
	bufLen := min(chunk, max(cfg.Strikes-start, 0))
	buf := make([]injector.Outcome, bufLen)
	strikes := make([]fault.Strike, bufLen)
	rngs := make([]*xrand.RNG, bufLen)
	for base := start; base < cfg.Strikes; base += chunk {
		if err := ctx.Err(); err != nil {
			return info, err
		}
		n := min(chunk, cfg.Strikes-base)
		// Each claimed span runs through the session's batch path: strikes
		// derive their RNG from the per-index split as before (bit-identity
		// at any worker count), but the kernel sees the whole span at once,
		// keeping its scratch and golden tables cache-hot across strikes.
		err := par.ForSpansCtx(ctx, n, cfg.Workers, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				sub := rng.Split(uint64(base+j) + 1)
				strikes[j] = fault.Strike{When: sub.Float64(), Energy: beam.StrikeEnergy(sub)}
				rngs[j] = sub
			}
			ses.RunBatch(strikes[lo:hi], rngs[lo:hi], buf[lo:hi])
		})
		if err != nil {
			// The chunk may be partially executed: discard it whole so the
			// sinks keep their chunk-aligned prefix.
			return info, err
		}
		for j := 0; j < n; j++ {
			for _, s := range sinks {
				s.Consume(base+j, buf[j])
			}
			// Recycle the report into the session pool: the sinks have
			// consumed it (Sink contract), so the next chunk's strikes
			// reuse its memory instead of allocating afresh.
			ses.ReleaseReport(buf[j].Report)
			buf[j] = injector.Outcome{}
		}
		for _, s := range sinks {
			if f, ok := s.(ChunkFlusher); ok {
				f.FlushChunk(base + n)
			}
		}
	}
	return info, nil
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
// Each reducer computes one statistic of the paper's analyses from the
// outcome stream alone. The golden and property suites (golden_test.go,
// stream_test.go) pin each one bit for bit against the retired
// report-retaining engine, frozen as a test oracle in
// result_oracle_test.go.

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

// SDCCountReducer counts SDC executions that survive each of a set of
// relative-error thresholds, the numerators of the SDC FIT (a threshold
// <= 0 counts every SDC).
type SDCCountReducer struct {
	Thresholds []float64
	Counts     []int
}

// NewSDCCountReducer returns a reducer counting under each threshold.
func NewSDCCountReducer(thresholds ...float64) *SDCCountReducer {
	return &SDCCountReducer{Thresholds: thresholds, Counts: make([]int, len(thresholds))}
}

// Consume implements Sink.
func (r *SDCCountReducer) Consume(_ int, out injector.Outcome) {
	if out.Class != fault.SDC {
		return
	}
	for k, t := range r.Thresholds {
		if t <= 0 || out.Report.Filter(t).IsSDC() {
			r.Counts[k]++
		}
	}
}

// FIT converts the k-th threshold's count to a failure rate under the
// cell's exposure.
func (r *SDCCountReducer) FIT(k int, exp beam.Exposure) float64 {
	return fit.FITFromCampaign(r.Counts[k], exp)
}

// LocalityReducer accumulates the spatial-pattern counts of critical SDCs.
type LocalityReducer struct {
	ThresholdPct float64
	Counts       map[metrics.Pattern]int
}

// NewLocalityReducer returns a reducer under the given filter
// (thresholdPct <= 0 keeps all mismatches).
func NewLocalityReducer(thresholdPct float64) *LocalityReducer {
	return &LocalityReducer{ThresholdPct: thresholdPct, Counts: make(map[metrics.Pattern]int)}
}

// Consume implements Sink.
func (r *LocalityReducer) Consume(_ int, out injector.Outcome) {
	if out.Class != fault.SDC {
		return
	}
	eff := out.Report
	if r.ThresholdPct > 0 {
		eff = eff.Filter(r.ThresholdPct)
	}
	if !eff.IsSDC() {
		return
	}
	r.Counts[eff.Locality()]++
}

// Breakdown renders the accumulated counts as the FIT breakdown of
// Figures 3, 5 and 7.
func (r *LocalityReducer) Breakdown(exp beam.Exposure) fit.Breakdown {
	bd := fit.Breakdown{}
	for _, p := range metrics.Patterns {
		bd.Labels = append(bd.Labels, p.String())
		bd.Values = append(bd.Values, fit.FITFromCampaign(r.Counts[p], exp))
	}
	return bd
}

// FilteredFractionReducer tracks the share of SDC executions fully cleared
// by the relative-error filter (§V: 50-75% for DGEMM on K40, ~95% for
// HotSpot).
type FilteredFractionReducer struct {
	ThresholdPct float64
	SDCs         int
	Cleared      int
}

// NewFilteredFractionReducer returns a reducer for one threshold.
func NewFilteredFractionReducer(thresholdPct float64) *FilteredFractionReducer {
	return &FilteredFractionReducer{ThresholdPct: thresholdPct}
}

// Consume implements Sink.
func (r *FilteredFractionReducer) Consume(_ int, out injector.Outcome) {
	if out.Class != fault.SDC {
		return
	}
	r.SDCs++
	if !out.Report.Filter(r.ThresholdPct).IsSDC() {
		r.Cleared++
	}
}

// Fraction returns the cleared share (0 when no SDCs were seen).
func (r *FilteredFractionReducer) Fraction() float64 {
	if r.SDCs == 0 {
		return 0
	}
	return float64(r.Cleared) / float64(r.SDCs)
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

// Points returns the sampled points. When no eviction occurred (Seen() <=
// MaxPoints, or MaxPoints <= 0) these are every SDC's points in strike
// order.
func (r *ScatterReducer) Points() []ScatterPoint { return r.pts }

// Seen returns the total number of SDC points offered to the reservoir.
func (r *ScatterReducer) Seen() int { return r.seen }

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
// its last checkpoint; RecoverLog then re-runs only the missing tail.
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

// RecoverLog completes a checkpointed campaign log that was truncated by a
// crash: it parses the salvageable prefix (up to the last flushed
// checkpoint), replays those events into w, re-runs only the strikes the
// checkpoint does not cover, and closes the log. The recovered log is
// event-for-event identical to one written by an uninterrupted run —
// checkpoint/resume's determinism contract (DESIGN.md §6). It is
// ResumePlanCell (serve.go) with the summary dropped: log in, log out.
func RecoverLog(w io.Writer, truncated io.Reader, dev arch.Device, kern kernels.Kernel, cfg Config) error {
	_, _, err := runCell(context.Background(), truncated, w, Cell{Dev: dev, Kern: kern}, cfg, nil, nil)
	return err
}

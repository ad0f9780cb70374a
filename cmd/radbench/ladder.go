package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"radcrit/internal/beam"
	"radcrit/internal/campaign"
	"radcrit/internal/fault"
	"radcrit/internal/injector"
	"radcrit/internal/kernels"
	"radcrit/internal/metrics"
	"radcrit/internal/xrand"
)

// runLadder replays the first `strikes` strikes of every cell of a
// workload's first job through each layer below the cell, bottom up:
// kernels.RunBatch and Kernel.RunInjectedPooled on the SDC syndromes,
// injector.Session.RunBatch on the whole population, the engine with
// timed reducer and checkpoint sinks, RunPlanCell warm, and BuildCell plus
// RunPlanCell cold. Everything runs on one goroutine so that each layer's
// time is a share of the layer above it. Spans go to tr, one trace per
// cell.
//
// The replay derives each strike exactly as the engine does, so the
// outcome tallies at the kernel, injector and engine layers must agree;
// when they do not, the ladder would be timing different strikes and the
// run fails.
func runLadder(ctx context.Context, tr *tracer, sh shape, seed uint64, strikes int, dir string) error {
	p := sh.plan(seed)
	cfg := p.Config()
	cfg.Strikes = strikes
	cfg.Workers = 1
	ts := p.EffectiveThresholds()
	chunk := sh.chunk
	if chunk <= 0 {
		chunk = campaign.DefaultStreamChunk
	}
	width := spanWidth(chunk)
	for _, spec := range p.Cells {
		ref := traceRef{trace: spec.Device + "/" + spec.Kernel}
		t0 := time.Now()
		cell, err := campaign.BuildCell(spec)
		if err != nil {
			return err
		}
		if _, _, err := campaign.RunPlanCell(ctx, cell, cfg, ts); err != nil {
			return err
		}
		tr.add(0, "campaign.cold", ref, t0, time.Now(), int64(strikes))

		t0 = time.Now()
		_, sum, err := campaign.RunPlanCell(ctx, cell, cfg, ts)
		if err != nil {
			return err
		}
		tr.add(0, "campaign.cell", ref, t0, time.Now(), int64(strikes))

		if err := timedEngine(ctx, tr, ref, cell, cfg, ts, dir); err != nil {
			return err
		}
		inj, err := replayInjector(tr, ref, cell, cfg, width)
		if err != nil {
			return err
		}
		kern := replayKernels(tr, ref, cell, cfg, width)
		if inj != sum.Tally || kern != sum.Tally {
			return fmt.Errorf("ladder self-check: %s/%s tallies differ: engine %+v, injector %+v, kernels %+v",
				spec.Device, spec.Kernel, sum.Tally, inj, kern)
		}
	}
	return nil
}

// spanWidth is the strike span a one-worker engine hands the injector at
// a time: par.ForSpansCtx's chunking of one stream chunk.
func spanWidth(chunk int) int {
	return min(max(chunk/8, 1), 64)
}

// strikeStream derives strike i of a cell exactly as the streaming engine
// does: its own RNG split, then the strike's moment and energy.
type strikeStream struct{ root *xrand.RNG }

func newStrikeStream(cell campaign.Cell, seed uint64) strikeStream {
	return strikeStream{xrand.New(seed).
		SplitString(cell.Dev.ShortName()).
		SplitString(cell.Kern.Name()).
		SplitString(cell.Kern.InputLabel())}
}

func (s strikeStream) at(i int) (fault.Strike, *xrand.RNG) {
	sub := s.root.Split(uint64(i) + 1)
	when := sub.Float64()
	return fault.Strike{When: when, Energy: beam.StrikeEnergy(sub)}, sub
}

// timedEngine runs the cell through the streaming engine with a summary
// accumulator and a checkpoint log, each behind a timing sink, and a last
// sink that marks chunk boundaries.
func timedEngine(ctx context.Context, tr *tracer, ref traceRef, cell campaign.Cell, cfg campaign.Config, ts []float64, dir string) error {
	info, err := campaign.CellInfo(cell.Dev, cell.Kern, cfg)
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, "ladder-*.log")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	chk, err := campaign.NewCheckpointSink(f, info, cfg.Seed)
	if err != nil {
		return err
	}
	reduce := &timedSink{tr: tr, ref: ref, name: "campaign.reduce", inner: campaign.NewSummaryAccumulator(ts)}
	log := &timedSink{tr: tr, ref: ref, name: "logdata.chk", inner: chk}
	chunks := &chunkMarks{tr: tr, ref: ref, last: time.Now()}
	if _, err := campaign.RunStreamingCtx(ctx, cell.Dev, cell.Kern, cfg, reduce, log, chunks); err != nil {
		return err
	}
	if err := chk.Close(); err != nil {
		return err
	}
	return f.Close()
}

// timedSink records a span around every call into the sink it wraps.
type timedSink struct {
	tr    *tracer
	ref   traceRef
	name  string
	inner campaign.Sink
}

func (s *timedSink) Consume(i int, out injector.Outcome) {
	t0 := time.Now()
	s.inner.Consume(i, out)
	s.tr.add(0, s.name, s.ref, t0, time.Now(), 1)
}

func (s *timedSink) FlushChunk(next int) {
	f, ok := s.inner.(campaign.ChunkFlusher)
	if !ok {
		return
	}
	t0 := time.Now()
	f.FlushChunk(next)
	s.tr.add(0, s.name, s.ref, t0, time.Now(), 0)
}

// chunkMarks records one span per engine chunk, from the previous chunk
// boundary to this one.
type chunkMarks struct {
	tr   *tracer
	ref  traceRef
	last time.Time
	done int
}

func (c *chunkMarks) Consume(int, injector.Outcome) {}

func (c *chunkMarks) FlushChunk(next int) {
	now := time.Now()
	c.tr.add(0, "campaign.chunk", c.ref, c.last, now, int64(next-c.done))
	c.last, c.done = now, next
}

// replayInjector runs the cell's strikes through injector.Session.RunBatch
// in engine-shaped spans and tallies the outcomes.
func replayInjector(tr *tracer, ref traceRef, cell campaign.Cell, cfg campaign.Config, width int) (injector.Tally, error) {
	ses, err := injector.NewSession(cell.Dev, cell.Kern)
	if err != nil {
		return injector.Tally{}, err
	}
	stream := newStrikeStream(cell, cfg.Seed)
	var tally injector.Tally
	strikes := make([]fault.Strike, width)
	rngs := make([]*xrand.RNG, width)
	outs := make([]injector.Outcome, width)
	for lo := 0; lo < cfg.Strikes; lo += width {
		n := min(width, cfg.Strikes-lo)
		for j := 0; j < n; j++ {
			strikes[j], rngs[j] = stream.at(lo + j)
		}
		t0 := time.Now()
		ses.RunBatch(strikes[:n], rngs[:n], outs[:n])
		tr.add(0, "injector.batch", ref, t0, time.Now(), int64(n))
		for j := 0; j < n; j++ {
			tally = addOutcome(tally, outs[j].Class)
			ses.ReleaseReport(outs[j].Report)
			outs[j] = injector.Outcome{}
		}
	}
	return tally, nil
}

// replayKernels resolves every strike against the device (untimed), then
// times the kernel layer alone on the SDC syndromes: once per engine span
// through kernels.RunBatch and once per syndrome through
// RunInjectedPooled. An empty report is a logically masked SDC. It
// returns the tally of the batch pass.
func replayKernels(tr *tracer, ref traceRef, cell campaign.Cell, cfg campaign.Config, width int) injector.Tally {
	prof := cell.Kern.Profile(cell.Dev)
	golden := cell.Kern.Golden(cell.Dev)
	stream := newStrikeStream(cell, cfg.Seed)
	var pool metrics.ReportPool
	var tally injector.Tally
	var masked int64
	// resolve returns the SDC syndromes of strikes [lo, lo+n) with their
	// RNGs in the state the kernel would receive them, tallying the rest.
	resolve := func(lo, n int, count bool) []kernels.BatchStrike {
		var batch []kernels.BatchStrike
		for i := lo; i < lo+n; i++ {
			strike, rng := stream.at(i)
			syn := cell.Dev.ResolveStrike(prof, strike, rng)
			if syn.Outcome == fault.SDC {
				batch = append(batch, kernels.BatchStrike{Inj: syn.Injection, RNG: rng})
			} else if count {
				tally = addOutcome(tally, syn.Outcome)
			}
		}
		return batch
	}
	for lo := 0; lo < cfg.Strikes; lo += width {
		n := min(width, cfg.Strikes-lo)
		batch := resolve(lo, n, true)
		t0 := time.Now()
		kernels.RunBatch(cell.Kern, golden, batch, &pool)
		tr.add(0, "kernels.batch", ref, t0, time.Now(), int64(len(batch)))
		for _, b := range batch {
			if b.Report == nil || b.Report.Count() == 0 {
				masked++
				tally.Masked++
			} else {
				tally.SDC++
			}
			pool.Put(b.Report)
		}
	}
	tr.count("kernels.masked", masked)
	for lo := 0; lo < cfg.Strikes; lo += width {
		for _, b := range resolve(lo, min(width, cfg.Strikes-lo), false) {
			t0 := time.Now()
			rep := cell.Kern.RunInjectedPooled(golden, b.Inj, b.RNG, &pool)
			tr.add(0, "kernels.single", ref, t0, time.Now(), 1)
			pool.Put(rep)
		}
	}
	return tally
}

func addOutcome(t injector.Tally, c fault.OutcomeClass) injector.Tally {
	switch c {
	case fault.Masked:
		t.Masked++
	case fault.SDC:
		t.SDC++
	case fault.Crash:
		t.Crash++
	case fault.Hang:
		t.Hang++
	}
	return t
}

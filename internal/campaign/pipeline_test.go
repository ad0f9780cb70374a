package campaign

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"radcrit/internal/injector"
	"radcrit/internal/kernels/lavamd"
	"radcrit/internal/phi"
)

// orderSink checks the Sink contract as the engine drives it: every
// index once, in ascending order from the first one it sees, with
// FlushChunk only after the index before it. It keeps a digest of each
// outcome so runs can be compared.
type orderSink struct {
	t       *testing.T
	next    int // the index Consume expects next; -1 before the first
	flushes []int
	digests map[int]outcomeDigest
}

type outcomeDigest struct {
	class, resource, count int
	firstRead              uint64
}

func newOrderSink(t *testing.T) *orderSink {
	return &orderSink{t: t, next: -1, digests: map[int]outcomeDigest{}}
}

func (s *orderSink) Consume(i int, out injector.Outcome) {
	if s.next >= 0 && i != s.next {
		s.t.Fatalf("Consume(%d), want %d", i, s.next)
	}
	s.next = i + 1
	d := outcomeDigest{class: int(out.Class), resource: int(out.Resource)}
	if out.Report != nil {
		d.count = out.Report.Count()
		d.firstRead = math.Float64bits(out.Report.Mismatches[0].Read)
	}
	s.digests[i] = d
}

func (s *orderSink) FlushChunk(next int) {
	if next != s.next {
		s.t.Fatalf("FlushChunk(%d) after consuming up to %d", next, s.next)
	}
	s.flushes = append(s.flushes, next)
}

// streamGrid runs the pipelined engine, uncancelled, over every worker
// count, chunk size and a start on and off a chunk boundary, and hands
// each run's sink to check. The sink itself fails the test if an index
// arrives out of order or a FlushChunk comes before the index under it.
func streamGrid(t *testing.T, check func(workers, chunk, start, strikes int, s *orderSink)) {
	t.Helper()
	dev, kern := phi.New(), lavamd.New(4)
	for _, workers := range []int{1, 2, 8} {
		for _, chunk := range []int{1, 5, 7, 64, 512} {
			strikes := min(3*chunk+50, 600) // at least two boundaries
			for _, start := range []int{0, chunk/2 + 1} {
				cfg := DefaultConfig(53, strikes)
				cfg.Workers, cfg.StreamChunk = workers, chunk
				s := newOrderSink(t)
				if _, err := RunStreamingFromCtx(context.Background(), dev, kern, cfg, start, s); err != nil {
					t.Fatalf("workers=%d chunk=%d start=%d: %v", workers, chunk, start, err)
				}
				check(workers, chunk, start, strikes, s)
			}
		}
	}
}

// TestStreamCoversEveryIndexOnce pins §6 contract item 1 on the
// pipelined engine: the sinks see each index of [start, strikes)
// exactly once, in ascending order.
func TestStreamCoversEveryIndexOnce(t *testing.T) {
	streamGrid(t, func(workers, chunk, start, strikes int, s *orderSink) {
		if len(s.digests) != strikes-start || s.next != strikes {
			t.Fatalf("workers=%d chunk=%d start=%d: consumed %d strikes ending at %d",
				workers, chunk, start, len(s.digests), s.next)
		}
		for i := start; i < strikes; i++ {
			if _, ok := s.digests[i]; !ok {
				t.Fatalf("workers=%d chunk=%d start=%d: strike %d never consumed", workers, chunk, start, i)
			}
		}
	})
}

// TestStreamCtxRunsAll: an uncancelled run goes to the end and flushes
// at every chunk boundary counted from start, and at the end.
func TestStreamCtxRunsAll(t *testing.T) {
	streamGrid(t, func(workers, chunk, start, strikes int, s *orderSink) {
		var want []int
		for b := start + chunk; b < strikes; b += chunk {
			want = append(want, b)
		}
		want = append(want, strikes)
		if !slices.Equal(s.flushes, want) {
			t.Fatalf("workers=%d chunk=%d start=%d: flushes %v, want %v",
				workers, chunk, start, s.flushes, want)
		}
	})
}

// TestStreamOutcomesAreOrderIndependent: whatever the worker count,
// chunk or start, each strike's outcome is the one a one-worker full
// run gives, so the order in which workers finish leaves no trace.
func TestStreamOutcomesAreOrderIndependent(t *testing.T) {
	ref := newOrderSink(t)
	refCfg := DefaultConfig(53, 600)
	refCfg.Workers = 1
	if _, err := RunStreamingCtx(context.Background(), phi.New(), lavamd.New(4), refCfg, ref); err != nil {
		t.Fatal(err)
	}
	streamGrid(t, func(workers, chunk, start, strikes int, s *orderSink) {
		for i, d := range s.digests {
			if d != ref.digests[i] {
				t.Fatalf("workers=%d chunk=%d start=%d: strike %d = %+v, reference %+v",
					workers, chunk, start, i, d, ref.digests[i])
			}
		}
	})
}

// TestPipelineWindowBound drives the pipeline with spans of uneven cost
// and checks, each time a worker starts a span, that the strikes
// started but not yet consumed never exceed the window,
// windowSize(chunk, end-start), and that every consumed slot holds its own
// strike. A worker that overran the window would overwrite a slot the
// consumer still waits on, so a stalled pipeline fails the test too.
func TestPipelineWindowBound(t *testing.T) {
	const start = 3
	// The short cell runs fewer strikes than every chunk above 4, so its
	// window is the 4 strikes it runs, narrower than the worker count.
	for _, end := range []int{start + 4, 1500} {
		for _, workers := range []int{1, 2, 8} {
			for _, chunk := range []int{1, 5, 7, 64, 512} {
				size := windowSize(chunk, end-start)
				var started, consumed, freed atomic.Int64
				var failed atomic.Bool
				ring := make([]int, size)
				done := make(chan error, 1)
				go func() {
					done <- pipeline(context.Background(), start, end, chunk, workers, stages{
						run: func(lo, hi, slot int) {
							if ahead := started.Add(int64(hi-lo)) - consumed.Load(); ahead > int64(size) && !failed.Swap(true) {
								t.Errorf("end=%d workers=%d chunk=%d: %d strikes in flight at span [%d, %d), window %d",
									end, workers, chunk, ahead, lo, hi, size)
							}
							if lo%3 == 0 {
								runtime.Gosched()
							}
							for i := lo; i < hi; i++ {
								ring[slot+i-lo] = i
							}
						},
						consume: func(i, slot int) {
							if ring[slot] != i && !failed.Swap(true) {
								t.Errorf("end=%d workers=%d chunk=%d: slot %d holds strike %d, consuming %d",
									end, workers, chunk, slot, ring[slot], i)
							}
							consumed.Add(1)
						},
						free:  func(int) { freed.Add(1) },
						flush: func(int) {},
					})
				}()
				select {
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(time.Minute):
					t.Fatalf("end=%d workers=%d chunk=%d: pipeline stalled after %d of %d strikes",
						end, workers, chunk, consumed.Load(), end-start)
				}
				if failed.Load() {
					return
				}
				if got, n := int(started.Load()), int(freed.Load()); got != end-start || n != got {
					t.Fatalf("end=%d workers=%d chunk=%d: ran %d strikes and freed %d slots, want %d", end, workers, chunk, got, n, end-start)
				}
			}
		}
	}
}

// TestStreamPreCancelled: a context cancelled before the call runs no
// strike and flushes nothing.
func TestStreamPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig(5, 1000)
		cfg.Workers = workers
		s := newOrderSink(t)
		if _, err := RunStreamingCtx(ctx, phi.New(), lavamd.New(4), cfg, s); err != context.Canceled {
			t.Fatalf("workers=%d: err %v", workers, err)
		}
		if len(s.digests) != 0 || len(s.flushes) != 0 {
			t.Fatalf("workers=%d: pre-cancelled run consumed %d strikes, flushed %v", workers, len(s.digests), s.flushes)
		}
	}
}

// TestStreamCancelMidRun cancels in the middle of a chunk. The engine
// must run that chunk to its boundary, return context.Canceled there
// with the last FlushChunk equal to the accumulator's consumed count,
// and leave no worker goroutine behind.
func TestStreamCancelMidRun(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 2, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := DefaultConfig(7, 1000)
		cfg.Workers, cfg.StreamChunk = workers, 64
		acc := NewSummaryAccumulator([]float64{0, 2})
		s := newOrderSink(t)
		_, err := RunStreamingCtx(ctx, phi.New(), lavamd.New(4), cfg, acc, s, &cancelSink{at: 150, cancel: cancel})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err %v, want context.Canceled", workers, err)
		}
		if len(s.flushes) == 0 || s.flushes[len(s.flushes)-1] != 192 || acc.Consumed() != 192 {
			t.Fatalf("workers=%d: flushes %v, consumed %d; want the run to stop at the boundary 192",
				workers, s.flushes, acc.Consumed())
		}
	}
	// Workers are joined before the engine returns: nothing may leak.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// cancelSink cancels its context when it consumes strike at.
type cancelSink struct {
	at     int
	cancel context.CancelFunc
}

func (c *cancelSink) Consume(i int, _ injector.Outcome) {
	if i == c.at {
		c.cancel()
	}
}

// TestAdaptiveStopsAtItsLook: a stop rule that fires at a look stops the
// pipelined engine there, whatever the worker count, even though the
// workers have run strikes past it.
func TestAdaptiveStopsAtItsLook(t *testing.T) {
	plan := adaptiveGoldenPlan()
	cells, err := plan.Build()
	if err != nil {
		t.Fatal(err)
	}
	const cell = 1 // lavamd: stops at 100 of 300
	for _, workers := range []int{1, 2, 8} {
		cfg := plan.Config()
		cfg.Workers = workers
		var last int
		info, _, err := RunPlanCell(context.Background(), cells[cell], cfg, plan.EffectiveThresholds(),
			FlushFunc(func(next int) { last = next }))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if info.Strikes != adaptiveGoldenStops[cell] || last != info.Strikes {
			t.Fatalf("workers=%d: stopped at %d after a flush at %d, golden stop is %d",
				workers, info.Strikes, last, adaptiveGoldenStops[cell])
		}
	}
}

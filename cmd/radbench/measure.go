package main

import (
	"context"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// opStat is one job of a workload's closed loop, as its client saw it.
type opStat struct {
	i       int
	lat     time.Duration
	end     time.Time
	strikes int
	ok      bool
	digest  [32]byte
}

// env is a workload after one set-up: it runs the measured jobs, checks
// them once timing has stopped, and releases what set-up built.
type env interface {
	op(ctx context.Context, i int) opStat
	// check recomputes or compares what op could not check in the loop
	// and clears ok on every job whose output is wrong.
	check(ctx context.Context, ops []opStat) error
	close()
}

// phase is one set-up-and-measure pass of a workload.
type phase struct {
	setups  []time.Duration
	ops     []opStat
	elapsed time.Duration
	heap    []float64 // live heap every 50 ms while measuring, MiB
}

func (p phase) failed() int {
	n := 0
	for _, o := range p.ops {
		if !o.ok {
			n++
		}
	}
	return n
}

// runPhase sets the workload up r.sz.setupReps times, timing each (every
// set-up but the last is closed again), then runs its closed loop on the
// last one for d and checks the jobs.
func runPhase(ctx context.Context, r *run, w workload, d time.Duration, tr *tracer) (phase, error) {
	var p phase
	var e env
	for rep := 0; rep < max(r.sz.setupReps, 1); rep++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = w.setup(ctx, r, tr); err != nil {
			return p, err
		}
		p.setups = append(p.setups, time.Since(t0))
	}
	defer e.close()
	stop := sampleHeap()
	p.ops, p.elapsed = closedLoop(ctx, w.clients, d, e.op)
	p.heap = stop()
	sort.Slice(p.ops, func(a, b int) bool { return p.ops[a].i < p.ops[b].i })
	return p, e.check(ctx, p.ops)
}

// closedLoop runs op from `clients` goroutines, each starting its next
// job only when its previous one has completed, until d has passed. Jobs
// in flight at the deadline finish and count; the elapsed time runs to
// the last completion.
func closedLoop(ctx context.Context, clients int, d time.Duration, op func(context.Context, int) opStat) ([]opStat, time.Duration) {
	var next atomic.Int64
	var mu sync.Mutex
	var ops []opStat
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				st := op(ctx, int(next.Add(1)-1))
				mu.Lock()
				ops = append(ops, st)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	end := start
	for _, o := range ops {
		if o.end.After(end) {
			end = o.end
		}
	}
	return ops, end.Sub(start)
}

// sampleHeap reads the runtime's live-heap figure (the heap the last GC
// found reachable) every 50 ms until the returned function is called,
// which returns the samples in MiB.
func sampleHeap() (stop func() []float64) {
	done := make(chan struct{})
	var samples []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			rtmetrics.Read(s)
			samples = append(samples, float64(s[0].Value.Uint64())/(1<<20))
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() []float64 {
		close(done)
		wg.Wait()
		return samples
	}
}

package campaign

import (
	"context"
	"runtime"
	"sync"
)

// The streaming engine's pipeline (DESIGN.md §6): worker goroutines claim
// spans of strikes from a shared cursor and run them into a ring of
// slots while the calling goroutine consumes the completed prefix in
// strike-index order, so the kernels keep running while the sinks reduce
// and log.
const (
	// maxWindow caps how far the workers may run ahead of the consumer.
	// A cell's window is min(chunk, maxWindow, strikes it runs): at most
	// that many strikes are executed but not yet consumed, so at most that
	// many reports are in flight.
	maxWindow = 128
	// spanWidth is the most consecutive strikes a worker claims at once.
	// Its strikes run one by one, so a span only amortises the claim
	// lock; 16 keeps the claims cheap and the spans short enough to
	// balance irregular strikes across workers.
	spanWidth = 16
)

// windowSize is the pipeline's ring length, and its bound on strikes in
// flight, for a chunk size and the number of strikes to run.
func windowSize(chunk, strikes int) int { return max(0, min(chunk, maxWindow, strikes)) }

// stages are the engine's per-strike steps around the pipeline's ring.
type stages struct {
	// run executes strikes [lo, hi) into ring slots [slot, slot+hi-lo).
	// It runs on a worker goroutine; spans never wrap the ring.
	run func(lo, hi, slot int)
	// consume feeds strike i, held in the given slot, to the sinks. It
	// runs on the calling goroutine, in index order.
	consume func(i, slot int)
	// free empties a slot once its strike is consumed, or once the
	// pipeline stopped short of consuming it.
	free func(slot int)
	// flush marks a chunk boundary: every strike below next is consumed.
	flush func(next int)
}

// pipeline executes strikes [start, end) on workers goroutines (<= 0
// means GOMAXPROCS) and consumes every one of them exactly once, in
// ascending order, on the calling goroutine. After each chunk of chunk
// strikes counted from start, and after the last strike, it calls
// flush. Cancellation is checked only there: once ctx is done at a
// boundary short of end, pipeline stops and returns ctx.Err(), so the
// consumer always stops on a chunk boundary. Workers never run more
// than windowSize(chunk, end-start) strikes ahead of the consumer; the slots of
// strikes they ran past a stop are freed unconsumed. No worker goroutine
// outlives the call, and a panic on the calling goroutine joins them too.
func pipeline(ctx context.Context, start, end, chunk, workers int, st stages) error {
	if start >= end {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	w := &window{start: start, end: end, size: windowSize(chunk, end-start), next: start, consumed: start}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Narrow spans when there are fewer than one per worker in the window.
	w.span = max(1, min(spanWidth, w.size/workers))
	workers = min(workers, (end-start+w.span-1)/w.span)
	w.done = make([]int, w.size)
	w.space.L = &w.mu
	w.ready.L = &w.mu
	w.wg.Add(workers)
	for range workers {
		go w.work(st.run)
	}

	next := start // first strike not yet consumed
	defer func() {
		for i, claimed := next, w.halt(); i < claimed; i++ {
			st.free(w.slot(i))
		}
	}()
	for boundary := start; boundary < end; {
		boundary = min(boundary+chunk, end)
		for next < boundary {
			hi := min(w.await(next), boundary)
			for ; next < hi; next++ {
				st.consume(next, w.slot(next))
				st.free(w.slot(next))
			}
			w.release(next)
		}
		st.flush(boundary)
		if boundary < end {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// window is the pipeline's shared state: the claim cursor, the
// consumer's published position and which ring slots hold a finished
// strike.
type window struct {
	mu    sync.Mutex
	space sync.Cond // the consumer freed slots, or the pipeline halted
	ready sync.Cond // a span finished
	wg    sync.WaitGroup

	start, end int   // the strikes the pipeline runs
	size, span int   // ring length; widest span a worker claims
	next       int   // first unclaimed strike
	consumed   int   // every strike below has been consumed
	done       []int // done[slot(i)] == i+1 once strike i has run
	halted     bool
}

// slot returns the ring slot of strike i.
func (w *window) slot(i int) int { return (i - w.start) % w.size }

// work claims and runs spans until the strikes run out or the pipeline
// halts. A claimed span always runs to completion.
func (w *window) work(run func(lo, hi, slot int)) {
	defer w.wg.Done()
	for {
		lo, hi, ok := w.claim()
		if !ok {
			return
		}
		run(lo, hi, w.slot(lo))
		w.mu.Lock()
		for i := lo; i < hi; i++ {
			w.done[w.slot(i)] = i + 1
		}
		w.mu.Unlock()
		w.ready.Signal()
	}
}

// claim takes the next span, waiting while it would put more than size
// strikes ahead of the consumer. A span stops at the ring's end, so it
// occupies contiguous slots.
func (w *window) claim() (lo, hi int, ok bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if w.halted || w.next >= w.end {
			return 0, 0, false
		}
		lo = w.next
		hi = min(lo+w.span, w.end, lo+w.size-w.slot(lo))
		if hi-w.consumed <= w.size {
			w.next = hi
			return lo, hi, true
		}
		w.space.Wait()
	}
}

// await blocks until strike i has run and returns the end of the run of
// finished strikes that starts at i.
func (w *window) await(i int) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.done[w.slot(i)] != i+1 {
		w.ready.Wait()
	}
	hi := i + 1
	for hi < w.next && w.done[w.slot(hi)] == hi+1 {
		hi++
	}
	return hi
}

// release publishes that every strike below next has been consumed,
// which frees their slots for the workers.
func (w *window) release(next int) {
	w.mu.Lock()
	w.consumed = next
	w.mu.Unlock()
	w.space.Broadcast()
}

// halt stops the workers claiming spans, waits for the running spans to
// finish and returns the first strike no worker claimed.
func (w *window) halt() int {
	w.mu.Lock()
	w.halted = true
	w.mu.Unlock()
	w.space.Broadcast()
	w.wg.Wait()
	return w.next
}

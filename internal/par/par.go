// Package par provides the parallel execution primitive of the campaign
// engine: a chunked, dynamically scheduled loop over indexed work items.
//
// The campaign workload is embarrassingly parallel but irregular — an SDC
// strike runs a full injected kernel while a masked strike returns almost
// immediately — so a static index split would leave workers idle behind
// whichever range drew the expensive strikes. ForSpansCtx instead hands
// out small contiguous chunks from a shared atomic cursor: workers that
// finish early steal the next chunk, bounding imbalance by one chunk per
// worker without any per-item synchronisation.
//
// Determinism is the caller's contract: fn receives a span of item
// indices, writes only to those slots of pre-sized output storage, and
// derives any randomness from a per-index RNG split. Under that contract
// the loop's results are independent of worker count and scheduling
// order.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// maxChunk caps the chunk size so a single expensive tail chunk cannot
// serialise the loop.
const maxChunk = 64

// ForSpansCtx runs fn over [0, n) across a pool of workers, handing each
// claimed chunk to fn as a contiguous [start, end) index range, so callers
// amortise per-call overhead across a run of items — the campaign engine
// hands each span to the kernels' batch seam so scratch and golden tables
// stay cache-hot. Spans partition [0, n): every index is visited exactly
// once.
//
// workers <= 0 selects runtime.GOMAXPROCS(0). The loop degenerates to a
// plain serial loop when one worker (or one item) makes a pool pointless,
// so callers need no serial fallback of their own.
//
// Workers re-check ctx each time they claim a chunk from the shared
// cursor and stop claiming once it is cancelled. In-flight spans finish
// (fn is never interrupted mid-call) and every worker goroutine has
// exited by the time ForSpansCtx returns, so cancellation leaks nothing;
// it returns ctx.Err() when the loop stopped early and nil when every
// index ran. Callers that need a consistent result set must treat a
// non-nil return as "an unspecified subset of spans ran" — the campaign
// engine discards the whole chunk.
func ForSpansCtx(ctx context.Context, n, workers int, fn func(start, end int)) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	chunk := chunkSize(n, workers)
	if workers == 1 {
		for start := 0; start < n; start += chunk {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			end := start + chunk
			if end > n {
				end = n
			}
			fn(start, end)
		}
		return nil
	}
	var cursor atomic.Int64
	var stopped atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					stopped.Store(true)
					return
				}
				end := int(cursor.Add(int64(chunk)))
				start := end - chunk
				if start >= n {
					return
				}
				if end > n {
					end = n
				}
				fn(start, end)
			}
		}()
	}
	wg.Wait()
	if stopped.Load() {
		return ctx.Err()
	}
	return nil
}

// chunkSize aims for several chunks per worker (load balance for irregular
// items) while keeping the cursor contention negligible.
func chunkSize(n, workers int) int {
	c := n / (workers * 8)
	if c < 1 {
		return 1
	}
	if c > maxChunk {
		return maxChunk
	}
	return c
}

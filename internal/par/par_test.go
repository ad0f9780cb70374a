package par

import (
	"context"
	"sync/atomic"
	"testing"
)

// forEach runs fn(i) for every index of the spans ForSpansCtx hands out.
func forEach(ctx context.Context, n, workers int, fn func(i int)) error {
	return ForSpansCtx(ctx, n, workers, func(start, end int) {
		for i := start; i < end; i++ {
			fn(i)
		}
	})
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000} {
		for _, workers := range []int{0, 1, 2, 8, 33} {
			hits := make([]int32, n)
			if err := forEach(context.Background(), n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) }); err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d hit %d times", n, workers, i, h)
				}
			}
		}
	}
}

func TestForIndexedWritesAreOrderIndependent(t *testing.T) {
	const n = 512
	want := make([]int, n)
	_ = forEach(context.Background(), n, 1, func(i int) { want[i] = i * i })
	got := make([]int, n)
	_ = forEach(context.Background(), n, 16, func(i int) { got[i] = i * i })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d: %d != %d", i, got[i], want[i])
		}
	}
}

func TestChunkSizeBounds(t *testing.T) {
	if chunkSize(10, 4) != 1 {
		t.Fatal("small loops should use unit chunks")
	}
	if c := chunkSize(1_000_000, 2); c != maxChunk {
		t.Fatalf("huge loops should cap the chunk, got %d", c)
	}
}

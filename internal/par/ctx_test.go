package par

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCtxRunsAll(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var sum atomic.Int64
		err := forEach(context.Background(), 1000, workers, func(i int) {
			sum.Add(int64(i))
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want := int64(1000 * 999 / 2); sum.Load() != want {
			t.Errorf("workers=%d: sum %d, want %d", workers, sum.Load(), want)
		}
	}
}

func TestForCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := forEach(ctx, 1000, workers, func(int) { ran.Add(1) })
		if err != context.Canceled {
			t.Fatalf("workers=%d: err %v", workers, err)
		}
		// A worker may claim at most its first chunk before noticing.
		if ran.Load() >= 1000 {
			t.Errorf("workers=%d: pre-cancelled loop ran everything", workers)
		}
	}
}

func TestForCtxCancelMidRun(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	err := forEach(ctx, 100000, 4, func(i int) {
		if ran.Add(1) == 50 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if ran.Load() >= 100000 {
		t.Errorf("cancelled loop ran every index")
	}
	// Workers are joined before ForSpansCtx returns: nothing may leak.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

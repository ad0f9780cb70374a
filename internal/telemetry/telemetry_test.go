package telemetry

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentMutation hammers one counter, gauge and histogram (and a
// shared vec) from many goroutines — the -race proof that every hot-path
// mutation is an atomic operation, plus an exact-count check that no
// increment is lost.
func TestConcurrentMutation(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("c_total", "", nil).With()
	g := r.Gauge("g", "")
	h := r.HistogramVec("h", "", []float64{1, 2, 4}, nil).With()
	vec := r.CounterVec("v_total", "", []string{"tenant"})

	const workers = 8
	const iters = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tc := vec.With(fmt.Sprintf("t%d", w%4))
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 5))
				tc.Inc()
				// Interleave scrapes with mutation: the exposition path
				// must be safe against live writers.
				if i%1000 == 0 {
					var sb strings.Builder
					r.WritePrometheus(&sb)
				}
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	if got := g.Value(); got != workers*iters {
		t.Errorf("gauge = %v, want %d", got, workers*iters)
	}
	if got := h.Count(); got != workers*iters {
		t.Errorf("histogram count = %d, want %d", got, workers*iters)
	}
	var vecTotal uint64
	for i := 0; i < 4; i++ {
		vecTotal += vec.With(fmt.Sprintf("t%d", i)).Value()
	}
	if vecTotal != workers*iters {
		t.Errorf("vec total = %d, want %d", vecTotal, workers*iters)
	}
}

// TestBoundedCardinality: a label source beyond the family's cap folds
// into the shared overflow series instead of growing the table, and the
// rejections are counted on the registry self-metric.
func TestBoundedCardinality(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("bounded_total", "", []string{"tenant"})
	vec.f.cap = 4
	for i := 0; i < 100; i++ {
		vec.With(fmt.Sprintf("t%d", i)).Inc()
	}
	if got := len(vec.f.children); got != 4 {
		t.Fatalf("series count = %d, want cap 4", got)
	}
	// The 96 rejected label sets all landed on one overflow child (the
	// read itself is a 97th rejected lookup, but no Inc).
	if got := vec.With("anything-else").Value(); got != 96 {
		t.Errorf("overflow series = %d, want 96", got)
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `bounded_total{tenant="overflow"} 96`) {
		t.Errorf("exposition missing overflow series:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "telemetry_series_dropped_total 97") {
		t.Errorf("exposition missing dropped counter:\n%s", sb.String())
	}
	// Existing children keep resolving to their own series.
	if got := vec.With("t1").Value(); got != 1 {
		t.Errorf("t1 = %d, want 1", got)
	}
}

// TestIdempotentRegistration: re-registering an identical family returns
// the same underlying state; a conflicting shape panics.
func TestIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.CounterVec("dup_total", "help", nil).With()
	b := r.CounterVec("dup_total", "help", nil).With()
	a.Inc()
	if b.Value() != 1 {
		t.Errorf("re-registered counter is not the same series")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("conflicting re-registration did not panic")
		}
	}()
	r.Gauge("dup_total", "now a gauge")
}

func TestInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "9leading", "has space", "has-dash"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("metric name %q did not panic", bad)
				}
			}()
			r.CounterVec(bad, "", nil).With()
		}()
	}
	defer func() {
		if recover() == nil {
			t.Errorf("bad label name did not panic")
		}
	}()
	r.CounterVec("ok_total", "", []string{"bad-label"})
}

func TestGaugeSetAndAdd(t *testing.T) {
	var g Gauge
	g.Set(2.5)
	g.Add(-1.25)
	if got := g.Value(); got != 1.25 {
		t.Errorf("gauge = %v, want 1.25", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("lat", "", []float64{0.1, 1, 10}, nil).With()
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	// Bucket occupancy: le=0.1 -> 2 (0.05, 0.1 inclusive), le=1 -> 1,
	// le=10 -> 1, +Inf -> 1.
	want := []uint64{2, 1, 1, 1}
	for i, n := range want {
		if got := h.counts[i].Load(); got != n {
			t.Errorf("bucket %d = %d, want %d", i, got, n)
		}
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-102.65) > 1e-9 {
		t.Errorf("sum = %v, want 102.65", h.Sum())
	}
}

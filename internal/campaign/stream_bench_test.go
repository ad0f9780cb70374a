package campaign

import (
	"context"
	"runtime"
	"testing"

	"radcrit/internal/injector"
	"radcrit/internal/k40"
	"radcrit/internal/kernels/dgemm"
)

// peakSink samples the live heap (after GC) at chunk boundaries, tracking
// the streaming engine's true peak retention. Sampling every chunk would
// spend more time in GC than in strikes, so it probes every `interval`
// flushes.
type peakSink struct {
	interval int
	flushes  int
	peak     uint64
}

func (p *peakSink) Consume(int, injector.Outcome) {}

func (p *peakSink) FlushChunk(int) {
	p.flushes++
	if p.interval > 1 && p.flushes%p.interval != 0 {
		return
	}
	if live := liveHeap(); live > p.peak {
		p.peak = live
	}
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// benchStreamingPeak measures the streaming engine's peak live heap on a
// large cell with the standard aggregate reducer stack. The acceptance
// criterion is boundedness: the reported peak must not grow with the
// strike (hence SDC) count — compare the 12500- and 50000-strike numbers.
func benchStreamingPeak(b *testing.B, strikes int) {
	dev := k40.New()
	kern := dgemm.New(128)
	cfg := DefaultConfig(42, strikes)
	// Warm the shared golden-state handle so the measurement isolates
	// engine retention from one-time kernel state.
	if _, err := RunStreamingCtx(context.Background(), dev, kern, DefaultConfig(42, 2)); err != nil {
		b.Fatal(err)
	}
	base := liveHeap()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink := &peakSink{interval: 8}
		acc := NewSummaryAccumulator([]float64{0, 2})
		scatter := NewScatterReducer(100, 1024, nil)
		info, err := RunStreamingCtx(context.Background(), dev, kern, cfg, acc, scatter, sink)
		if err != nil {
			b.Fatal(err)
		}
		if sink.peak > base {
			b.ReportMetric(float64(sink.peak-base), "peak-live-bytes")
		} else {
			b.ReportMetric(0, "peak-live-bytes")
		}
		b.ReportMetric(float64(acc.Summary(info).Tally.SDC), "SDCs")
	}
}

func BenchmarkStreamingPeak12k(b *testing.B) { benchStreamingPeak(b, 12500) }
func BenchmarkStreamingPeak50k(b *testing.B) { benchStreamingPeak(b, 50000) }

// captureSink keeps a copy of every outcome, cloning SDC reports past the
// engine's release.
type captureSink struct{ outs []injector.Outcome }

func (c *captureSink) Consume(_ int, out injector.Outcome) {
	if out.Report != nil {
		out.Report = out.Report.Clone()
	}
	c.outs = append(c.outs, out)
}

// BenchmarkSummaryAccumulator times the serial consumer's summary
// reduction alone: one captured K40 DGEMM-128 outcome stream replayed into
// a fresh SummaryAccumulator at the thresholds {0, 2} per iteration. B/op
// is per replay of the whole stream.
func BenchmarkSummaryAccumulator(b *testing.B) {
	capture := &captureSink{}
	if _, err := RunStreamingCtx(context.Background(), k40.New(), dgemm.New(128), DefaultConfig(42, 1000), capture); err != nil {
		b.Fatal(err)
	}
	outs := capture.outs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		acc := NewSummaryAccumulator([]float64{0, 2})
		b.StartTimer()
		for j, out := range outs {
			acc.Consume(j, out)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(outs)), "ns/strike")
}

package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"radcrit/internal/stats"
)

// metric is one named, unit-carrying number of a run's report.
type metric struct {
	name  string
	unit  string
	value float64
}

// endToEnd derives the metrics a user sees from one measured phase.
// Throughput counts only jobs whose output checked out; the latency
// median covers every job. Job latency tails are per-layer metrics
// (api.job_ms_p95, api.job_ms_p99): campaign-mix and fleet-jobs finish
// too few jobs in a run for a p95 with ten jobs beyond it.
func endToEnd(p phase) []metric {
	lats := make([]float64, len(p.ops))
	strikes, jobs := 0, 0
	for k, o := range p.ops {
		lats[k] = ms(o.lat)
		if o.ok {
			strikes += o.strikes
			jobs++
		}
	}
	setups := make([]float64, len(p.setups))
	for k, d := range p.setups {
		setups[k] = d.Seconds()
	}
	secs := p.elapsed.Seconds()
	return []metric{
		{"strikes_per_s", "strike/s", ratio(float64(strikes), secs)},
		{"jobs_per_s", "job/s", ratio(float64(jobs), secs)},
		{"job_p50_ms", "ms", stats.Percentile(lats, 50)},
		{"setup_s", "s", stats.Median(setups)},
		{"live_heap_p90_mb", "MiB", stats.Percentile(p.heap, 90)},
	}
}

// spanSet is a filterable list of spans.
type spanSet []span

func (ss spanSet) named(names ...string) spanSet {
	var out spanSet
	for _, s := range ss {
		for _, n := range names {
			if s.Name == n {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

func (ss spanSet) where(keep func(span) bool) spanSet {
	var out spanSet
	for _, s := range ss {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

func (ss spanSet) total() time.Duration {
	var d time.Duration
	for _, s := range ss {
		d += s.dur()
	}
	return d
}

func (ss spanSet) items() float64 {
	var n int64
	for _, s := range ss {
		n += s.N
	}
	return float64(n)
}

func (ss spanSet) count() float64 { return float64(len(ss)) }

// pctMS is the p-th percentile of the spans' durations in milliseconds.
func (ss spanSet) pctMS(p float64) float64 {
	ds := make([]float64, len(ss))
	for k, s := range ss {
		ds[k] = ms(s.dur())
	}
	return stats.Percentile(ds, p)
}

// ladderMetrics are the per-layer metrics of the strike ladder: the
// kernels, injector, campaign (engine and cell) and logdata layers.
func ladderMetrics(l spanSet, masked int64) []metric {
	batch := l.named("kernels.batch")
	single := l.named("kernels.single")
	inj := l.named("injector.batch")
	cells := l.named("campaign.cell")
	cold := l.named("campaign.cold")
	chunks := l.named("campaign.chunk")
	reduce := l.named("campaign.reduce")
	chk := l.named("logdata.chk")
	return []metric{
		{"kernels.batch_us_per_sdc", "us", ratio(us(batch.total()), batch.items())},
		{"kernels.single_us_per_sdc", "us", ratio(us(single.total()), single.count())},
		{"kernels.masked_frac", "ratio", ratio(float64(masked), batch.items())},
		{"injector.us_per_strike", "us", ratio(us(inj.total()), inj.items())},
		{"injector.sdc_frac", "ratio", ratio(batch.items(), inj.items())},
		{"campaign.chunk_ms_p50", "ms", chunks.pctMS(50)},
		{"campaign.reduce_ns_per_strike", "ns", ratio(float64(reduce.total().Nanoseconds()), reduce.count())},
		{"campaign.cell_us_per_strike", "us", ratio(us(cells.total()), cells.items())},
		{"campaign.kernel_share", "ratio", ratio(batch.total().Seconds(), cells.total().Seconds())},
		{"campaign.cold_ms", "ms", ratio(ms(cold.total()-cells.total()), cells.count())},
		{"logdata.chk_us_per_chunk", "us", ratio(us(chk.total()), chunks.count())},
	}
}

// daemonMetrics are the per-layer metrics of the api, service and store
// layers, from the client-side, snapshot and store-wrapper spans. The api
// and service metrics cover the measured jobs; the store metrics also
// cover set-up, where daemon-cached does all of its writes.
func daemonMetrics(all spanSet) []metric {
	d := all.where(func(s span) bool { return strings.HasPrefix(s.Trace, "job-") })
	submit := d.named("api.submit")
	result := d.named("api.result")
	queue := d.named("service.queue")
	runs := d.named("service.run")
	puts := all.named("store.put")
	gets := all.named("store.get")
	hits := gets.where(func(s span) bool { return s.N > 0 })
	jobs := d.named("api.job")
	return []metric{
		{"api.job_ms_p95", "ms", jobs.pctMS(95)},
		{"api.job_ms_p99", "ms", jobs.pctMS(99)},
		{"api.submit_ms_p50", "ms", submit.pctMS(50)},
		{"api.submit_ms_p95", "ms", submit.pctMS(95)},
		{"api.submit_ms_p99", "ms", submit.pctMS(99)},
		{"api.result_ms_p50", "ms", result.pctMS(50)},
		{"api.result_ms_p99", "ms", result.pctMS(99)},
		{"service.queue_wait_ms_p50", "ms", queue.pctMS(50)},
		{"service.queue_wait_ms_p95", "ms", queue.pctMS(95)},
		{"service.queue_wait_ms_p99", "ms", queue.pctMS(99)},
		{"service.run_ms_p50", "ms", runs.pctMS(50)},
		{"service.run_ms_p95", "ms", runs.pctMS(95)},
		{"service.notify_ms_p50", "ms", d.named("service.notify").pctMS(50)},
		{"store.put_ms_p50", "ms", puts.pctMS(50)},
		{"store.put_ms_p95", "ms", puts.pctMS(95)},
		{"store.get_ms_p50", "ms", gets.pctMS(50)},
		{"store.get_ms_p99", "ms", gets.pctMS(99)},
		{"store.put_bytes_per_cell", "B", ratio(puts.items(), puts.count())},
		{"store.get_bytes_per_cell", "B", ratio(gets.items(), gets.count())},
		{"store.hit_frac", "ratio", ratio(hits.count(), gets.count())},
	}
}

// fleetMetrics are the per-layer metrics of the fleet layer, per cell a
// worker completed.
func fleetMetrics(f spanSet, t *tracer) []metric {
	cells := f.named("fleet.remote").where(func(s span) bool { return s.N == 1 }).count()
	polls := f.named("fleet.poll")
	empty := polls.where(func(s span) bool { return s.N == 0 })
	requests := f.named("fleet.poll", "fleet.heartbeat", "fleet.complete", "fleet.register")
	return []metric{
		{"fleet.remote_cell_ms_p50", "ms", f.named("fleet.remote").pctMS(50)},
		{"fleet.worker_cell_ms_p50", "ms", f.named("fleet.worker_cell").pctMS(50)},
		{"fleet.dispatch_wait_ms_p50", "ms", f.named("fleet.dispatch").pctMS(50)},
		{"fleet.empty_polls_per_cell", "count", ratio(empty.count(), cells)},
		{"fleet.requests_per_cell", "count", ratio(requests.count(), cells)},
		{"fleet.heartbeat_kb_per_cell", "KiB", ratio(f.named("fleet.heartbeat").items()/1024, cells)},
		{"fleet.leases_per_cell", "count", ratio(float64(t.counter("fleet.leases")), cells)},
		{"fleet.local_fallbacks", "count", float64(t.counter("fleet.local_fallbacks"))},
	}
}

// printMetrics writes one line per metric.
func printMetrics(w io.Writer, prefix string, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "%s%-30s %14.6g %s\n", prefix, m.name, m.value, m.unit)
	}
}

// printSelfTimes writes each layer's self time in one part of a traced
// run and its share of the part's total. Concurrent spans each count, so
// the total can exceed the part's wall time.
func printSelfTimes(w io.Writer, t *tracer) {
	self := selfTimes(t.snapshot())
	layers := make([]string, 0, len(self))
	var total time.Duration
	for l, d := range self {
		layers = append(layers, l)
		total += d
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Fprintf(w, "self-time %-14s %-9s %12.3f ms %6.1f%%\n",
			t.part, l, ms(self[l]), 100*ratio(self[l].Seconds(), total.Seconds()))
	}
}

// printKernelLadder breaks the ladder metrics down by kernel family.
func printKernelLadder(w io.Writer, t *tracer) {
	spans := spanSet(t.snapshot())
	byKernel := map[string]spanSet{}
	for _, s := range spans {
		_, spec, _ := strings.Cut(s.Trace, "/")
		k, _, _ := strings.Cut(spec, ":")
		byKernel[k] = append(byKernel[k], s)
	}
	kernels := make([]string, 0, len(byKernel))
	for k := range byKernel {
		kernels = append(kernels, k)
	}
	sort.Strings(kernels)
	for _, k := range kernels {
		for _, m := range ladderMetrics(byKernel[k], 0) {
			if m.name == "kernels.masked_frac" {
				continue // counted for the whole ladder only
			}
			fmt.Fprintf(w, "ladder %-8s %-30s %14.6g %s\n", k, m.name, m.value, m.unit)
		}
	}
}

// printOverhead writes each end-to-end metric traced minus untraced.
func printOverhead(w io.Writer, untraced, traced []metric) {
	for k, u := range untraced {
		t := traced[k]
		fmt.Fprintf(w, "overhead %-20s untraced %12.6g traced %12.6g delta %+12.6g %s (%+.1f%%)\n",
			u.name, u.value, t.value, t.value-u.value, u.unit, 100*ratio(t.value-u.value, u.value))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0 or the result is not finite, so that a
// layer with no calls reports 0 rather than breaking the JSON report.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	if r := a / b; !math.IsNaN(r) && !math.IsInf(r, 0) {
		return r
	}
	return 0
}

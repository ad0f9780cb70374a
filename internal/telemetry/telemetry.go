// Package telemetry is radcrit's zero-dependency metrics subsystem: a
// Registry of counters, gauges and histograms with atomic,
// allocation-free hot paths, bounded-cardinality label vectors, and a
// Prometheus text-format (version 0.0.4) exposition handler (expose.go).
//
// Design rules (DESIGN.md §14):
//
//   - Hot paths touch pre-resolved children only: resolve a vec's child
//     once (With) and hold it; Inc/Add/Set/Observe are single atomic
//     operations with no allocation.
//   - Label cardinality is bounded per family. A label set beyond the
//     cap collapses into a shared overflow series (every label value
//     "overflow") and is counted on telemetry_series_dropped_total, so a
//     hostile or buggy label source can never grow memory without bound.
//   - Scrape-time collectors (GaugeFunc and friends) are the preferred
//     instrumentation for state that already lives behind a lock (queue
//     depths, store sizes, lease tables): they cost nothing between
//     scrapes and are always consistent with the source of truth.
//
// Metric and label names follow the Prometheus data model:
// [a-zA-Z_:][a-zA-Z0-9_:]* for metrics, [a-zA-Z_][a-zA-Z0-9_]* for
// labels. Registration errors (bad names, conflicting re-registration)
// panic: they are programmer errors, caught by the first scrape of any
// test. Re-registering an identical vec/scalar returns the existing one,
// so independent components may share a registry without coordination.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultSeriesCap bounds the children of one labeled family unless the
// family was registered with an explicit Cap option. tenant × kernel ×
// device × class products stay far below this; the cap exists for label
// values that come from the wire (tenant names, worker names).
const DefaultSeriesCap = 256

// overflowValue replaces every label value of a series rejected by the
// cardinality cap.
const overflowValue = "overflow"

// metric kinds, in exposition TYPE-line spelling.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (CAS loop; lock-free).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram observes float64 values into fixed cumulative buckets.
// Observe is a bucket scan plus three atomic operations — no allocation,
// no lock.
type Histogram struct {
	upper  []float64       // ascending bucket upper bounds (exclusive of +Inf)
	counts []atomic.Uint64 // len(upper)+1; the last is the +Inf bucket
	sum    Gauge           // float64 accumulator (atomic CAS add)
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// DefBuckets are general-purpose latency buckets in seconds, 1ms..60s.
var DefBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// series is one labeled child of a family.
type series struct {
	labels []string // values, in the family's label-name order
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is one registered metric name.
type family struct {
	name    string
	help    string
	kind    string
	labels  []string
	buckets []float64 // histograms only
	cap     int

	mu       sync.RWMutex
	children map[string]*series
	overflow *series

	// collect, when non-nil, makes this a scrape-time family: samples
	// come from the callback instead of children.
	collect func(emit func(labelValues []string, v float64))

	reg *Registry
}

// Registry holds a set of metric families and renders them in Prometheus
// text format (WritePrometheus / Handler in expose.go). Safe for
// concurrent use. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	dropped  atomic.Uint64
}

// NewRegistry builds an empty registry with the built-in
// telemetry_series_dropped_total self-metric.
func NewRegistry() *Registry {
	r := &Registry{families: map[string]*family{}}
	r.CounterFunc("telemetry_series_dropped_total",
		"Label-vector lookups rejected by a family's cardinality cap and folded into its overflow series.",
		func() float64 { return float64(r.dropped.Load()) })
	return r
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		alpha := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':'
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func validLabelName(name string) bool {
	if name == "" || strings.HasPrefix(name, "__") {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		alpha := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_'
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// register installs (or, for an identical static re-registration,
// returns) a family. Conflicts panic: two components disagreeing about a
// metric's shape is a bug no scrape should paper over.
func (r *Registry) register(name, help, kind string, labels []string, buckets []float64, collect func(func([]string, float64))) *family {
	if !validMetricName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validLabelName(l) {
			panic(fmt.Sprintf("telemetry: metric %q: invalid label name %q", name, l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.families[name]; ok {
		if old.kind != kind || !equalStrings(old.labels, labels) || !equalFloats(old.buckets, buckets) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with a different shape", name))
		}
		if collect != nil || old.collect != nil {
			panic(fmt.Sprintf("telemetry: collector metric %q registered twice", name))
		}
		return old
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		cap:     DefaultSeriesCap,
		collect: collect,
		reg:     r,
	}
	if collect == nil {
		f.children = map[string]*series{}
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// newSeries builds a child with the family's kind-specific state.
func (f *family) newSeries(values []string) *series {
	s := &series{labels: append([]string(nil), values...)}
	switch f.kind {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHistogram:
		s.h = &Histogram{
			upper:  f.buckets,
			counts: make([]atomic.Uint64, len(f.buckets)+1),
		}
	}
	return s
}

// child resolves one label-value tuple, applying the cardinality cap.
func (f *family) child(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.RLock()
	s := f.children[key]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.children[key]; s != nil {
		return s
	}
	if len(f.children) >= f.cap {
		f.reg.dropped.Add(1)
		if f.overflow == nil {
			ov := make([]string, len(f.labels))
			for i := range ov {
				ov[i] = overflowValue
			}
			f.overflow = f.newSeries(ov)
		}
		return f.overflow
	}
	s = f.newSeries(values)
	f.children[key] = s
	return s
}

// --- static scalars ---

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, nil, nil, nil).child(nil).g
}

// --- label vectors ---

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With resolves one child; hold the result, don't re-resolve per event
// on hot paths.
func (v *CounterVec) With(labelValues ...string) *Counter { return v.f.child(labelValues).c }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With resolves one child.
func (v *GaugeVec) With(labelValues ...string) *Gauge { return v.f.child(labelValues).g }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With resolves one child.
func (v *HistogramVec) With(labelValues ...string) *Histogram { return v.f.child(labelValues).h }

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels []string) *CounterVec {
	return &CounterVec{r.register(name, help, kindCounter, labels, nil, nil)}
}

// GaugeVec registers (or returns) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels []string) *GaugeVec {
	return &GaugeVec{r.register(name, help, kindGauge, labels, nil, nil)}
}

// HistogramVec registers (or returns) a labeled histogram family (nil
// buckets selects DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels []string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{r.register(name, help, kindHistogram, labels, buckets, nil)}
}

// --- scrape-time collectors ---

// CounterFunc registers a counter whose value is read at scrape time —
// for monotonic counts that already live behind someone else's lock.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, kindCounter, nil, nil, func(emit func([]string, float64)) {
		emit(nil, fn())
	})
}

// GaugeFunc registers a gauge computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, kindGauge, nil, nil, func(emit func([]string, float64)) {
		emit(nil, fn())
	})
}

// GaugeVecFunc registers a labeled gauge family whose samples are
// produced at scrape time by collect calling emit once per series. The
// emitted label-value slices must match len(labels); violations panic at
// scrape.
func (r *Registry) GaugeVecFunc(name, help string, labels []string, collect func(emit func(labelValues []string, v float64))) {
	r.register(name, help, kindGauge, labels, nil, collect)
}

// CounterVecFunc is GaugeVecFunc for monotonic counters.
func (r *Registry) CounterVecFunc(name, help string, labels []string, collect func(emit func(labelValues []string, v float64))) {
	r.register(name, help, kindCounter, labels, nil, collect)
}

// sortedFamilies snapshots the family list in name order for exposition.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

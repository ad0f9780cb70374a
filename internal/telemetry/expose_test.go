package telemetry

import (
	"net/http/httptest"
	"strings"
	"testing"
)

// TestExpositionGolden pins the Prometheus text format 0.0.4 rendering
// byte for byte: HELP escaping, label-value escaping and ordering,
// cumulative histogram buckets with the le label, family name ordering.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("z_requests_total", "Requests.\nSecond line with \\ backslash.", []string{"tenant", "code"})
	c.With("beta", "200").Add(3)
	c.With("alpha", `quo"te`).Inc() // value escaped in the output
	g := r.Gauge("a_depth", "Queue depth.")
	g.Set(2)
	h := r.HistogramVec("m_seconds", "Latency.", []float64{0.25, 0.5}, []string{"kernel"})
	hd := h.With("dgemm")
	hd.Observe(0.1)
	hd.Observe(0.3)
	hd.Observe(9)
	r.GaugeVecFunc("b_lag", "Per-tenant lag.", []string{"tenant"}, func(emit func([]string, float64)) {
		emit([]string{"beta"}, -0.5)
		emit([]string{"alpha"}, 1.5)
	})

	var sb strings.Builder
	r.WritePrometheus(&sb)
	got := sb.String()

	want := `# HELP a_depth Queue depth.
# TYPE a_depth gauge
a_depth 2
# HELP b_lag Per-tenant lag.
# TYPE b_lag gauge
b_lag{tenant="alpha"} 1.5
b_lag{tenant="beta"} -0.5
# HELP m_seconds Latency.
# TYPE m_seconds histogram
m_seconds_bucket{kernel="dgemm",le="0.25"} 1
m_seconds_bucket{kernel="dgemm",le="0.5"} 2
m_seconds_bucket{kernel="dgemm",le="+Inf"} 3
m_seconds_sum{kernel="dgemm"} 9.4
m_seconds_count{kernel="dgemm"} 3
# HELP telemetry_series_dropped_total Label-vector lookups rejected by a family's cardinality cap and folded into its overflow series.
# TYPE telemetry_series_dropped_total counter
telemetry_series_dropped_total 0
# HELP z_requests_total Requests.\nSecond line with \\ backslash.
# TYPE z_requests_total counter
z_requests_total{tenant="alpha",code="quo\"te"} 1
z_requests_total{tenant="beta",code="200"} 3
`
	if got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestEmptyFamilyKeepsMetadata: a registered vec with no series yet (or
// whose collector emits nothing) still renders HELP/TYPE, so families
// are discoverable before first use and idle gauges don't flap out of
// the exposition.
func TestEmptyFamilyKeepsMetadata(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("idle_total", "Never incremented.", []string{"tenant"})
	r.GaugeVecFunc("empty_lag", "Collector with nothing to say.", []string{"tenant"},
		func(emit func([]string, float64)) {})
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# HELP idle_total Never incremented.\n# TYPE idle_total counter\n",
		"# TYPE empty_lag gauge\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "idle_total{") || strings.Contains(out, "empty_lag{") {
		t.Errorf("empty family rendered sample lines:\n%s", out)
	}
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("x_total", "", nil).With().Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, ContentType)
	}
	if !strings.Contains(rec.Body.String(), "x_total 1") {
		t.Errorf("body missing sample:\n%s", rec.Body.String())
	}
}

func TestBuildInfo(t *testing.T) {
	r := NewRegistry()
	RegisterBuildInfo(r, "radcrit_build_info", "radcrit test-version")
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	if !strings.Contains(out, `radcrit_build_info{version="radcrit test-version",go="go`) ||
		!strings.Contains(out, `"} 1`) {
		t.Errorf("build info missing:\n%s", out)
	}
}

package fleet

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"radcrit/internal/campaign"
)

// TestJitterSeeded: jitter draws from the worker's private seeded
// stream — same seed, same schedule; distinct seeds, distinct schedules;
// every draw inside [d/2, d].
func TestJitterSeeded(t *testing.T) {
	const d = 800 * time.Millisecond
	draw := func(seed uint64, n int) []time.Duration {
		w := NewWorker(WorkerOptions{JitterSeed: seed})
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = w.jitter(d)
		}
		return out
	}
	a, b := draw(41, 32), draw(41, 32)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different schedules:\n%v\n%v", a, b)
	}
	if reflect.DeepEqual(a, draw(42, 32)) {
		t.Fatal("distinct seeds produced identical 32-draw schedules")
	}
	for i, v := range a {
		if v < d/2 || v > d {
			t.Fatalf("draw %d = %v outside [%v, %v]", i, v, d/2, d)
		}
	}
	// Degenerate delays pass through untouched.
	w := NewWorker(WorkerOptions{JitterSeed: 1})
	if got := w.jitter(0); got != 0 {
		t.Fatalf("jitter(0) = %v", got)
	}
	if got := w.jitter(-time.Second); got != -time.Second {
		t.Fatalf("jitter(-1s) = %v", got)
	}
}

// TestJitterSeedZeroDistinct: the production default (seed 0) derives a
// per-worker seed, so even same-named workers get distinct streams.
func TestJitterSeedZeroDistinct(t *testing.T) {
	const d = 800 * time.Millisecond
	a := NewWorker(WorkerOptions{Name: "w"})
	time.Sleep(time.Microsecond) // distinct clock reads
	b := NewWorker(WorkerOptions{Name: "w"})
	same := true
	for i := 0; i < 32; i++ {
		if a.jitter(d) != b.jitter(d) {
			same = false
		}
	}
	if same {
		t.Fatal("two seed-0 workers produced identical 32-draw schedules")
	}
}

// TestWorkItemPlanRoundTrip: a cell's one-cell plan survives the wire —
// marshal a WorkItem, unmarshal it — bit for bit. The decoded plan
// yields the same engine config and thresholds (floats compared by bit
// pattern) and the same cell key, under a non-default facility and base
// time, an adaptive spec, and explicit as well as empty thresholds; an
// absent adaptive spec stays absent.
func TestWorkItemPlanRoundTrip(t *testing.T) {
	adaptive := campaign.AdaptiveSpec{
		TargetHalfWidth: 0.1, MinStrikes: 100, CheckEvery: 50, Alpha: 0.01, MaxEpochs: 4,
	}
	full := campaign.NewPlan(42, 300).
		WithCell("k40", "dgemm:128").
		WithCell("phi", "lavamd:3").
		WithAdaptive(adaptive)
	full.Facility = "ISIS"
	full.BaseExecSeconds = 2.75
	plain := campaign.NewPlan(7, 64).WithCell("k40", "dgemm:128")

	cases := []struct {
		name       string
		plan       *campaign.Plan
		thresholds []float64
	}{
		{"adaptive, explicit thresholds", full, []float64{0, 0.5, 2}},
		{"adaptive, empty thresholds", full, nil},
		{"no adaptive spec", plain, []float64{1e-3}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := *c.plan
			p.Thresholds = c.thresholds
			orig := p.CellPlan(len(p.Cells) - 1)
			blob, err := json.Marshal(WorkItem{Lease: "l-1", Key: orig.CellKey(0), Plan: orig})
			if err != nil {
				t.Fatal(err)
			}
			var back WorkItem
			if err := json.Unmarshal(blob, &back); err != nil {
				t.Fatal(err)
			}
			if err := back.Plan.Validate(); err != nil {
				t.Fatalf("decoded plan does not validate: %v", err)
			}
			if got, want := back.Plan.CellKey(0), p.CellKey(len(p.Cells)-1); got != want || back.Key != want {
				t.Fatalf("cell key %s (item key %s), want %s", got, back.Key, want)
			}
			assertConfigBits(t, back.Plan.Config(), orig.Config())
			gotTs, wantTs := back.Plan.EffectiveThresholds(), orig.EffectiveThresholds()
			if len(gotTs) != len(wantTs) {
				t.Fatalf("thresholds %v, want %v", gotTs, wantTs)
			}
			for i := range wantTs {
				if math.Float64bits(gotTs[i]) != math.Float64bits(wantTs[i]) {
					t.Fatalf("threshold %d: %v, want %v", i, gotTs[i], wantTs[i])
				}
			}
			if orig.Adaptive == nil && jsonHasKey(t, planJSON(t, blob), "adaptive") {
				t.Fatalf("nil spec serialised an adaptive key: %s", blob)
			}
		})
	}
}

// assertConfigBits fails unless two engine configs agree field by field,
// floats by bit pattern.
func assertConfigBits(t *testing.T, got, want campaign.Config) {
	t.Helper()
	bits := math.Float64bits
	if got.Seed != want.Seed || got.Strikes != want.Strikes || got.Workers != want.Workers ||
		got.StreamChunk != want.StreamChunk || got.Facility.Name != want.Facility.Name ||
		bits(got.BaseExecSeconds) != bits(want.BaseExecSeconds) ||
		bits(got.Facility.Flux) != bits(want.Facility.Flux) ||
		bits(got.Facility.SpotDiameterInch) != bits(want.Facility.SpotDiameterInch) {
		t.Fatalf("config %+v, want %+v", got, want)
	}
	if (got.Adaptive == nil) != (want.Adaptive == nil) {
		t.Fatalf("adaptive spec %+v, want %+v", got.Adaptive, want.Adaptive)
	}
	if want.Adaptive == nil {
		return
	}
	g, w := *got.Adaptive, *want.Adaptive
	if bits(g.TargetHalfWidth) != bits(w.TargetHalfWidth) || bits(g.Alpha) != bits(w.Alpha) ||
		g.MinStrikes != w.MinStrikes || g.CheckEvery != w.CheckEvery || g.MaxEpochs != w.MaxEpochs {
		t.Fatalf("adaptive spec %+v, want %+v", g, w)
	}
}

// planJSON extracts a WorkItem body's "plan" object.
func planJSON(t *testing.T, item []byte) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(item, &m); err != nil {
		t.Fatal(err)
	}
	return m["plan"]
}

func jsonHasKey(t *testing.T, blob []byte, key string) bool {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	_, ok := m[key]
	return ok
}

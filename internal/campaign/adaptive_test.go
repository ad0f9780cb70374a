package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"

	"radcrit/internal/logdata"
)

// adaptiveGoldenPlan is the frozen acceptance plan: the four K40 golden
// cells (seed 42, 300 strikes) under a 0.1 half-width target with looks
// every 50 strikes. The stop points pinned by the tests below were
// measured once and are locked exactly like the golden FIT table: dgemm
// 250, lavamd 100, hotspot 150, clamr 100 — three cells at >= 2x
// savings, 600 of 1200 planned strikes executed overall.
func adaptiveGoldenPlan() *Plan {
	return NewPlan(goldenSeed, goldenStrikes).
		WithCell("k40", "dgemm:128").
		WithCell("k40", "lavamd:4").
		WithCell("k40", "hotspot:64x80").
		WithCell("k40", "clamr:48x60").
		WithThresholds(0, 2).
		WithAdaptive(AdaptiveSpec{TargetHalfWidth: 0.1, MinStrikes: 100, CheckEvery: 50})
}

// adaptiveGoldenStops are the measured chunk-aligned stop points of
// adaptiveGoldenPlan's cells, in plan order.
var adaptiveGoldenStops = []int{250, 100, 150, 100}

type bufCloser struct{ *bytes.Buffer }

func (bufCloser) Close() error { return nil }

// sameEvents compares two parsed event streams through re-serialisation.
// Masked-SDC events carry NaN reads, and reflect.DeepEqual reports
// NaN != NaN even on identical streams; the hex-float wire format
// round-trips NaN bit patterns, so byte equality is the right test.
func sameEvents(t *testing.T, a, b *logdata.Log) bool {
	t.Helper()
	var wa, wb bytes.Buffer
	if err := logdata.Write(&wa, &logdata.Log{Events: a.Events}); err != nil {
		t.Fatal(err)
	}
	if err := logdata.Write(&wb, &logdata.Log{Events: b.Events}); err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(wa.Bytes(), wb.Bytes())
}

func TestAdaptiveSpecValidation(t *testing.T) {
	valid := AdaptiveSpec{TargetHalfWidth: 0.1, MinStrikes: 100, CheckEvery: 50}
	cases := []struct {
		name string
		mut  func(a *AdaptiveSpec)
		ok   bool
	}{
		{"valid", func(a *AdaptiveSpec) {}, true},
		{"zero target", func(a *AdaptiveSpec) { a.TargetHalfWidth = 0 }, false},
		{"negative target", func(a *AdaptiveSpec) { a.TargetHalfWidth = -0.1 }, false},
		{"target above half", func(a *AdaptiveSpec) { a.TargetHalfWidth = 0.6 }, false},
		{"NaN target", func(a *AdaptiveSpec) { a.TargetHalfWidth = nan() }, false},
		{"negative min_strikes", func(a *AdaptiveSpec) { a.MinStrikes = -1 }, false},
		{"negative check_every", func(a *AdaptiveSpec) { a.CheckEvery = -1 }, false},
		{"alpha one", func(a *AdaptiveSpec) { a.Alpha = 1 }, false},
		{"negative alpha", func(a *AdaptiveSpec) { a.Alpha = -0.01 }, false},
		{"negative max_epochs", func(a *AdaptiveSpec) { a.MaxEpochs = -1 }, false},
		{"defaults everywhere", func(a *AdaptiveSpec) { *a = AdaptiveSpec{TargetHalfWidth: 0.2} }, true},
	}
	for _, c := range cases {
		a := valid
		c.mut(&a)
		p := NewPlan(1, 10).WithCell("k40", "dgemm:128").WithAdaptive(a)
		err := p.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: validation passed, want error", c.name)
		}
	}
	// A nil spec stays valid — the pre-adaptive plan shape.
	if err := NewPlan(1, 10).WithCell("k40", "dgemm:128").Validate(); err != nil {
		t.Fatalf("nil-adaptive plan invalid: %v", err)
	}
}

func nan() float64 { return float64(0) / zeroForNaN }

var zeroForNaN float64 // always zero; defeats the constant-division check

func TestAdaptivePlanJSONRoundTrip(t *testing.T) {
	p := adaptiveGoldenPlan()
	var buf bytes.Buffer
	if err := SavePlan(&buf, p); err != nil {
		t.Fatal(err)
	}
	back, err := LoadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, back) {
		t.Fatalf("round trip diverged:\n%+v\nvs\n%+v", p, back)
	}

	// The strict decoder reaches inside the nested spec: a typo there
	// fails loudly too.
	bad := `{"seed":1,"strikes":10,"cells":[{"device":"k40","kernel":"dgemm:128"}],` +
		`"adaptive":{"target_half_width":0.1,"check_eevery":50}}`
	if _, err := LoadPlan(strings.NewReader(bad)); err == nil {
		t.Fatal("unknown field inside adaptive spec accepted")
	}

	// A plan without a spec serialises without the key: byte-compatible
	// with pre-adaptive plan files.
	data, err := json.Marshal(NewPlan(1, 10).WithCell("k40", "dgemm:128"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("adaptive")) {
		t.Fatalf("nil-adaptive plan leaks the field: %s", data)
	}
}

func TestAdaptiveConfigNormalization(t *testing.T) {
	p := NewPlan(1, 100).WithCell("k40", "dgemm:128").
		WithAdaptive(AdaptiveSpec{TargetHalfWidth: 0.1})
	cfg := p.Config()
	got, rule, ok := adaptiveConfig(cfg)
	if !ok {
		t.Fatal("adaptive config not detected")
	}
	// CheckEvery defaults to the effective chunk, and the chunk is forced
	// to the look spacing so every boundary is a look.
	if got.StreamChunk != DefaultStreamChunk || got.Adaptive.CheckEvery != DefaultStreamChunk {
		t.Fatalf("chunk/check_every = %d/%d, want %d/%d",
			got.StreamChunk, got.Adaptive.CheckEvery, DefaultStreamChunk, DefaultStreamChunk)
	}
	if got.Adaptive.Alpha != DefaultAdaptiveAlpha || got.Adaptive.MaxEpochs != DefaultMaxEpochs {
		t.Fatalf("defaults not filled: %+v", got.Adaptive)
	}
	if rule.CheckEvery != DefaultStreamChunk || rule.Alpha != DefaultAdaptiveAlpha {
		t.Fatalf("rule not derived from normalized spec: %+v", rule)
	}
	// The default spacing enters CellKey and decides where a cell stops,
	// so it is pinned to the literal 512 and the key it gives: retuning
	// DefaultStreamChunk must not move a stored result, stop point or
	// #EPOCH record.
	if got.Adaptive.CheckEvery != 512 {
		t.Fatalf("default check_every = %d, want 512", got.Adaptive.CheckEvery)
	}
	const wantKey = "77d43b2f9b3a88ead8b3b0716553b53f6e513df1be39b76870085c81d75ad217"
	if key := p.CellKey(0); key != wantKey {
		t.Fatalf("CellKey = %s, want %s", key, wantKey)
	}

	// An explicit spacing overrides the chunk outright.
	cfg.StreamChunk = 128
	cfg.Adaptive = &AdaptiveSpec{TargetHalfWidth: 0.1, CheckEvery: 50}
	if got, _, _ = adaptiveConfig(cfg); got.StreamChunk != 50 {
		t.Fatalf("explicit check_every did not force the chunk: %d", got.StreamChunk)
	}

	// Non-adaptive configs pass through untouched.
	cfg.Adaptive = nil
	if got, _, ok = adaptiveConfig(cfg); ok || got.StreamChunk != 128 {
		t.Fatalf("non-adaptive config altered: %+v ok=%v", got, ok)
	}
}

func TestCellKeyAdaptive(t *testing.T) {
	base := NewPlan(42, 300).WithCell("k40", "dgemm:128").WithThresholds(0, 2)
	withSpec := func(a AdaptiveSpec) *Plan {
		p := NewPlan(42, 300).WithCell("k40", "dgemm:128").WithThresholds(0, 2)
		return p.WithAdaptive(a)
	}
	spec := AdaptiveSpec{TargetHalfWidth: 0.1, MinStrikes: 100, CheckEvery: 50}

	if base.CellKey(0) == withSpec(spec).CellKey(0) {
		t.Fatal("adaptive spec does not reach the cell key")
	}
	// Every spec field that can move a stop point is key material...
	distinct := map[string]string{
		"base":       withSpec(spec).CellKey(0),
		"target":     withSpec(AdaptiveSpec{TargetHalfWidth: 0.2, MinStrikes: 100, CheckEvery: 50}).CellKey(0),
		"min":        withSpec(AdaptiveSpec{TargetHalfWidth: 0.1, MinStrikes: 150, CheckEvery: 50}).CellKey(0),
		"every":      withSpec(AdaptiveSpec{TargetHalfWidth: 0.1, MinStrikes: 100, CheckEvery: 100}).CellKey(0),
		"alpha":      withSpec(AdaptiveSpec{TargetHalfWidth: 0.1, MinStrikes: 100, CheckEvery: 50, Alpha: 0.01}).CellKey(0),
		"no-mutable": base.CellKey(0),
	}
	seen := map[string]string{}
	for name, key := range distinct {
		if prev, dup := seen[key]; dup {
			t.Errorf("%s and %s collide on %s", name, prev, key)
		}
		seen[key] = name
	}
	// ...while MaxEpochs — pure reallocation policy — is not.
	a, b := spec, spec
	a.MaxEpochs, b.MaxEpochs = 3, 7
	if withSpec(a).CellKey(0) != withSpec(b).CellKey(0) {
		t.Fatal("MaxEpochs leaked into the cell key")
	}
	// The key is over the normalized spec: an implicit default equals its
	// explicit spelling.
	imp := withSpec(AdaptiveSpec{TargetHalfWidth: 0.1, MinStrikes: 100, CheckEvery: 50})
	exp := withSpec(AdaptiveSpec{TargetHalfWidth: 0.1, MinStrikes: 100, CheckEvery: 50, Alpha: DefaultAdaptiveAlpha})
	if imp.CellKey(0) != exp.CellKey(0) {
		t.Fatal("default alpha keys differently from its explicit value")
	}
	// CheckEvery 0 inherits the effective chunk, so the chunk becomes key
	// material exactly when the spec leaves the spacing implicit.
	chunk50 := withSpec(AdaptiveSpec{TargetHalfWidth: 0.1, MinStrikes: 100}).WithStreamChunk(50)
	explicit := withSpec(AdaptiveSpec{TargetHalfWidth: 0.1, MinStrikes: 100, CheckEvery: 50}).WithStreamChunk(50)
	if chunk50.CellKey(0) != explicit.CellKey(0) {
		t.Fatal("implicit spacing under a 50-chunk keys differently from explicit 50")
	}
	chunk100 := withSpec(AdaptiveSpec{TargetHalfWidth: 0.1, MinStrikes: 100}).WithStreamChunk(100)
	if chunk50.CellKey(0) == chunk100.CellKey(0) {
		t.Fatal("implicit spacing ignores the chunk it resolves to")
	}
}

// TestEarlyStopMatchesStraightRun is the determinism contract at cell
// granularity: an early-stopped cell is byte-identical to a straight run
// whose budget IS the stop point — summary and rescaled exposure both —
// at any worker count.
func TestEarlyStopMatchesStraightRun(t *testing.T) {
	plan := adaptiveGoldenPlan()
	cells, err := plan.Build()
	if err != nil {
		t.Fatal(err)
	}
	const cell = 1 // lavamd: stops at 100 of 300
	for _, workers := range []int{1, 8} {
		cfg := plan.Config()
		cfg.Workers = workers
		info, sum, err := RunPlanCell(context.Background(), cells[cell], cfg, plan.EffectiveThresholds())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if info.Strikes != adaptiveGoldenStops[cell] {
			t.Fatalf("workers=%d: stopped at %d, golden stop is %d", workers, info.Strikes, adaptiveGoldenStops[cell])
		}
		straight := cfg
		straight.Adaptive = nil
		straight.Strikes = info.Strikes
		sInfo, sSum, err := RunPlanCell(context.Background(), cells[cell], straight, plan.EffectiveThresholds())
		if err != nil {
			t.Fatalf("workers=%d straight: %v", workers, err)
		}
		if !reflect.DeepEqual(info, sInfo) {
			t.Errorf("workers=%d: info diverges from straight run:\n%+v\nvs\n%+v", workers, info, sInfo)
		}
		if !reflect.DeepEqual(sum, sSum) {
			t.Errorf("workers=%d: summary diverges from straight run:\n%+v\nvs\n%+v", workers, sum, sSum)
		}
	}
}

// TestAdaptiveGoldenSavings is the acceptance anchor: on the frozen
// seed-42 plan the adaptive runner reaches the 0.1 half-width target
// with the pinned per-cell stop points — three cells at >= 2x fewer
// strikes — and every stopped cell's tally matches the straight-run
// prefix the golden engine produces for that budget.
func TestAdaptiveGoldenSavings(t *testing.T) {
	plan := adaptiveGoldenPlan()
	logs := make([]*bytes.Buffer, len(plan.Cells))
	r := &AdaptiveRunner{Logs: func(i int, _ CellSpec) (io.WriteCloser, error) {
		logs[i] = &bytes.Buffer{}
		return bufCloser{logs[i]}, nil
	}}
	res, err := r.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	executed, saved2x := 0, 0
	for i, out := range res.Cells {
		if out.Err != nil {
			t.Fatalf("cell %d: %v", i, out.Err)
		}
		if out.Info.Strikes != adaptiveGoldenStops[i] {
			t.Errorf("cell %d stopped at %d, golden stop is %d", i, out.Info.Strikes, adaptiveGoldenStops[i])
		}
		executed += out.Info.Strikes
		if 2*out.Info.Strikes <= plan.Strikes {
			saved2x++
		}
	}
	if planned := plan.Strikes * len(plan.Cells); executed >= planned {
		t.Fatalf("adaptive run saved nothing: %d executed of %d planned", executed, planned)
	}
	if saved2x < 2 {
		t.Fatalf("only %d cells reached 2x savings, acceptance floor is 2", saved2x)
	}

	// Each early-stopped cell equals the straight run at its stop budget.
	straight := NewPlan(goldenSeed, adaptiveGoldenStops[1]).
		WithCell("k40", "lavamd:4").WithCell("k40", "clamr:48x60").WithThresholds(0, 2)
	sres, err := (&StreamRunner{}).Run(context.Background(), straight)
	if err != nil {
		t.Fatal(err)
	}
	for i, cell := range []int{1, 3} {
		if !reflect.DeepEqual(res.Cells[cell].Summary, sres.Cells[i].Summary) {
			t.Errorf("cell %d summary diverges from straight %d-strike run", cell, adaptiveGoldenStops[1])
		}
		if !reflect.DeepEqual(res.Cells[cell].Info, sres.Cells[i].Info) {
			t.Errorf("cell %d info diverges from straight %d-strike run", cell, adaptiveGoldenStops[1])
		}
	}

	// Every log carries its stop decision as an #EPOCH record and closes
	// with a count-consistent trailer.
	for i, log := range logs {
		parsed, err := logdata.Parse(bytes.NewReader(log.Bytes()))
		if err != nil {
			t.Fatalf("log %d unparseable: %v", i, err)
		}
		if len(parsed.Epochs) != 1 {
			t.Fatalf("log %d has %d epoch records, want 1", i, len(parsed.Epochs))
		}
		m := parsed.Epochs[0]
		if m.Epoch != 1 || m.Alloc != plan.Strikes || m.Consumed != adaptiveGoldenStops[i] || !m.Stopped {
			t.Errorf("log %d epoch record %+v does not match golden stop %d", i, m, adaptiveGoldenStops[i])
		}
	}
}

// TestAdaptiveReplayByteIdentity: a stopped cell's #EPOCH+#CHK log
// replays through ResumePlanCell to the byte-identical summary — from
// an empty log (a fresh run, whose log bytes match too), from the
// complete log (pure replay, no engine work) and from a prefix
// truncated mid-campaign (replay + deterministic tail re-run that makes
// the same stop decision).
func TestAdaptiveReplayByteIdentity(t *testing.T) {
	plan := adaptiveGoldenPlan()
	cells, err := plan.Build()
	if err != nil {
		t.Fatal(err)
	}
	const cell = 1 // lavamd: stops at 100
	cfg := plan.Config()
	ts := plan.EffectiveThresholds()

	info, err := CellInfo(cells[cell].Dev, cells[cell].Kern, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var orig bytes.Buffer
	chk, err := NewCheckpointSink(&orig, info, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	liveInfo, liveSum, err := RunPlanCell(context.Background(), cells[cell], cfg, ts, chk)
	if err != nil {
		t.Fatal(err)
	}
	if err := chk.Close(); err != nil {
		t.Fatal(err)
	}
	if liveInfo.Strikes != adaptiveGoldenStops[cell] {
		t.Fatalf("live run stopped at %d, golden stop is %d", liveInfo.Strikes, adaptiveGoldenStops[cell])
	}
	if !strings.Contains(orig.String(), "#EPOCH ") {
		t.Fatal("stopped cell's log carries no #EPOCH record")
	}

	// An empty prior log is a fresh run: the same stop, the same summary
	// and the same log bytes, #EPOCH record included.
	var fresh bytes.Buffer
	fInfo, fSum, err := ResumePlanCell(context.Background(), bytes.NewReader(nil), &fresh, cells[cell], cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fInfo, liveInfo) || !reflect.DeepEqual(fSum, liveSum) {
		t.Fatalf("empty-log run diverges:\n%+v\nvs live\n%+v", fSum, liveSum)
	}
	if fresh.String() != orig.String() {
		t.Fatalf("empty-log run wrote a different log (%d bytes vs %d live)", fresh.Len(), orig.Len())
	}

	// Replay the complete log: same summary, no strikes re-run.
	var rewrite bytes.Buffer
	rInfo, rSum, err := ResumePlanCell(context.Background(), bytes.NewReader(orig.Bytes()), &rewrite, cells[cell], cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rInfo, liveInfo) || !reflect.DeepEqual(rSum, liveSum) {
		t.Fatalf("complete-log replay diverges:\n%+v\nvs live\n%+v", rSum, liveSum)
	}

	// Truncate right after the first checkpoint — a crash 50 strikes in —
	// and resume: the tail re-runs, the stop decision recurs at 100, and
	// the rewritten log pins the same epoch record.
	cut := strings.Index(orig.String(), "#CHK ")
	cut += strings.IndexByte(orig.String()[cut:], '\n') + 1
	var resumed bytes.Buffer
	tInfo, tSum, err := ResumePlanCell(context.Background(), strings.NewReader(orig.String()[:cut]), &resumed, cells[cell], cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tInfo, liveInfo) || !reflect.DeepEqual(tSum, liveSum) {
		t.Fatalf("truncated-log resume diverges:\n%+v\nvs live\n%+v", tSum, liveSum)
	}
	origParsed, err := logdata.Parse(bytes.NewReader(orig.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resParsed, err := logdata.Parse(bytes.NewReader(resumed.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(origParsed.Epochs, resParsed.Epochs) {
		t.Fatalf("resume re-derived different epochs: %+v vs %+v", resParsed.Epochs, origParsed.Epochs)
	}
	if !sameEvents(t, origParsed, resParsed) || origParsed.Masked != resParsed.Masked {
		t.Fatal("resume re-derived a different event stream")
	}

	// A salvage point that already satisfies the rule stops without
	// re-running: truncate after the second checkpoint (the stop point's
	// own #CHK) but before the #EPOCH record survived.
	cut2 := strings.Index(orig.String(), "#EPOCH ")
	var salvaged bytes.Buffer
	sInfo, sSum, err := ResumePlanCell(context.Background(), strings.NewReader(orig.String()[:cut2]), &salvaged, cells[cell], cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sInfo, liveInfo) || !reflect.DeepEqual(sSum, liveSum) {
		t.Fatalf("salvage-point stop diverges:\n%+v\nvs live\n%+v", sSum, liveSum)
	}
}

// TestAdaptiveRunnerNilSpecDelegates pins today's behaviour for plans
// without a spec: AdaptiveRunner is StreamRunner, outcome for outcome.
func TestAdaptiveRunnerNilSpecDelegates(t *testing.T) {
	plan := NewPlan(7, 60).
		WithCell("k40", "dgemm:128").WithCell("k40", "hotspot:64x80").
		WithThresholds(0, 2)
	a, err := (&AdaptiveRunner{}).Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	s, err := (&StreamRunner{}).Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Cells, s.Cells) {
		t.Fatalf("nil-spec AdaptiveRunner diverges from StreamRunner:\n%+v\nvs\n%+v", a.Cells, s.Cells)
	}
}

// TestAdaptiveRunnerReallocation pins the budget-epoch machinery under a
// tighter 0.08 target: lavamd frees 200 strikes and clamr 50, hotspot
// stops exactly at its budget, and the whole pool flows to dgemm — the
// one open cell — whose epoch-2 allocation of 550 stops at 450. Two runs
// produce byte-identical logs: reallocation is a pure function of the
// epoch log.
func TestAdaptiveRunnerReallocation(t *testing.T) {
	run := func() ([]*bytes.Buffer, *PlanResult) {
		plan := adaptiveGoldenPlan().
			WithAdaptive(AdaptiveSpec{TargetHalfWidth: 0.08, MinStrikes: 100, CheckEvery: 50, MaxEpochs: 3})
		logs := make([]*bytes.Buffer, len(plan.Cells))
		r := &AdaptiveRunner{Logs: func(i int, _ CellSpec) (io.WriteCloser, error) {
			logs[i] = &bytes.Buffer{}
			return bufCloser{logs[i]}, nil
		}}
		res, err := r.Run(context.Background(), plan)
		if err != nil {
			t.Fatal(err)
		}
		return logs, res
	}
	logs, res := run()

	wantStops := []int{450, 100, 300, 250}
	for i, out := range res.Cells {
		if out.Err != nil {
			t.Fatalf("cell %d: %v", i, out.Err)
		}
		if out.Info.Strikes != wantStops[i] {
			t.Errorf("cell %d consumed %d, want %d", i, out.Info.Strikes, wantStops[i])
		}
	}
	if res.Cells[0].Info.Strikes <= goldenStrikes {
		t.Fatal("reallocation never extended dgemm past its planned budget")
	}
	parsed, err := logdata.Parse(bytes.NewReader(logs[0].Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := []logdata.EpochMark{
		{Epoch: 1, Alloc: 300, Consumed: 300, SDC: 112, HalfWidth: parsed.Epochs[0].HalfWidth, Stopped: false},
		{Epoch: 2, Alloc: 550, Consumed: 450, SDC: 170, HalfWidth: parsed.Epochs[1].HalfWidth, Stopped: true},
	}
	if !reflect.DeepEqual(parsed.Epochs, want) {
		t.Fatalf("dgemm epoch trail %+v, want %+v", parsed.Epochs, want)
	}

	logs2, res2 := run()
	for i := range logs {
		if !bytes.Equal(logs[i].Bytes(), logs2[i].Bytes()) {
			t.Errorf("run 2 log %d differs byte-wise", i)
		}
		if !reflect.DeepEqual(res.Cells[i].Summary, res2.Cells[i].Summary) {
			t.Errorf("run 2 summary %d differs", i)
		}
	}
}

// TestAdaptiveRunnerResumesOwnLog: a multi-epoch adaptive log (epoch
// marks mid-stream, events beyond them) survives the resume rewrite —
// marks are re-emitted at their original positions, so both parsers
// accept the rewritten log and the epoch trail is intact.
func TestAdaptiveRunnerResumesOwnLog(t *testing.T) {
	plan := adaptiveGoldenPlan().
		WithAdaptive(AdaptiveSpec{TargetHalfWidth: 0.08, MinStrikes: 100, CheckEvery: 50, MaxEpochs: 3})
	logs := make([]*bytes.Buffer, len(plan.Cells))
	r := &AdaptiveRunner{Logs: func(i int, _ CellSpec) (io.WriteCloser, error) {
		logs[i] = &bytes.Buffer{}
		return bufCloser{logs[i]}, nil
	}}
	if _, err := r.Run(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	// dgemm's log holds an epoch-1 mark at 300 with events beyond it.
	cells, err := plan.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := plan.Config()
	cfg.Strikes = 450 // the budget the epoch trail settled on
	var rewrite bytes.Buffer
	_, sum, err := ResumePlanCell(context.Background(), bytes.NewReader(logs[0].Bytes()), &rewrite,
		cells[0], cfg, plan.EffectiveThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Tally.SDC != 170 {
		t.Fatalf("replayed SDC count %d, want 170", sum.Tally.SDC)
	}
	parsed, err := logdata.Parse(bytes.NewReader(rewrite.Bytes()))
	if err != nil {
		t.Fatalf("rewritten multi-epoch log unparseable: %v", err)
	}
	origParsed, err := logdata.Parse(bytes.NewReader(logs[0].Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed.Epochs, origParsed.Epochs) {
		t.Fatalf("rewrite lost the epoch trail: %+v vs %+v", parsed.Epochs, origParsed.Epochs)
	}
	if !sameEvents(t, parsed, origParsed) || parsed.Masked != origParsed.Masked {
		t.Fatal("rewrite altered the event stream")
	}
}

// TestAdaptiveRunnerCheckpointsBeforeProgress pins the adaptive runner's
// sink order across epochs: when OnChunk hears of a chunk boundary, the
// cell's log already holds the #CHK covering it.
func TestAdaptiveRunnerCheckpointsBeforeProgress(t *testing.T) {
	plan := adaptiveGoldenPlan().
		WithAdaptive(AdaptiveSpec{TargetHalfWidth: 0.08, MinStrikes: 100, CheckEvery: 50, MaxEpochs: 3})
	covs := make([]*coverageSink, len(plan.Cells))
	r := &AdaptiveRunner{
		Progress: Progress{OnChunk: func(cell, done int) { covs[cell].FlushChunk(done) }},
		Logs: func(i int, spec CellSpec) (io.WriteCloser, error) {
			covs[i] = &coverageSink{t: t, label: spec.Kernel, log: &bytes.Buffer{}}
			return bufCloser{covs[i].log}, nil
		},
	}
	if _, err := r.Run(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	for i, c := range covs {
		if c.flushes == 0 {
			t.Errorf("cell %d: OnChunk never fired", i)
		}
	}
}

// TestAdaptiveRunnerCancellation: an external cancellation mid-plan
// still returns partial outcomes and resumable logs, never #END.
func TestAdaptiveRunnerCancellation(t *testing.T) {
	plan := adaptiveGoldenPlan()
	ctx, cancel := context.WithCancel(context.Background())
	logs := make([]*bytes.Buffer, len(plan.Cells))
	r := &AdaptiveRunner{
		Progress: Progress{OnChunk: func(cell, done int) {
			if cell == 0 && done >= 100 {
				cancel()
			}
		}},
		Logs: func(i int, _ CellSpec) (io.WriteCloser, error) {
			logs[i] = &bytes.Buffer{}
			return bufCloser{logs[i]}, nil
		},
	}
	res, err := r.Run(ctx, plan)
	if err != context.Canceled {
		t.Fatalf("cancelled run returned %v", err)
	}
	if res == nil || len(res.Cells) != len(plan.Cells) {
		t.Fatal("cancelled run lost the partial result")
	}
	out := res.Cells[0]
	if out.Err != context.Canceled || out.Summary == nil || out.Info.Strikes == 0 {
		t.Fatalf("in-flight cell outcome %+v lacks partial state", out)
	}
	if bytes.Contains(logs[0].Bytes(), []byte("#END")) {
		t.Fatal("cancelled cell's log was sealed — it must stay resumable")
	}
	resu, err := logdata.ParseResume(bytes.NewReader(logs[0].Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if resu.Complete || resu.Next == 0 {
		t.Fatalf("cancelled log not resumable: %+v", resu)
	}
	for _, later := range res.Cells[1:] {
		if later.Err == nil {
			t.Fatal("unreached cell not marked cancelled")
		}
	}
}

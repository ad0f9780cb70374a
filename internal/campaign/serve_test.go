package campaign

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"radcrit/internal/injector"
	"radcrit/internal/k40"
	"radcrit/internal/kernels/dgemm"
	"radcrit/internal/logdata"
)

// TestCellKeyCanonicalisation pins the content-address contract: every
// field that can change a cell's summary changes the key, and the two
// wall-time-only knobs (Workers, StreamChunk) do not.
func TestCellKeyCanonicalisation(t *testing.T) {
	base := NewPlan(42, 300).WithCell("k40", "dgemm:128").WithThresholds(0, 2)
	baseKey := base.CellKey(0)
	if len(baseKey) != 64 || strings.ToLower(baseKey) != baseKey {
		t.Fatalf("CellKey %q is not lowercase sha256 hex", baseKey)
	}

	facility := NewPlan(42, 300).WithCell("k40", "dgemm:128").WithThresholds(0, 2)
	facility.Facility = "ISIS"
	baseExec := NewPlan(42, 300).WithCell("k40", "dgemm:128").WithThresholds(0, 2)
	baseExec.BaseExecSeconds = 2
	mutations := map[string]*Plan{
		"device":     NewPlan(42, 300).WithCell("phi", "dgemm:128").WithThresholds(0, 2),
		"kernel":     NewPlan(42, 300).WithCell("k40", "dgemm:256").WithThresholds(0, 2),
		"seed":       NewPlan(43, 300).WithCell("k40", "dgemm:128").WithThresholds(0, 2),
		"strikes":    NewPlan(42, 301).WithCell("k40", "dgemm:128").WithThresholds(0, 2),
		"thresholds": NewPlan(42, 300).WithCell("k40", "dgemm:128").WithThresholds(0, 3),
		"facility":   facility,
		"base_exec":  baseExec,
	}
	seen := map[string]string{baseKey: "base"}
	for what, p := range mutations {
		k := p.CellKey(0)
		if prev, dup := seen[k]; dup {
			t.Errorf("mutating %s collides with %s (key %s)", what, prev, k)
		}
		seen[k] = what
	}

	same := NewPlan(42, 300).WithCell("k40", "dgemm:128").WithThresholds(0, 2).
		WithWorkers(8).WithStreamChunk(17)
	if got := same.CellKey(0); got != baseKey {
		t.Errorf("Workers/StreamChunk changed the key: %s vs %s — they can never change results", got, baseKey)
	}

	// Field separators cannot be forged from inside a name: a device
	// string embedding the canonical encoding of the next field must not
	// collide with the honest spelling.
	a := CellKey(CellSpec{Device: "x\nkernel=1:y", Kernel: "z"}, base.Config(), nil)
	b := CellKey(CellSpec{Device: "x", Kernel: "y"}, base.Config(), nil)
	if a == b {
		t.Errorf("crafted device name collides across field boundaries")
	}
}

// summaryBits flattens every float in a Summary to its bit pattern so two
// summaries can be compared for exact equality, NaN-safely.
func summaryBits(t *testing.T, s *Summary) []uint64 {
	t.Helper()
	if s == nil {
		t.Fatalf("nil summary")
	}
	bits := []uint64{
		uint64(s.Tally.Masked), uint64(s.Tally.SDC),
		uint64(s.Tally.Crash), uint64(s.Tally.Hang),
		math.Float64bits(s.DUEFIT),
	}
	for _, v := range s.SDCFIT {
		bits = append(bits, math.Float64bits(v))
	}
	for _, v := range s.FilteredFraction {
		bits = append(bits, math.Float64bits(v))
	}
	for _, bd := range s.Locality {
		for _, v := range bd.Values {
			bits = append(bits, math.Float64bits(v))
		}
	}
	return bits
}

func requireSameSummary(t *testing.T, label string, got, want *Summary) {
	t.Helper()
	g, w := summaryBits(t, got), summaryBits(t, want)
	if len(g) != len(w) {
		t.Fatalf("%s: summary shape differs: %d vs %d values", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Errorf("%s: summary value %d differs: %#x vs %#x", label, i, g[i], w[i])
		}
	}
}

// TestResumePlanCellBitIdentical cuts a checkpointed cell log at an
// arbitrary byte and asserts that ResumePlanCell reconstructs both the
// log and the summary bit-identically to the uninterrupted run — the
// foundation of the daemon's resume-on-restart contract.
func TestResumePlanCellBitIdentical(t *testing.T) {
	cell := Cell{Dev: k40.New(), Kern: dgemm.New(128)}
	cfg := DefaultConfig(42, 300)
	cfg.StreamChunk = 64
	ts := []float64{0, 2}

	var full bytes.Buffer
	info, err := CellInfo(cell.Dev, cell.Kern, cfg)
	if err != nil {
		t.Fatalf("CellInfo: %v", err)
	}
	chk, err := NewCheckpointSink(&full, info, cfg.Seed)
	if err != nil {
		t.Fatalf("NewCheckpointSink: %v", err)
	}
	_, want, err := RunPlanCell(context.Background(), cell, cfg, ts, chk)
	if err != nil {
		t.Fatalf("RunPlanCell: %v", err)
	}
	if err := chk.Close(); err != nil {
		t.Fatalf("checkpoint close: %v", err)
	}

	for _, cut := range []int{0, 1, full.Len() / 3, full.Len() / 2, full.Len() - 1, full.Len()} {
		truncated := full.Bytes()[:cut]
		var recovered bytes.Buffer
		_, got, err := ResumePlanCell(context.Background(),
			bytes.NewReader(truncated), &recovered, cell, cfg, ts)
		if err != nil {
			t.Fatalf("cut %d: ResumePlanCell: %v", cut, err)
		}
		requireSameSummary(t, "cut "+strconv.Itoa(cut), got, want)
		// A cut that salvages nothing is a fresh run: byte for byte the
		// uninterrupted log, with no checkpoint for the empty prefix.
		if res, err := logdata.ParseResume(bytes.NewReader(truncated)); err == nil && res.Next == 0 && recovered.String() != full.String() {
			t.Errorf("cut %d: log salvaging nothing differs from the fresh log", cut)
		}
		// The recovered log is event-for-event identical to the
		// uninterrupted one (checkpoint-record placement may differ: the
		// replayed prefix is written in one piece). Equality is checked on
		// the normalised parse→write round trip — hex-float output is
		// bit-exact and NaN-safe, where DeepEqual on NaN reads is not.
		if got, want := normalisedLog(t, cut, recovered.String()), normalisedLog(t, cut, full.String()); got != want {
			t.Errorf("cut %d: recovered log events differ from the uninterrupted log", cut)
		}
	}

	// A log for a different seed must be rejected, not resumed
	// into a silently wrong summary.
	otherCfg := cfg
	otherCfg.Seed = 7
	var w bytes.Buffer
	if _, _, err := ResumePlanCell(context.Background(),
		bytes.NewReader(full.Bytes()), &w, cell, otherCfg, ts); err == nil {
		t.Errorf("resume under a different seed did not error")
	}
}

// normalisedLog parses a checkpoint log and re-serialises it, yielding a
// canonical event-stream form independent of checkpoint placement.
func normalisedLog(t *testing.T, cut int, raw string) string {
	t.Helper()
	l, err := logdata.Parse(strings.NewReader(raw))
	if err != nil {
		t.Fatalf("cut %d: log unparseable: %v", cut, err)
	}
	return canonicalLog(t, l)
}

// canonicalLog re-serialises l's header, masked count and events through
// a StreamWriter with no #CHK or #EPOCH records.
func canonicalLog(t *testing.T, l *logdata.Log) string {
	t.Helper()
	var b bytes.Buffer
	sw, err := logdata.NewStreamWriter(&b, l)
	if err != nil {
		t.Fatal(err)
	}
	sw.AddMasked(l.Masked)
	for _, ev := range l.Events {
		if err := sw.WriteEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestResumeSurvivesImmediateInterruption pins the resume path's
// durability invariant: even when the resumed run is interrupted before
// a single tail chunk completes, the rewritten log still carries a
// checkpoint covering the salvaged prefix — progress can never regress
// across repeated short-lived interruptions.
func TestResumeSurvivesImmediateInterruption(t *testing.T) {
	cell := Cell{Dev: k40.New(), Kern: dgemm.New(128)}
	cfg := DefaultConfig(42, 160)
	cfg.StreamChunk = 32
	ts := []float64{0, 2}

	var full bytes.Buffer
	info, err := CellInfo(cell.Dev, cell.Kern, cfg)
	if err != nil {
		t.Fatal(err)
	}
	chk, err := NewCheckpointSink(&full, info, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunPlanCell(context.Background(), cell, cfg, ts, chk); err != nil {
		t.Fatal(err)
	}
	if err := chk.Close(); err != nil {
		t.Fatal(err)
	}

	truncated := full.Bytes()[:2*full.Len()/3]
	before, err := logdata.ParseResume(bytes.NewReader(truncated))
	if err != nil {
		t.Fatal(err)
	}
	if before.Next == 0 {
		t.Fatalf("test cut salvaged nothing; pick a later cut")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the resume is interrupted before any tail strike runs
	var rewritten bytes.Buffer
	if _, _, err := ResumePlanCell(ctx, bytes.NewReader(truncated), &rewritten, cell, cfg, ts); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted resume returned %v, want context.Canceled", err)
	}
	after, err := logdata.ParseResume(bytes.NewReader(rewritten.Bytes()))
	if err != nil {
		t.Fatalf("rewritten log unparseable: %v", err)
	}
	if after.Next < before.Next {
		t.Errorf("rewritten log resumes at %d, older log at %d: salvaged progress was lost", after.Next, before.Next)
	}
	if after.Masked != before.Masked {
		t.Errorf("rewritten log masked count %d, want %d", after.Masked, before.Masked)
	}
}

// coverageSink asserts, at every chunk boundary it sees, that the
// checkpoint log written so far already covers that boundary: the cell's
// checkpoint sink must flush ahead of every extra sink, or a progress
// relay could claim strikes the log would lose in a crash.
type coverageSink struct {
	t       *testing.T
	label   string
	log     *bytes.Buffer
	flushes int
}

func (s *coverageSink) Consume(int, injector.Outcome) {}

func (s *coverageSink) FlushChunk(next int) {
	s.flushes++
	res, err := logdata.ParseResume(bytes.NewReader(s.log.Bytes()))
	if err != nil {
		s.t.Errorf("%s: log unparseable at FlushChunk(%d): %v", s.label, next, err)
		return
	}
	if res.Next != next {
		s.t.Errorf("%s: at FlushChunk(%d) the log covers strikes up to %d", s.label, next, res.Next)
	}
}

// TestResumePlanCellCheckpointsBeforeExtraSinks pins the sink order of
// the logged-cell path, from an empty prior log and from a salvaged one.
func TestResumePlanCellCheckpointsBeforeExtraSinks(t *testing.T) {
	cell := Cell{Dev: k40.New(), Kern: dgemm.New(64)}
	cfg := DefaultConfig(42, 128)
	cfg.StreamChunk = 32
	ts := []float64{0, 2}

	var full bytes.Buffer
	fresh := &coverageSink{t: t, label: "empty log", log: &full}
	if _, _, err := ResumePlanCell(context.Background(), bytes.NewReader(nil), &full, cell, cfg, ts, fresh); err != nil {
		t.Fatal(err)
	}
	cut := full.Len() / 2
	if res, err := logdata.ParseResume(bytes.NewReader(full.Bytes()[:cut])); err != nil || res.Next == 0 {
		t.Fatalf("cut %d salvages nothing (%v); pick a later cut", cut, err)
	}
	var resumed bytes.Buffer
	tail := &coverageSink{t: t, label: "salvaged log", log: &resumed}
	if _, _, err := ResumePlanCell(context.Background(), bytes.NewReader(full.Bytes()[:cut]), &resumed, cell, cfg, ts, tail); err != nil {
		t.Fatal(err)
	}
	if fresh.flushes != 4 || tail.flushes == 0 {
		t.Fatalf("saw %d fresh and %d tail chunk flushes, want 4 and > 0", fresh.flushes, tail.flushes)
	}
}

// FuzzResumePlanCellCut truncates a small cell's fresh log at a fuzzed
// byte and resumes it: every cut, 0 included, must give the fresh run's
// summary bit for bit.
func FuzzResumePlanCellCut(f *testing.F) {
	cell := Cell{Dev: k40.New(), Kern: dgemm.New(64)}
	cfg := DefaultConfig(42, 96)
	cfg.StreamChunk = 32
	ts := []float64{0, 2}
	var full bytes.Buffer
	_, want, err := ResumePlanCell(context.Background(), bytes.NewReader(nil), &full, cell, cfg, ts)
	if err != nil {
		f.Fatal(err)
	}
	for _, cut := range []uint{0, uint(full.Len() / 3), uint(full.Len() - 1), uint(full.Len())} {
		f.Add(cut)
	}
	f.Fuzz(func(t *testing.T, cut uint) {
		cut %= uint(full.Len() + 1)
		var w bytes.Buffer
		_, got, err := ResumePlanCell(context.Background(), bytes.NewReader(full.Bytes()[:cut]), &w, cell, cfg, ts)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		requireSameSummary(t, "cut "+strconv.Itoa(int(cut)), got, want)
	})
}

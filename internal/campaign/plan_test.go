package campaign

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func validPlan() *Plan {
	return NewPlan(42, 300).
		Named("test").
		WithKernelOnDevices("dgemm:128", "k40", "phi").
		WithThresholds(0, 2).
		WithWorkers(2).
		WithStreamChunk(64)
}

func TestPlanBuilderAndValidate(t *testing.T) {
	p := validPlan()
	if err := p.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if len(p.Cells) != 2 || p.Cells[1] != (CellSpec{Device: "phi", Kernel: "dgemm:128"}) {
		t.Fatalf("builder assembled %+v", p.Cells)
	}
	cfg := p.Config()
	if cfg.Seed != 42 || cfg.Strikes != 300 || cfg.Workers != 2 ||
		cfg.StreamChunk != 64 || cfg.BaseExecSeconds != 1.0 || cfg.Facility.Name != "LANSCE" {
		t.Fatalf("Config() = %+v", cfg)
	}
}

// TestPlanValidateRejections is the rejection table of the plan surface:
// every malformed plan that used to panic somewhere inside a run must
// come back as an error naming the problem.
func TestPlanValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(p *Plan)
		want   string // substring of the error
	}{
		{"zero strikes", func(p *Plan) { p.Strikes = 0 }, "strikes"},
		{"negative strikes", func(p *Plan) { p.Strikes = -5 }, "strikes"},
		{"no cells", func(p *Plan) { p.Cells = nil }, "no cells"},
		{"unknown device", func(p *Plan) { p.Cells[0].Device = "gtx" }, "unknown device"},
		{"unknown kernel", func(p *Plan) { p.Cells[0].Kernel = "sgemm:128" }, "unknown kernel"},
		{"non-tile dgemm", func(p *Plan) { p.Cells[0].Kernel = "dgemm:100" }, "multiple"},
		{"dgemm without size", func(p *Plan) { p.Cells[0].Kernel = "dgemm" }, "missing"},
		{"garbage dgemm size", func(p *Plan) { p.Cells[0].Kernel = "dgemm:huge" }, "not an integer"},
		{"lavamd too small", func(p *Plan) { p.Cells[0].Kernel = "lavamd:1" }, "too small"},
		{"malformed hotspot", func(p *Plan) { p.Cells[0].Kernel = "hotspot:64" }, "SIDExITERS"},
		{"tiny clamr", func(p *Plan) { p.Cells[0].Kernel = "clamr:8x2" }, "invalid config"},
		{"negative workers", func(p *Plan) { p.Workers = -1 }, "workers"},
		{"negative stream chunk", func(p *Plan) { p.StreamChunk = -1 }, "stream_chunk"},
		{"unknown facility", func(p *Plan) { p.Facility = "CERN" }, "facility"},
		{"NaN threshold", func(p *Plan) { p.Thresholds = []float64{math.NaN()} }, "threshold"},
		{"negative exec seconds", func(p *Plan) { p.BaseExecSeconds = -1 }, "base_exec_seconds"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := validPlan()
			c.mutate(p)
			err := p.Validate()
			if err == nil {
				t.Fatalf("Validate accepted plan with %s", c.name)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
			// The facade contract: the same plan must be rejected by
			// every Runner entry point, never panic inside one.
			if _, berr := p.Build(); berr == nil {
				t.Errorf("Build accepted plan with %s", c.name)
			}
		})
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	p := validPlan()
	p.Facility, p.BaseExecSeconds = "ISIS", 2.5
	var buf bytes.Buffer
	if err := SavePlan(&buf, p); err != nil {
		t.Fatalf("SavePlan: %v", err)
	}
	p2, err := LoadPlan(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadPlan: %v", err)
	}
	if !reflect.DeepEqual(p, p2) {
		t.Fatalf("round trip drifted:\n  saved  %+v\n  loaded %+v", p, p2)
	}
}

func TestLoadPlanRejects(t *testing.T) {
	cases := []struct{ name, in string }{
		{"empty", ""},
		{"not json", "strikes: 300"},
		{"unknown field", `{"seed":1,"strikes":10,"strike_budget":9,"cells":[{"device":"k40","kernel":"dgemm:128"}]}`},
		{"trailing garbage", `{"seed":1,"strikes":10,"cells":[{"device":"k40","kernel":"dgemm:128"}]} extra`},
		{"invalid plan", `{"seed":1,"strikes":0,"cells":[{"device":"k40","kernel":"dgemm:128"}]}`},
		{"bad cell", `{"seed":1,"strikes":10,"cells":[{"device":"k40","kernel":"dgemm:7"}]}`},
	}
	for _, c := range cases {
		if _, err := LoadPlan(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: LoadPlan accepted %q", c.name, c.in)
		}
	}
}

// FuzzLoadPlan asserts that no byte stream can panic the plan loader and
// that every accepted plan survives a save/load round trip unchanged.
func FuzzLoadPlan(f *testing.F) {
	f.Add([]byte(`{"seed":42,"strikes":300,"cells":[{"device":"k40","kernel":"dgemm:128"}]}`))
	f.Add([]byte(`{"name":"x","seed":1,"strikes":10,"cells":[{"device":"phi","kernel":"clamr:48x60"}],"thresholds":[0,2.5],"workers":3,"stream_chunk":128,"base_exec_seconds":0.5,"facility":"ISIS"}`))
	f.Add([]byte(`{"seed":-1}`))
	f.Add([]byte(`[{"device":"k40"}]`))
	f.Add([]byte(`{"thresholds":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := LoadPlan(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := SavePlan(&buf, p); err != nil {
			t.Fatalf("accepted plan failed to save: %v", err)
		}
		p2, err := LoadPlan(&buf)
		if err != nil {
			t.Fatalf("saved plan failed to load: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatalf("round trip drifted:\n  in  %+v\n  out %+v", p, p2)
		}
	})
}

func TestEffectiveThresholds(t *testing.T) {
	p := NewPlan(1, 10).WithCell("k40", "dgemm:128")
	if got := p.EffectiveThresholds(); !reflect.DeepEqual(got, []float64{0, 2}) {
		t.Errorf("default thresholds = %v", got)
	}
	p.WithThresholds(5)
	if got := p.EffectiveThresholds(); !reflect.DeepEqual(got, []float64{5}) {
		t.Errorf("explicit thresholds = %v", got)
	}
}

// TestCellPlan: every cell's one-cell plan carries the parent's cell key,
// for the golden plan and for the adaptive example plan, and appending to
// a one-cell plan's Cells never writes into the parent.
func TestCellPlan(t *testing.T) {
	golden, err := LoadPlan(strings.NewReader(goldenPlanJSON))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join("..", "..", "examples", "plans", "adaptive.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	adaptive, err := LoadPlan(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Plan{golden, adaptive} {
		for i := range p.Cells {
			sub := p.CellPlan(i)
			if err := sub.Validate(); err != nil {
				t.Fatalf("%s cell %d: one-cell plan invalid: %v", p.Name, i, err)
			}
			if len(sub.Cells) != 1 || sub.Cells[0] != p.Cells[i] {
				t.Fatalf("%s cell %d: one-cell plan holds %v", p.Name, i, sub.Cells)
			}
			if got, want := sub.CellKey(0), p.CellKey(i); got != want {
				t.Errorf("%s cell %d: CellPlan key %s, want %s", p.Name, i, got, want)
			}
		}
	}

	before := slices.Clone(golden.Cells)
	sub := golden.CellPlan(0)
	sub.WithCell("phi", "dgemm:128")
	if !slices.Equal(golden.Cells, before) {
		t.Fatalf("appending to a one-cell plan rewrote the parent: %v", golden.Cells)
	}
}

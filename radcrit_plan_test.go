package radcrit_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"radcrit"
)

// TestPlanFacadeEndToEnd drives the declarative surface exactly as a
// third-party consumer would: build a plan fluently, serialise it, load
// it back, and run it on the streaming runner and on the adaptive runner
// (which delegates a plan without a spec), with progress hooks.
func TestPlanFacadeEndToEnd(t *testing.T) {
	plan := radcrit.NewPlan(42, 120).
		Named("facade-e2e").
		WithKernelOnDevices("dgemm:128", "k40", "phi").
		WithThresholds(0, 2).
		WithStreamChunk(40)

	var buf bytes.Buffer
	if err := radcrit.SavePlan(&buf, plan); err != nil {
		t.Fatalf("SavePlan: %v", err)
	}
	loaded, err := radcrit.LoadPlan(&buf)
	if err != nil {
		t.Fatalf("LoadPlan: %v", err)
	}

	var cells int
	adaptive := radcrit.NewAdaptiveRunner()
	adaptive.Progress = radcrit.Progress{OnCell: func(int, *radcrit.CellOutcome) { cells++ }}
	ares, err := adaptive.Run(context.Background(), loaded)
	if err != nil {
		t.Fatalf("adaptive run: %v", err)
	}
	if cells != 2 {
		t.Errorf("OnCell fired %d times", cells)
	}
	sres, err := radcrit.NewStreamRunner().Run(context.Background(), loaded)
	if err != nil {
		t.Fatalf("stream run: %v", err)
	}
	for i := range ares.Cells {
		a, s := ares.Cells[i].Summary, sres.Cells[i].Summary
		if a.Tally != s.Tally {
			t.Errorf("cell %d: runners disagree on tally: %+v vs %+v", i, a.Tally, s.Tally)
		}
		for k := range a.SDCFIT {
			if a.SDCFIT[k] != s.SDCFIT[k] {
				t.Errorf("cell %d threshold %d: runners disagree on SDC FIT", i, k)
			}
		}
		if a.Tally.SDC == 0 {
			t.Errorf("cell %d: campaign produced no SDCs — test is vacuous", i)
		}
	}
}

// TestFacadeRejectsInvalidPlans pins the no-panic contract of the public
// surface: malformed plans come back as errors from every entry point.
func TestFacadeRejectsInvalidPlans(t *testing.T) {
	if _, err := radcrit.LoadPlan(strings.NewReader(`{"seed":1,"strikes":10,"cells":[{"device":"k40","kernel":"dgemm:7"}]}`)); err == nil {
		t.Errorf("LoadPlan accepted a non-tile DGEMM size")
	}
	bad := radcrit.NewPlan(1, 0).WithCell("k40", "dgemm:128")
	for name, r := range map[string]radcrit.Runner{
		"stream":   radcrit.NewStreamRunner(),
		"adaptive": radcrit.NewAdaptiveRunner(),
	} {
		if _, err := r.Run(context.Background(), bad); err == nil {
			t.Errorf("%s runner accepted a zero-strike plan", name)
		}
	}
	if _, err := radcrit.NewKernel("clamr:1x1"); err == nil {
		t.Errorf("NewKernel accepted an invalid CLAMR config")
	}
}

// TestFacadeCancellation pins ctx.Err() propagation through the facade.
func TestFacadeCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	plan := radcrit.NewPlan(1, 50).WithCell("k40", "dgemm:128")
	if _, err := radcrit.NewStreamRunner().Run(ctx, plan); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled facade run returned %v", err)
	}
}

package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"radcrit/internal/arch"
	"radcrit/internal/grid"
	"radcrit/internal/injector"
	"radcrit/internal/kernels"
	"radcrit/internal/metrics"
	"radcrit/internal/registry"
	"radcrit/internal/xrand"
)

// goldenPlanJSON is the goldenTable's experiment matrix written as a
// declarative JSON plan: the same seed-42/300-strike cells, one plan.
const goldenPlanJSON = `{
  "name": "golden",
  "seed": 42,
  "strikes": 300,
  "thresholds": [0, 1],
  "cells": [
    {"device": "k40", "kernel": "dgemm:128"},
    {"device": "k40", "kernel": "lavamd:4"},
    {"device": "k40", "kernel": "hotspot:64x80"},
    {"device": "k40", "kernel": "clamr:48x60"},
    {"device": "phi", "kernel": "dgemm:128"},
    {"device": "phi", "kernel": "lavamd:3"},
    {"device": "phi", "kernel": "hotspot:64x80"},
    {"device": "phi", "kernel": "clamr:48x60"}
  ]
}`

// TestPlanReproducesGoldenTable is the plan API's regression anchor: a
// campaign defined entirely as JSON must reproduce the frozen
// seed-42/300-strike table bit for bit through every Runner — the
// streaming reducer stack, and the adaptive engine delegating a plan
// without a spec.
func TestPlanReproducesGoldenTable(t *testing.T) {
	plan, err := LoadPlan(strings.NewReader(goldenPlanJSON))
	if err != nil {
		t.Fatalf("golden plan failed to load: %v", err)
	}
	for rname, r := range allRunners() {
		res, err := r.Run(context.Background(), plan)
		if err != nil {
			t.Fatalf("%s: %v", rname, err)
		}
		if len(res.Cells) != len(goldenTable) {
			t.Fatalf("%s: %d outcomes for %d golden cells", rname, len(res.Cells), len(goldenTable))
		}
		for i, want := range goldenTable {
			out := res.Cells[i]
			label := fmt.Sprintf("%s: %s/%s/%s", rname, want.device, want.kernel, want.input)
			if out.Err != nil {
				t.Fatalf("%s: cell failed: %v", label, out.Err)
			}
			if out.Info.Device != want.device || out.Info.Kernel != want.kernel || out.Info.Input != want.input {
				t.Fatalf("%s: cell resolved to %s/%s/%s",
					label, out.Info.Device, out.Info.Kernel, out.Info.Input)
			}
			s := out.Summary
			wantTally := injector.Tally{Masked: want.masked, SDC: want.sdc, Crash: want.crash, Hang: want.hang}
			if s.Tally != wantTally {
				t.Errorf("%s: tally %+v, table pins %+v", label, s.Tally, wantTally)
			}
			requireGoldenFloat(t, label+": SDCFIT[0]", s.SDCFIT[0], want.sdcFIT0)
			requireGoldenFloat(t, label+": SDCFIT[1]", s.SDCFIT[1], want.sdcFIT1)
			for k, hex := range want.locality {
				requireGoldenFloat(t, label+": locality["+s.Locality[0].Labels[k]+"]",
					s.Locality[0].Values[k], hex)
			}
		}
	}
}

// allRunners is every Runner a plan without an adaptive spec can run on.
func allRunners() map[string]Runner {
	return map[string]Runner{"stream": &StreamRunner{}, "adaptive": &AdaptiveRunner{}}
}

// TestStreamRunnerCancellation pins graceful cancellation: cancelling
// mid-cell surfaces ctx.Err(), keeps the chunk-aligned partial reducer
// state, marks unreached cells, and leaks no goroutines.
func TestStreamRunnerCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	plan := NewPlan(7, 1000).
		WithCell("k40", "dgemm:128").
		WithCell("phi", "dgemm:128").
		WithWorkers(4).
		WithStreamChunk(100)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAt = 200
	r := &StreamRunner{Progress: Progress{
		OnChunk: func(cell, done int) {
			if cell == 0 && done >= cancelAt {
				cancel()
			}
		},
	}}
	res, err := r.Run(ctx, plan)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if res == nil || len(res.Cells) != 2 {
		t.Fatalf("cancelled run returned no partial result")
	}
	out := res.Cells[0]
	if !errors.Is(out.Err, context.Canceled) {
		t.Errorf("in-flight cell Err = %v", out.Err)
	}
	if out.Summary == nil {
		t.Fatalf("in-flight cell lost its partial reducer state")
	}
	tot := out.Summary.Tally.Masked + out.Summary.Tally.SDC + out.Summary.Tally.Crash + out.Summary.Tally.Hang
	if tot != cancelAt {
		t.Errorf("partial state covers %d strikes, want the chunk-aligned %d", tot, cancelAt)
	}
	if !errors.Is(res.Cells[1].Err, context.Canceled) {
		t.Errorf("unreached cell Err = %v", res.Cells[1].Err)
	}

	// The partial prefix must be bit-identical to an uncancelled run of
	// exactly cancelAt strikes (determinism is chunk-prefix-closed), and
	// the partial FITs must be true rates over that prefix exposure, not
	// diluted by the cancelled tail.
	acc := NewSummaryAccumulator(out.Summary.Thresholds)
	refInfo, err := RunStreamingFromCtx(context.Background(), mustDev(t, "k40"), mustKern(t, "dgemm:128"),
		Config{Seed: 7, Strikes: cancelAt, BaseExecSeconds: 1.0, Facility: plan.Config().Facility, StreamChunk: 100},
		0, acc)
	if err != nil {
		t.Fatalf("reference prefix: %v", err)
	}
	full := acc.Summary(refInfo)
	if full.Tally != out.Summary.Tally {
		t.Errorf("partial tally %+v differs from reference prefix %+v", out.Summary.Tally, full.Tally)
	}
	for k := range out.Summary.Thresholds {
		if want := full.SDCFIT[k]; out.Summary.SDCFIT[k] != want {
			t.Errorf("partial SDCFIT[%d] = %v, want the prefix rate %v", k, out.Summary.SDCFIT[k], want)
		}
	}

	waitForGoroutines(t, before)
}

// TestBuildCtxHonoursCancellation pins that the construction phase — the
// expensive golden simulations of iterative kernels — is abandoned under
// a cancelled context instead of building the whole plan first.
func TestBuildCtxHonoursCancellation(t *testing.T) {
	plan := NewPlan(9, 50).WithCell("k40", "hotspot:64x80")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := plan.BuildCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled BuildCtx returned %v", err)
	}
	for name, r := range allRunners() {
		res, err := r.Run(ctx, plan)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: pre-cancelled Run returned %v", name, err)
		}
		// Even build-phase cancellation honours the partial-result
		// contract: a shell with every cell marked, never a nil result.
		if res == nil || len(res.Cells) != 1 || !errors.Is(res.Cells[0].Err, context.Canceled) {
			t.Errorf("%s: build-phase cancellation returned %+v", name, res)
		}
	}
}

// stubKernel is a kernel whose profile never validates: the cell-failure
// path of every engine.
type stubKernel struct{}

func (stubKernel) Name() string         { return "Stub" }
func (stubKernel) Domain() string       { return "test" }
func (stubKernel) InputLabel() string   { return "0x0" }
func (stubKernel) Class() kernels.Class { return kernels.Class{} }
func (stubKernel) Profile(arch.Device) arch.Profile {
	return arch.Profile{Kernel: "stub", OutputDims: grid.Dims{}}
}
func (stubKernel) Golden(arch.Device) kernels.GoldenState { return nil }
func (stubKernel) RunInjectedPooled(kernels.GoldenState, arch.Injection, *xrand.RNG, *metrics.ReportPool) *metrics.Report {
	return nil
}

// TestCellErrorCachedNotRepanicked pins the typed failure of an invalid
// cell on the streaming path: both the engine and the per-cell plan body
// return a *CellError naming the cell instead of panicking.
func TestCellErrorCachedNotRepanicked(t *testing.T) {
	dev := mustDev(t, "k40")
	cfg := DefaultConfig(1, 10)
	_, streamErr := RunStreamingCtx(context.Background(), dev, stubKernel{}, cfg, NewTallyReducer())
	_, sum, cellErr := RunPlanCell(context.Background(), Cell{Dev: dev, Kern: stubKernel{}}, cfg, []float64{0, 2})
	if sum != nil {
		t.Errorf("failed cell returned a summary: %+v", sum)
	}
	for name, err := range map[string]error{"RunStreamingCtx": streamErr, "RunPlanCell": cellErr} {
		var ce *CellError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: want *CellError, got %T: %v", name, err, err)
		}
		if ce.Device != "K40" || ce.Kernel != "Stub" || ce.Input != "0x0" {
			t.Errorf("%s: CellError lacks cell identity: %+v", name, ce)
		}
	}
}

func mustDev(t *testing.T, name string) arch.Device {
	t.Helper()
	d, err := registry.NewDevice(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustKern(t *testing.T, spec string) kernels.Kernel {
	t.Helper()
	cells, err := NewPlan(1, 1).WithCell("k40", spec).Build()
	if err != nil {
		t.Fatalf("kernel %q: %v", spec, err)
	}
	return cells[0].Kern
}

// waitForGoroutines asserts the goroutine count settles back to (near)
// its pre-test level: cancellation must not leak workers.
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var now int
	for time.Now().Before(deadline) {
		now = runtime.NumGoroutine()
		if now <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines did not settle: %d before, %d after cancellation", before, now)
}

// TestProgressHooks pins hook delivery order and coverage.
func TestProgressHooks(t *testing.T) {
	plan := NewPlan(3, 64).
		WithKernelOnDevices("dgemm:128", "k40", "phi").
		WithStreamChunk(32)
	var cells atomic.Int32
	var chunks atomic.Int32
	r := &StreamRunner{Progress: Progress{
		OnCell:  func(int, *CellOutcome) { cells.Add(1) },
		OnChunk: func(int, int) { chunks.Add(1) },
	}}
	if _, err := r.Run(context.Background(), plan); err != nil {
		t.Fatalf("run: %v", err)
	}
	if cells.Load() != 2 {
		t.Errorf("OnCell fired %d times for 2 cells", cells.Load())
	}
	if chunks.Load() != 4 {
		t.Errorf("OnChunk fired %d times, want 4 (2 cells x 2 chunks)", chunks.Load())
	}
}

// Package campaign assembles full beam-test campaigns: device x kernel x
// input-size experiment matrices, strike sampling, outcome aggregation,
// FIT accounting and the per-figure data series of the paper's evaluation
// (§V). It is the layer cmd/figures, the benchmarks and the public facade
// build on.
package campaign

import (
	"context"
	"errors"
	"fmt"

	"radcrit/internal/arch"
	"radcrit/internal/beam"
	"radcrit/internal/kernels"
)

// CellError is the typed failure of one experiment cell: it carries the
// cell's identity so a matrix or plan run can report which cell failed,
// and wraps the underlying cause. Both engines return it in place of the
// panics the pre-plan API used for invalid cells.
type CellError struct {
	Device, Kernel, Input string
	Err                   error
}

func (e *CellError) Error() string {
	return fmt.Sprintf("campaign: cell %s/%s/%s: %v", e.Device, e.Kernel, e.Input, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// isCancellation reports whether err is the caller's context speaking —
// the one error class the engines must never wrap as a cell failure.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// cellError wraps err with the cell's identity (no-op for nil, for an
// error that already carries it, and for context cancellation, which is
// the caller's signal, not the cell's fault).
func cellError(dev arch.Device, kern kernels.Kernel, err error) error {
	var ce *CellError
	if err == nil || isCancellation(err) || errors.As(err, &ce) {
		return err
	}
	return &CellError{Device: dev.ShortName(), Kernel: kern.Name(), Input: kern.InputLabel(), Err: err}
}

// Config controls one experiment's statistical weight.
type Config struct {
	// Seed is the campaign's reproducibility root.
	Seed uint64
	// Strikes is the number of particle strikes to simulate per
	// (device, kernel, input) cell. The paper gathers enough beam time
	// for statistically significant counts; several hundred strikes per
	// cell reproduce the trends.
	Strikes int
	// BaseExecSeconds scales a profile's RelRuntime into wall seconds.
	BaseExecSeconds float64
	// Facility provides the neutron flux (default LANSCE).
	Facility beam.Facility
	// Workers sizes the strike worker pool (0 = GOMAXPROCS). Every strike
	// derives its randomness from an independent per-index RNG split and
	// outcomes are merged in index order, so Workers affects wall time
	// only — the outcome stream is bit-identical for any value. It is therefore
	// deliberately excluded from CellKey.
	Workers int
	// StreamChunk sizes the streaming engine's execution window
	// (0 = DefaultStreamChunk). Like Workers it can never change results —
	// outcomes are consumed in strike-index order whatever the chunking —
	// it only sets the flush/checkpoint granularity and the engine's peak
	// outcome memory, so it too is excluded from CellKey.
	//
	// One carve-out: when Adaptive is set with CheckEvery == 0, the look
	// spacing defaults to the effective chunk, and the look schedule DOES
	// change where a cell stops. The resolved spacing (not StreamChunk
	// itself) is what enters CellKey.
	StreamChunk int
	// Adaptive, when non-nil, enables sequential early stopping: the
	// streaming engine evaluates Adaptive's stop rule at every chunk
	// boundary and ends the cell once its SDC-proportion confidence
	// interval is tight enough (DESIGN.md §11). Only the Runners act on
	// it: RunStreamingCtx and RunStreamingFromCtx always run the full
	// budget.
	Adaptive *AdaptiveSpec
}

// DefaultConfig returns the standard campaign configuration.
func DefaultConfig(seed uint64, strikes int) Config {
	return Config{
		Seed:            seed,
		Strikes:         strikes,
		BaseExecSeconds: 1.0,
		Facility:        beam.LANSCE,
	}
}

// ScatterPoint is one SDC execution in a Figure-2/4/6/8 style scatter.
type ScatterPoint struct {
	IncorrectElements int
	MeanRelErrPct     float64
}

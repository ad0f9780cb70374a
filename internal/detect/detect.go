// Package detect provides the application-level error detection of §V-C
// and §V-D of the paper: an entropy monitor for stencil codes, and the
// coverage bookkeeping for the CLAMR mass-conservation check (82% fault
// coverage in [4]), which the CLAMR kernel itself evaluates.
package detect

import "math"

// Result is one detector's verdict on one execution.
type Result struct {
	// Name of the detector.
	Name string
	// Fired reports whether the detector flagged the run.
	Fired bool
	// Signal is the detector's raw evidence (drift, entropy delta, ...).
	Signal float64
	// Threshold is the firing threshold the signal was compared against.
	Threshold float64
}

// EntropyCheck compares the spatial entropy of an output against the
// golden run's: widespread stencil corruption shifts the value
// distribution even when each individual error is small (§V-C). entropy
// functions are supplied by the kernel (e.g. hotspot.Entropy).
func EntropyCheck(goldenEntropy, observedEntropy, threshold float64) Result {
	return Result{
		Name:      "entropy",
		Fired:     math.Abs(observedEntropy-goldenEntropy) > threshold,
		Signal:    math.Abs(observedEntropy - goldenEntropy),
		Threshold: threshold,
	}
}

// CoverageStats accumulates detector verdicts over a campaign.
type CoverageStats struct {
	Evaluated int
	Detected  int
}

// Add records one verdict.
func (c *CoverageStats) Add(fired bool) {
	c.Evaluated++
	if fired {
		c.Detected++
	}
}

// Coverage returns the detected fraction (the paper's "fault coverage").
func (c CoverageStats) Coverage() float64 {
	if c.Evaluated == 0 {
		return 0
	}
	return float64(c.Detected) / float64(c.Evaluated)
}

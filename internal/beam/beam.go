// Package beam models the accelerated neutron beam campaigns of §IV-D:
// facility fluxes (LANSCE and ISIS), beam spot restriction, derating by
// distance for serially mounted boards, Poisson strike arrival over
// execution exposure time, and the bookkeeping that converts beam hours
// into equivalent natural-environment operation.
package beam

import (
	"math"

	"radcrit/internal/xrand"
)

// NaturalFlux is the terrestrial neutron flux at sea level (§II-A, [23]),
// in n/(cm^2 * h).
const NaturalFlux = 13.0

// Facility is a neutron source.
type Facility struct {
	// Name of the facility.
	Name string
	// Flux in n/(cm^2 * s) at the reference position.
	Flux float64
	// SpotDiameterInch is the restricted beam spot (2 inches in §IV-D:
	// enough to irradiate the chip but not the DRAM or power circuitry).
	SpotDiameterInch float64
}

// The two facilities used in the paper's campaigns.
var (
	LANSCE = Facility{Name: "LANSCE", Flux: 1.0e5, SpotDiameterInch: 2}
	ISIS   = Facility{Name: "ISIS", Flux: 2.5e6, SpotDiameterInch: 2}
)

// AccelerationFactor is how many times the facility flux exceeds the
// natural one (6 to 8 orders of magnitude, §IV-D).
func (f Facility) AccelerationFactor() float64 {
	return f.Flux * 3600 / NaturalFlux
}

// EquivalentNaturalHours converts beam hours into natural-operation hours.
func (f Facility) EquivalentNaturalHours(beamHours float64) float64 {
	return beamHours * f.AccelerationFactor()
}

// Board is one device mounted in the beam line. Boards sit at different
// distances from the source; a derating factor scales the effective flux
// (§IV-D: after derating, sensitivity was position-independent).
type Board struct {
	// Label identifies the physical board ("K40-A", "PHI-B").
	Label string
	// Derating is the flux attenuation at the board's position (1.0 at
	// the reference position, < 1 farther away).
	Derating float64
}

// EffectiveFlux is the facility flux after derating.
func (b Board) EffectiveFlux(f Facility) float64 {
	return f.Flux * b.Derating
}

// Exposure describes one campaign slot: a board in a beam for some hours
// running a workload with a given per-execution runtime and sensitive
// area.
type Exposure struct {
	Facility Facility
	Board    Board
	// BeamHours is wall-clock time under beam.
	BeamHours float64
	// ExecSeconds is one execution's duration in seconds.
	ExecSeconds float64
	// SensitiveArea is the device+workload cross-section in arbitrary
	// units (arch.Device.SensitiveArea).
	SensitiveArea float64
}

// AreaScale converts (sensitive area in a.u.) x (flux in n/cm^2/s) into
// strikes per second.
const AreaScale = 2.5e-13

// MaxStrikesPerExecution is the single-strike experimental bound: §IV-D
// tunes the beam so observed error rates stay below 10^-3 per execution,
// keeping the probability of two strikes in one run negligible.
const MaxStrikesPerExecution = 1e-3

// Executions returns how many back-to-back executions fit in the slot.
func (e Exposure) Executions() int {
	if e.ExecSeconds <= 0 {
		return 0
	}
	return int(e.BeamHours * 3600 / e.ExecSeconds)
}

// StrikeRatePerExec is the expected number of strikes in one execution.
func (e Exposure) StrikeRatePerExec() float64 {
	return e.Board.EffectiveFlux(e.Facility) * e.SensitiveArea * AreaScale * e.ExecSeconds
}

// Fluence is the total neutron fluence of the slot in n/cm^2.
func (e Exposure) Fluence() float64 {
	return e.Board.EffectiveFlux(e.Facility) * e.BeamHours * 3600
}

// TuneSingleStrike returns a copy of the exposure with the board derated
// (collimators/degraders in the real campaigns) so the per-execution
// strike rate respects MaxStrikesPerExecution. Exposures already under the
// bound are returned unchanged.
func (e Exposure) TuneSingleStrike() Exposure {
	rate := e.StrikeRatePerExec()
	if rate <= MaxStrikesPerExecution {
		return e
	}
	e.Board.Derating *= MaxStrikesPerExecution / rate
	return e
}

// StrikeEnergy samples a relative deposited-charge factor from the
// facility spectrum: mostly single-bit-scale deposits with an
// exponential high-energy tail.
func StrikeEnergy(rng *xrand.RNG) float64 {
	return 1 + 0.5*rng.ExpFloat64()
}

// HoursForStrikes returns the beam hours needed for an expected number of
// strikes — campaign planning: the paper sizes campaigns to gather
// statistically significant data within limited beam time.
func (e Exposure) HoursForStrikes(strikes float64) float64 {
	perHour := e.StrikeRatePerExec() * 3600 / e.ExecSeconds
	if perHour <= 0 {
		return math.Inf(1)
	}
	return strikes / perHour
}

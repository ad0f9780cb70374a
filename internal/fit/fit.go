// Package fit computes failure-rate statistics: cross-sections from
// observed errors and fluence, FIT (Failures In Time) scaled to the
// natural neutron flux, MTBF projections for machine-scale deployments,
// and the relative (arbitrary-unit) normalisation the paper uses to
// protect business-sensitive absolute rates.
package fit

import (
	"radcrit/internal/beam"
	"radcrit/internal/stats"
)

// HoursPerBillion is the FIT unit: failures per 10^9 device-hours.
const HoursPerBillion = 1e9

// CrossSection returns the experimental cross-section in cm^2 (arbitrary
// absolute scale here, consistent relative scale across experiments):
// observed errors divided by fluence.
func CrossSection(errors int, fluence float64) float64 {
	if fluence <= 0 {
		return 0
	}
	return float64(errors) / fluence
}

// FIT converts a cross-section to failures per 10^9 hours under the
// natural flux (13 n/cm^2/h at sea level, NYC reference).
func FIT(crossSection float64) float64 {
	return crossSection * beam.NaturalFlux * HoursPerBillion
}

// FITFromCampaign computes the FIT of an error class observed in a beam
// slot.
func FITFromCampaign(errors int, exp beam.Exposure) float64 {
	return FIT(CrossSection(errors, exp.Fluence()))
}

// ConfidenceInterval returns the 95% interval of a FIT estimate derived
// from `errors` observed events (Wilson interval on the per-strike
// proportion scaled to the point estimate).
func ConfidenceInterval(fitValue float64, errors, totalStrikes int) (lo, hi float64) {
	if errors <= 0 || totalStrikes <= 0 {
		return 0, fitValue
	}
	pLo, pHi := stats.WilsonInterval(errors, totalStrikes, 1.96)
	p := float64(errors) / float64(totalStrikes)
	if p == 0 {
		return 0, fitValue
	}
	return fitValue * pLo / p, fitValue * pHi / p
}

// Normalizer rescales absolute FITs into the arbitrary units of the
// paper's figures: "as we use the same normalization for each device and
// code, relative FIT data still allows cross comparisons" (§V).
type Normalizer struct {
	scale float64
}

// NewNormalizer fixes the unit so that reference maps to target (e.g. the
// largest bar in a figure maps to 100 a.u.). A non-positive reference
// yields an identity normalizer.
func NewNormalizer(reference, target float64) *Normalizer {
	if reference <= 0 || target <= 0 {
		return &Normalizer{scale: 1}
	}
	return &Normalizer{scale: target / reference}
}

// Apply converts an absolute value to arbitrary units.
func (n *Normalizer) Apply(v float64) float64 { return v * n.scale }

// Breakdown is a FIT split by a categorical key (spatial pattern,
// outcome class, ...), the unit of the paper's stacked-bar figures.
type Breakdown struct {
	Labels []string
	Values []float64
}

// Total returns the summed FIT of the breakdown.
func (b Breakdown) Total() float64 {
	var t float64
	for _, v := range b.Values {
		t += v
	}
	return t
}

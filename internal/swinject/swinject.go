// Package swinject implements an AVF/PVF-style *software* fault injector
// of the kind the paper contrasts with beam testing (§IV-D): tools like
// GPU-Qin or SASSIFI flip bits in architecturally visible state (registers
// and memory words) but "provide the user with access to only a limited
// set of GPU resources ... hardware schedulers and dispatchers as well as
// the PCIe controller are among the inaccessible resources."
//
// Running the same workload under this injector and under the beam model
// quantifies that blind spot: the injector reproduces the data-corruption
// criticality (AVF) but sees none of the scheduler/dispatcher/control
// failure modes that dominate crash rates and block-granularity SDCs.
package swinject

import (
	"radcrit/internal/arch"
	"radcrit/internal/fault"
	"radcrit/internal/floatbits"
	"radcrit/internal/injector"
	"radcrit/internal/kernels"
	"radcrit/internal/metrics"
	"radcrit/internal/xrand"
)

// AccessibleResources lists the state a software injector can reach:
// architecturally visible storage only.
var AccessibleResources = []fault.Resource{
	fault.RegisterFile,
	fault.SharedMemory,
	fault.L1Cache,
	fault.L2Cache,
}

// Accessible reports whether a software injector can target r.
func Accessible(r fault.Resource) bool {
	for _, a := range AccessibleResources {
		if a == r {
			return true
		}
	}
	return false
}

// Campaign is the outcome of a software fault-injection campaign.
type Campaign struct {
	Injections int
	// Masked counts injections with no visible output effect.
	Masked int
	// SDCs holds the mismatch reports of corrupting runs.
	SDCs []*metrics.Report
	// AVF is the architectural vulnerability factor estimate: the
	// probability that a bit flip in accessible state corrupts the
	// output [26].
	AVF float64
}

// Run performs n single-bit injections into architecturally accessible
// state of kern on dev. Unlike the beam path, no outcome-class model is
// involved: the injector writes a flipped word and observes the output —
// exactly what a debugger-based tool does. Crashes and hangs caused by
// control-logic corruption never appear because those resources cannot be
// reached.
func Run(dev arch.Device, kern kernels.Kernel, n int, seed uint64) Campaign {
	rng := xrand.New(seed).SplitString("swinject").SplitString(dev.ShortName())
	c := Campaign{Injections: n}
	golden := kern.Golden(dev)
	for i := 0; i < n; i++ {
		sub := rng.Split(uint64(i) + 1)
		r := AccessibleResources[sub.Intn(len(AccessibleResources))]
		inj := arch.Injection{
			Resource: r,
			Scope:    scopeFor(r),
			When:     sub.Float64(),
			Words:    1, // single-word, single-bit: the injector's granularity
			Lines:    1,
			Tasks:    1,
			Flip:     fault.FlipSpec{Field: floatbits.AnyField, Bits: 1},
		}
		// Software injectors cannot emulate multi-line residency
		// effects; they poke exactly one architecturally visible word.
		rep := kern.RunInjectedPooled(golden, inj, sub, nil)
		if rep.Count() == 0 {
			c.Masked++
			continue
		}
		c.SDCs = append(c.SDCs, rep)
	}
	if n > 0 {
		c.AVF = float64(len(c.SDCs)) / float64(n)
	}
	return c
}

func scopeFor(r fault.Resource) arch.Scope {
	switch r {
	case fault.RegisterFile:
		return arch.ScopeOutputWord
	case fault.SharedMemory:
		return arch.ScopeSharedTile
	default:
		return arch.ScopeCacheLine
	}
}

// BlindSpot compares a software-injection campaign with a beam campaign's
// per-resource attribution and reports what the injector cannot see.
type BlindSpot struct {
	// BeamSDCs and BeamDUEs are total beam-observed event counts.
	BeamSDCs, BeamDUEs int
	// InaccessibleSDCs / InaccessibleDUEs happened in resources a
	// software injector cannot reach.
	InaccessibleSDCs, InaccessibleDUEs int
}

// SDCBlindFraction is the share of beam SDCs invisible to the injector.
func (b BlindSpot) SDCBlindFraction() float64 {
	if b.BeamSDCs == 0 {
		return 0
	}
	return float64(b.InaccessibleSDCs) / float64(b.BeamSDCs)
}

// DUEBlindFraction is the share of beam crashes/hangs invisible to it.
func (b BlindSpot) DUEBlindFraction() float64 {
	if b.BeamDUEs == 0 {
		return 0
	}
	return float64(b.InaccessibleDUEs) / float64(b.BeamDUEs)
}

// Compare computes the injector's blind spot from a beam campaign's
// per-resource tallies (campaign.TallyReducer.ByResource).
func Compare(resourceTally map[fault.Resource]injector.Tally) BlindSpot {
	var b BlindSpot
	for r, t := range resourceTally {
		b.BeamSDCs += t.SDC
		b.BeamDUEs += t.Crash + t.Hang
		if !Accessible(r) {
			b.InaccessibleSDCs += t.SDC
			b.InaccessibleDUEs += t.Crash + t.Hang
		}
	}
	return b
}

// Package fault defines the radiation fault model shared by the device
// simulators: the on-chip resources a neutron can strike, the outcome
// classes of a strike (§II-A of the paper), and bit-flip specifications.
//
// The beam experiments in the paper induce failures "in all the components
// of the device, including the scheduler, dispatcher, and control logic" —
// resources that software fault injectors cannot reach. The Resource
// enumeration below covers exactly that component inventory so the
// simulated campaigns exercise the same failure surface.
package fault

import (
	"radcrit/internal/floatbits"
	"radcrit/internal/xrand"
)

// Resource is an on-chip structure a neutron strike can perturb.
type Resource int

const (
	// RegisterFile is the SM/core register file holding thread state.
	RegisterFile Resource = iota
	// SharedMemory is per-SM shared/local memory (GPU) scratch.
	SharedMemory
	// L1Cache is the per-SM/per-core L1 data cache.
	L1Cache
	// L2Cache is the device-level (K40) or ring-coherent (Phi) L2.
	L2Cache
	// FPU is the floating-point datapath (adders/multipliers/FMA).
	FPU
	// SFU is the special-function (transcendental) unit.
	SFU
	// VectorUnit is the 512-bit SIMD datapath (Xeon Phi).
	VectorUnit
	// Scheduler is the warp/thread scheduler (hardware on NVIDIA,
	// operating-system software on Intel).
	Scheduler
	// Dispatcher is the instruction dispatch logic.
	Dispatcher
	// ControlLogic is miscellaneous control state (kernel launch, fences,
	// memory controllers' control paths).
	ControlLogic
	// InstructionPath is instruction fetch/cache corruption.
	InstructionPath
	numResources
)

// NumResources is the number of distinct strikeable resources.
const NumResources = int(numResources)

// String returns the resource name.
func (r Resource) String() string {
	switch r {
	case RegisterFile:
		return "register-file"
	case SharedMemory:
		return "shared-memory"
	case L1Cache:
		return "l1-cache"
	case L2Cache:
		return "l2-cache"
	case FPU:
		return "fpu"
	case SFU:
		return "sfu"
	case VectorUnit:
		return "vector-unit"
	case Scheduler:
		return "scheduler"
	case Dispatcher:
		return "dispatcher"
	case ControlLogic:
		return "control-logic"
	case InstructionPath:
		return "instruction-path"
	default:
		return "unknown"
	}
}

// ResourceFromString inverts Resource.String: it parses a resource name
// as written into campaign logs, so a replayed log event reconstructs the
// struck structure. The second result is false for unknown names (logs
// from a build with extra registered semantics, or the empty field of a
// legacy record).
func ResourceFromString(s string) (Resource, bool) {
	for r := Resource(0); r < numResources; r++ {
		if r.String() == s {
			return r, true
		}
	}
	return 0, false
}

// OutcomeClass is the observable result of one irradiated execution
// (paper §II-A): masked, silent data corruption, crash, or hang.
type OutcomeClass int

const (
	// Masked: no effect on the program output.
	Masked OutcomeClass = iota
	// SDC: incorrect program output, undetected by the system.
	SDC
	// Crash: the application terminates abnormally.
	Crash
	// Hang: the node stops responding and must be rebooted.
	Hang
)

// String returns the outcome name.
func (o OutcomeClass) String() string {
	switch o {
	case Masked:
		return "masked"
	case SDC:
		return "sdc"
	case Crash:
		return "crash"
	case Hang:
		return "hang"
	default:
		return "unknown"
	}
}

// OutcomeDist is a probability distribution over outcome classes.
// Weights need not be normalised; Sample normalises on the fly.
type OutcomeDist struct {
	Masked, SDC, Crash, Hang float64
}

// Sample draws an outcome class from the distribution.
func (d OutcomeDist) Sample(rng *xrand.RNG) OutcomeClass {
	idx := rng.WeightedChoice([]float64{d.Masked, d.SDC, d.Crash, d.Hang})
	return OutcomeClass(idx)
}

// Total returns the sum of weights.
func (d OutcomeDist) Total() float64 {
	return d.Masked + d.SDC + d.Crash + d.Hang
}

// FlipSpec describes how a corrupted word's bits are perturbed.
type FlipSpec struct {
	// Field restricts the flipped bit positions.
	Field floatbits.Field
	// Bits is the flip multiplicity per word (>= 1). Multi-bit upsets
	// become more common at smaller technology nodes.
	Bits int
}

// Apply flips Bits bits of v within Field.
func (s FlipSpec) Apply(v float64, rng *xrand.RNG) float64 {
	bits := s.Bits
	if bits < 1 {
		bits = 1
	}
	return floatbits.FlipN64(v, bits, s.Field, rng)
}

// Apply32 flips Bits bits of a single-precision v within Field (HotSpot
// computes in float32; the same strike flips bits of a narrower word).
func (s FlipSpec) Apply32(v float32, rng *xrand.RNG) float32 {
	bits := s.Bits
	if bits < 1 {
		bits = 1
	}
	out := v
	for i := 0; i < bits; i++ {
		out = floatbits.Flip32(out, s.Field, rng)
	}
	return out
}

// Strike is a raw particle strike event produced by the beam model, before
// the device architecture resolves it into an effect.
type Strike struct {
	// When is the execution progress fraction [0, 1) at which the strike
	// lands.
	When float64
	// Energy is a relative deposited-charge factor; larger deposits flip
	// more bits. Drawn from the beam spectrum.
	Energy float64
}

// MultiBitProbability converts a strike energy into an expected flip
// multiplicity: energy 1.0 is a single-bit upset; each additional unit adds
// a chance of another adjacent bit.
func (s Strike) MultiBitProbability() int {
	switch {
	case s.Energy < 1.5:
		return 1
	case s.Energy < 2.5:
		return 2
	default:
		return 3
	}
}

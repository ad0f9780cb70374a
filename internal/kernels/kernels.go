// Package kernels defines the benchmark-kernel abstraction shared by the
// four workloads of the paper (DGEMM, LavaMD, HotSpot, CLAMR) and the
// helpers they share.
//
// A kernel knows how to (a) describe its occupancy of a device (Profile,
// Table II of the paper), (b) classify itself (Table I), and (c) run
// irradiated executions: apply an arch.Injection to its own live state and
// report the resulting output mismatches against the fault-free golden
// output. It has exactly one run method, RunInjectedPooled: one strike
// against a golden-state handle from Golden, as the paper observes each
// irradiated execution on its own.
//
// Error propagation is performed by the kernel's real mathematics — a
// corrupted matrix element re-enters the actual dot products, a corrupted
// temperature cell is smoothed by the actual stencil — so the paper's
// observed behaviours are emergent rather than scripted.
//
// For the two non-iterative kernels (DGEMM, LavaMD) faulty runs use exact
// delta propagation: only outputs reachable from the corrupted state are
// recomputed, and golden values are derived lazily. This is mathematically
// identical to a full faulty re-execution because the untouched outputs are
// bit-identical by construction, and it makes paper-scale inputs (8192x8192
// matrices) tractable inside a campaign of thousands of executions.
package kernels

import (
	"sync"
	"sync/atomic"

	"radcrit/internal/arch"
	"radcrit/internal/metrics"
	"radcrit/internal/xrand"
)

// Class is a kernel's Table I classification.
type Class struct {
	// BoundBy is "CPU" or "Memory".
	BoundBy string
	// LoadBalance is "Balanced" or "Imbalanced".
	LoadBalance string
	// MemoryAccess is "Regular" or "Irregular".
	MemoryAccess string
}

// GoldenState is an opaque handle to a kernel's precomputed fault-free
// state on one device: DGEMM's lazily materialised golden product rows,
// LavaMD's potential cache, HotSpot's and CLAMR's snapshot timelines.
// Handles are safe for concurrent use by many irradiated executions, and
// every value read through a handle is a pure function of the kernel and
// device, so sharing one handle across strikes — in any order, from any
// number of goroutines — is bit-identical to deriving clean state per
// strike. Campaign engines obtain a handle once per (kernel, device)
// session and reuse it for every strike instead of paying the per-strike
// re-derivation.
type GoldenState any

// Kernel is one benchmark workload at one input configuration.
type Kernel interface {
	// Name is the benchmark name ("DGEMM", "LavaMD", "HotSpot", "CLAMR").
	Name() string
	// Domain is the Table II application domain.
	Domain() string
	// InputLabel names this input configuration (e.g. "2048x2048").
	InputLabel() string
	// Class returns the Table I classification.
	Class() Class
	// Profile describes the kernel's occupancy of dev.
	Profile(dev arch.Device) arch.Profile
	// Golden returns the kernel's reusable golden-state handle for dev.
	// Handles are memoised: repeated calls return the same handle, so the
	// underlying clean state is derived at most once per device.
	Golden(dev arch.Device) GoldenState
	// RunInjectedPooled executes the kernel once under the given injection
	// against a prepared golden-state handle (from Golden on the desired
	// device) and returns the output mismatch report against the golden
	// output; an empty report means the corruption was logically masked.
	// Internal working state (difference grids, corrupted-cell maps) is
	// borrowed from pools owned by the golden-state handle, and the
	// returned report is borrowed from reports when it is non-nil.
	// The caller owns the returned report and may hand it back to the
	// pool (injector.Session.ReleaseReport) once no reference to it can
	// be used again; a nil reports pool degrades to plain allocation.
	// Pooled and unpooled runs are bit-identical for the same (handle,
	// injection, RNG state) — pinned by TestPooledKernelPathsBitIdentical.
	// A kernel with its own error detector records the verdict in the
	// report's Detected field.
	RunInjectedPooled(g GoldenState, inj arch.Injection, rng *xrand.RNG, reports *metrics.ReportPool) *metrics.Report
}

// BatchStrike is one strike of a RunBatch call: the resolved injection,
// the strike's private RNG, and the output slot RunBatch fills with the
// mismatch report. Report ownership follows the RunInjectedPooled
// contract.
type BatchStrike struct {
	Inj    arch.Injection
	RNG    *xrand.RNG
	Report *metrics.Report
}

// RunBatch runs each strike of batch through k.RunInjectedPooled. It
// remains only because the benchmark module (cmd/radbench) calls it.
func RunBatch(k Kernel, g GoldenState, batch []BatchStrike, reports *metrics.ReportPool) {
	for i := range batch {
		batch[i].Report = k.RunInjectedPooled(g, batch[i].Inj, batch[i].RNG, reports)
	}
}

// TimelineMemo is a bounded, concurrency-safe memo of reconstructed
// golden states keyed by timestep, shared by the iterative kernels'
// golden-state handles (HotSpot, CLAMR): strikes landing on the same step
// stop re-stepping from the nearest snapshot. compute must be a pure
// function of the step; memoised values are shared and must be treated as
// read-only by callers. The entry cap bounds paper-scale memory — racing
// writers can overshoot it by at most one entry each, which is benign.
type TimelineMemo[T any] struct {
	states sync.Map // int -> T
	cached atomic.Int32
}

// timelineMemoCap bounds the per-handle memo: enough to cover every
// distinct injection step of a test-scale campaign.
const timelineMemoCap = 96

// At returns the memoised state for step t, computing it on a miss.
func (m *TimelineMemo[T]) At(t int, compute func(int) T) T {
	if v, ok := m.states.Load(t); ok {
		return v.(T)
	}
	st := compute(t)
	if m.cached.Load() < timelineMemoCap {
		if v, loaded := m.states.LoadOrStore(t, st); loaded {
			return v.(T)
		}
		m.cached.Add(1)
	}
	return st
}

// ValueAt returns a deterministic pseudo-random value in [lo, hi) keyed by
// (seed, i, k). It lets huge matrices exist without storage: element (i,k)
// is a pure function of the key, so lazy golden evaluation and full
// materialisation agree bit-for-bit.
func ValueAt(seed uint64, i, k int, lo, hi float64) float64 {
	h := seed
	h ^= uint64(i)*0x9E3779B97F4A7C15 + 0x7F4A7C15
	h = mix(h)
	h ^= uint64(k)*0xC2B2AE3D27D4EB4F + 0x27D4EB4F
	h = mix(h)
	u := float64(h>>11) / (1 << 53)
	return lo + u*(hi-lo)
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Words32 converts a 64-bit word count from the device model into a 32-bit
// word count for single-precision kernels (HotSpot): the same cache line
// holds twice as many float32 values.
func Words32(words64 int) int {
	w := words64 * 2
	if w < 1 {
		w = 1
	}
	return w
}

// ProgressConsumed reports whether a consumer at progress frac (position
// idx of total) runs after the injection time when, i.e. observes the
// corrupted state.
func ProgressConsumed(idx, total int, when float64) bool {
	if total <= 0 {
		return false
	}
	return float64(idx)/float64(total) >= when
}

// AlignedStart picks a line-aligned start index within [0, n): the first
// of words adjacent words hit by one vector-register or cache-line strike.
func AlignedStart(rng *xrand.RNG, n, words int) int {
	if words <= 0 {
		words = 1
	}
	slots := n / words
	if slots < 1 {
		return 0
	}
	return rng.Intn(slots) * words
}

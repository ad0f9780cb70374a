// Package injector turns a raw beam strike into one classified irradiated
// execution: it resolves the strike against the device architecture,
// applies the resulting injection to the real kernel, and classifies the
// outcome (Masked / SDC / Crash / Hang, §II-A). A Session, prepared once
// per (device, kernel), is the one way in: the campaign engine runs spans
// of strikes through Session.RunBatch, and Session.RunOne is the
// single-strike form it is pinned bit-identical to.
//
// Logical masking is emergent: a syndrome that the architecture resolves
// to an SDC can still produce a bit-identical output (a flipped bit below
// one ulp of an accumulation, an already-consumed cache line) and is then
// reclassified as Masked, exactly as a beam experiment would observe it.
package injector

import (
	"sync"

	"radcrit/internal/arch"
	"radcrit/internal/fault"
	"radcrit/internal/kernels"
	"radcrit/internal/metrics"
	"radcrit/internal/xrand"
)

// Outcome is the classified result of one irradiated execution.
type Outcome struct {
	// Class is the observable outcome (§II-A).
	Class fault.OutcomeClass
	// Resource is the struck structure.
	Resource fault.Resource
	// Scope is the injection semantics (meaningful for SDC syndromes).
	Scope arch.Scope
	// Report holds the output mismatches; non-nil only for Class == SDC.
	Report *metrics.Report
	// Detected is whether the kernel's own detector (CLAMR's mass check)
	// fired on this SDC, as RunBatch reports it. It stays false for other
	// classes, for kernels without a detector, and from RunOne. It is an
	// in-memory verdict for reducers: logs, summaries and cell keys never
	// carry it.
	Detected bool
}

// Session is a prepared (device, kernel) execution context. It hoists the
// per-strike overheads out of the strike loop: the occupancy profile is
// computed and validated once, the kernel's golden-state handle is
// obtained once, and the session owns the report pool that recycles
// mismatch reports across strikes, so a steady-state strike allocates
// (almost) nothing.
//
// Sessions are safe for concurrent use: a parallel campaign engine shares
// one Session across all of its workers (the pool is internally
// synchronised; everything else is immutable after construction).
type Session struct {
	dev     arch.Device
	kern    kernels.Kernel
	prof    arch.Profile
	golden  kernels.GoldenState
	reports metrics.ReportPool
	// batches recycles the per-span strike-assembly buffers of RunBatch.
	batches sync.Pool
}

// batchBuf is one recyclable RunBatch working set: the SDC strikes
// collected for the kernel's batch seam and their positions in the
// caller's outcome slice.
type batchBuf struct {
	items []kernels.BatchStrike
	idx   []int
}

// NewSession prepares a session for kern on dev, validating the profile.
func NewSession(dev arch.Device, kern kernels.Kernel) (*Session, error) {
	prof := kern.Profile(dev)
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	return &Session{dev: dev, kern: kern, prof: prof, golden: kern.Golden(dev)}, nil
}

// Profile returns the validated occupancy profile.
func (s *Session) Profile() arch.Profile { return s.prof }

// RunOne executes one strike in the session and classifies it.
//
// Ownership: a non-nil Outcome.Report is borrowed from the session's
// report pool. The caller owns it and may hand it back via ReleaseReport
// once nothing can reference it again (the streaming engine does, after
// the chunk's sinks have consumed it); callers that simply drop it leave
// it to the garbage collector, which is always safe.
func (s *Session) RunOne(strike fault.Strike, rng *xrand.RNG) Outcome {
	syn := s.dev.ResolveStrike(s.prof, strike, rng)
	out := Outcome{Class: syn.Outcome, Resource: syn.Resource, Scope: syn.Injection.Scope}
	if syn.Outcome != fault.SDC {
		return out
	}
	rep := s.kern.RunInjectedPooled(s.golden, syn.Injection, rng, &s.reports)
	if rep.Count() == 0 {
		// Logically masked: the corrupted state never reached the output.
		// The empty report goes straight back to the pool — the common
		// case of a campaign, and now allocation-free.
		s.reports.Put(rep)
		out.Class = fault.Masked
		return out
	}
	out.Report = rep
	return out
}

// RunBatch executes a span of strikes and classifies each into outs. It
// is bit-identical to calling RunOne per index — every strike consumes
// only its own rngs[i], so resolving all syndromes up front and running
// the SDC survivors through the kernel's cross-strike batch seam
// (Kernel.RunInjectedBatch) changes locality, not results. Report
// ownership matches RunOne: non-nil Outcome.Reports are borrowed from the
// session pool.
//
// strikes, rngs and outs must have equal lengths.
func (s *Session) RunBatch(strikes []fault.Strike, rngs []*xrand.RNG, outs []Outcome) {
	bb, _ := s.batches.Get().(*batchBuf)
	if bb == nil {
		bb = &batchBuf{}
	}
	items, idx := bb.items[:0], bb.idx[:0]
	for i := range strikes {
		syn := s.dev.ResolveStrike(s.prof, strikes[i], rngs[i])
		outs[i] = Outcome{Class: syn.Outcome, Resource: syn.Resource, Scope: syn.Injection.Scope}
		if syn.Outcome != fault.SDC {
			continue
		}
		items = append(items, kernels.BatchStrike{Inj: syn.Injection, RNG: rngs[i]})
		idx = append(idx, i)
	}
	s.kern.RunInjectedBatch(s.golden, items, &s.reports)
	for j, i := range idx {
		rep := items[j].Report
		items[j].Report = nil // the pooled buffer must not retain reports
		items[j].RNG = nil
		if rep == nil || rep.Count() == 0 {
			// Logically masked: the corrupted state never reached the
			// output. The empty report goes straight back to the pool.
			s.reports.Put(rep)
			outs[i].Class = fault.Masked
			continue
		}
		outs[i].Report = rep
		outs[i].Detected = items[j].Detected
	}
	bb.items, bb.idx = items, idx
	s.batches.Put(bb)
}

// ReleaseReport returns a report obtained from RunOne to the session's
// pool for reuse by a later strike. Call it only when no reference to the
// report (including slices handed out by its accessors) can be used
// again; consumers that retain reports must Clone them first. Nil reports
// are ignored.
func (s *Session) ReleaseReport(rep *metrics.Report) {
	s.reports.Put(rep)
}

// Tally summarises outcome classes.
type Tally struct {
	Masked, SDC, Crash, Hang int
}

// Count returns the total number of outcomes tallied.
func (t Tally) Count() int { return t.Masked + t.SDC + t.Crash + t.Hang }

// SDCToDUERatio returns SDCs per crash-or-hang (the paper's §V preamble
// statistic). It returns 0 when no crashes or hangs were observed.
func (t Tally) SDCToDUERatio() float64 {
	due := t.Crash + t.Hang
	if due == 0 {
		return 0
	}
	return float64(t.SDC) / float64(due)
}

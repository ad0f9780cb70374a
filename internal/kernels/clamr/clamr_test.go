package clamr

import (
	"math"
	"slices"
	"testing"

	"radcrit/internal/arch"
	"radcrit/internal/fault"
	"radcrit/internal/floatbits"
	"radcrit/internal/kernels"
	"radcrit/internal/metrics"
	"radcrit/internal/phi"
	"radcrit/internal/xrand"
)

func small() *Kernel { return New(48, 60) }

func TestNewValidation(t *testing.T) {
	for _, c := range []struct{ s, st int }{{8, 100}, {64, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%d,%d) did not panic", c.s, c.st)
				}
			}()
			New(c.s, c.st)
		}()
	}
}

func TestGoldenMassConserved(t *testing.T) {
	// The conservative scheme must keep total water volume constant to
	// floating-point accuracy over the golden run.
	k := small()
	final := sum(k.finalH)
	drift := math.Abs(final-k.m0) / k.m0
	if drift > 1e-11 {
		t.Fatalf("golden mass drift %v", drift)
	}
}

func TestGoldenDeterministic(t *testing.T) {
	a := New(32, 40).finalH
	b := New(32, 40).finalH
	if !slices.Equal(a, b) {
		t.Fatal("golden runs differ")
	}
}

func TestDamBreakWavePropagates(t *testing.T) {
	// The central column must collapse and raise the water level nearby.
	k := small()
	// finalH is row-major: (x, y) is finalH[y*side+x].
	center := k.finalH[24*k.side+24]
	if center >= HInside {
		t.Fatalf("dam did not collapse: center still %v", center)
	}
	edge := k.finalH[24*k.side+2]
	if edge == HOutside {
		t.Log("wave has not yet reached the edge (short run), acceptable")
	}
	if center < HOutside/2 {
		t.Fatalf("center drained unphysically: %v", center)
	}
}

func TestStateAtConsistency(t *testing.T) {
	k := small()
	s10 := k.stateAt(10)
	s11 := k.stateAt(11)
	n := k.side * k.side
	next := newState(n)
	k.step(next, s10, nil, newFluxRows(k.side))
	for i := 0; i < n; i++ {
		if next.h[i] != s11.h[i] || next.hu[i] != s11.hu[i] || next.hv[i] != s11.hv[i] {
			t.Fatal("stateAt(10)+step != stateAt(11)")
		}
	}
}

func TestRefinementTracksWaveFront(t *testing.T) {
	k := small()
	st := k.stateAt(20)
	m := k.refineMap(st)
	refined := 0
	for _, r := range m {
		if r {
			refined++
		}
	}
	if refined == 0 {
		t.Fatal("no cells refined despite a propagating dam-break wave")
	}
	if refined == len(m) {
		t.Fatal("every cell refined: threshold is meaningless")
	}
	if k.RefinedFraction() <= 0 || k.RefinedFraction() >= 1 {
		t.Fatalf("refined fraction = %v", k.RefinedFraction())
	}
}

func mkInj(scope arch.Scope, when float64) arch.Injection {
	return arch.Injection{
		Scope: scope,
		When:  when,
		Words: 8,
		Lines: 2,
		Tasks: 1,
		Flip:  fault.FlipSpec{Field: floatbits.Exponent, Bits: 1},
	}
}

func TestCorruptionSpreadsAsWave(t *testing.T) {
	// §V-D: "a wave of incorrect elements was propagating"; the number of
	// incorrect elements increases as the execution continues.
	k := New(48, 120)
	in := mkInj(arch.ScopeOutputWord, 0.25)
	early := k.RunInjectedPooled(k.Golden(phi.New()), in, xrand.New(5), nil)
	in.When = 0.9
	late := k.RunInjectedPooled(k.Golden(phi.New()), in, xrand.New(5), nil)
	if early.Count() == 0 || late.Count() == 0 {
		t.Skip("masked runs for this seed")
	}
	if early.Count() <= late.Count() {
		t.Fatalf("early corruption (%d) should spread wider than late (%d)",
			early.Count(), late.Count())
	}
}

func TestLocalityMostlySquare(t *testing.T) {
	// §V-D: square errors amount to 99% of spatial locality.
	k := small()
	squares, runs := 0, 0
	for seed := uint64(0); seed < 25; seed++ {
		rng := xrand.New(seed)
		in := mkInj(arch.ScopeCacheLine, 0.3+0.4*rng.Float64())
		rep := k.RunInjectedPooled(k.Golden(phi.New()), in, rng, nil)
		if rep.Count() < 2 {
			continue
		}
		runs++
		if rep.Locality() == metrics.Square {
			squares++
		}
	}
	if runs == 0 {
		t.Fatal("all runs masked")
	}
	if float64(squares)/float64(runs) < 0.8 {
		t.Fatalf("only %d/%d runs square; the error wave should spread in 2D", squares, runs)
	}
}

func TestMassCheckFiresOnHeightCorruption(t *testing.T) {
	k := small()
	fired, runs := 0, 0
	for seed := uint64(0); seed < 60; seed++ {
		rng := xrand.New(seed)
		// AnyField single-bit flips: the actual storage-strike model.
		in := mkInj(arch.ScopeCacheLine, 0.5)
		in.Flip = fault.FlipSpec{Field: floatbits.AnyField, Bits: 1}
		in.Lines = 1
		rep, det := k.RunInjectedDetailed(k.Golden(phi.New()), in, rng)
		if rep.Filter(2).Count() == 0 {
			continue // not a critical SDC
		}
		runs++
		if det.MassCheckFired {
			fired++
		}
	}
	if runs == 0 {
		t.Fatal("no critical SDCs produced")
	}
	cov := float64(fired) / float64(runs)
	// Paper reports 82% coverage for the CLAMR mass check [4].
	if cov < 0.4 || cov > 0.99 {
		t.Fatalf("mass-check coverage %v outside the plausible band around 82%%", cov)
	}
}

func TestTaskSetMisRefinementDetectable(t *testing.T) {
	// Frozen tiles break flux telescoping: neighbours receive flux the
	// frozen region never loses, so total mass drifts and the mass check
	// fires.
	k := small()
	in := mkInj(arch.ScopeTaskSet, 0.4)
	rep, det := k.RunInjectedDetailed(k.Golden(phi.New()), in, xrand.New(3))
	if rep.Count() == 0 {
		t.Skip("masked")
	}
	if !det.MassCheckFired {
		t.Fatalf("mis-refinement drifted mass by only %v", det.MaxMassDriftRel)
	}
}

func TestMomentumCorruptionEvadesMassCheck(t *testing.T) {
	// A pure-momentum corruption conserves mass; it is exactly the
	// detector escape that keeps coverage below 100%.
	k := small()
	evaded := false
	for seed := uint64(0); seed < 60 && !evaded; seed++ {
		rng := xrand.New(seed)
		in := mkInj(arch.ScopeOutputWord, 0.5)
		rep, det := k.RunInjectedDetailed(k.Golden(phi.New()), in, rng)
		if rep.Count() > 0 && !det.MassCheckFired {
			evaded = true
		}
	}
	if !evaded {
		t.Fatal("no corruption ever evaded the mass check; coverage would be 100%, not 82%")
	}
}

func TestProfileCLAMR(t *testing.T) {
	k := small()
	p := k.Profile(phi.New())
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Threads <= k.side*k.side {
		t.Fatal("AMR should instantiate more threads than base cells (Table II: '#cells or more')")
	}
	if !p.Irregular || p.MemoryBound {
		t.Fatal("CLAMR is CPU-bound and irregular (Table I)")
	}
	if p.ControlShare < 0.2 {
		t.Fatal("CLAMR stresses control resources (§IV-B)")
	}
}

func TestSanitizeCell(t *testing.T) {
	st := newState(1)
	st.h[0] = math.NaN()
	st.hu[0] = math.Inf(1)
	st.hv[0] = -math.Inf(1)
	sanitizeCell(st, 0)
	if st.h[0] != HOutside || st.hu[0] != 0 || st.hv[0] != 0 {
		t.Fatalf("sanitize failed: %v %v %v", st.h[0], st.hu[0], st.hv[0])
	}
	st.h[0] = -5
	sanitizeCell(st, 0)
	if st.h[0] <= 0 {
		t.Fatal("negative height survived")
	}
}

// TestBatchDetectedMatchesDetail pins the batch seam's detector bit: each
// strike's Detected is the MassCheckFired of a standalone detailed run,
// and the batch covers both verdicts.
func TestBatchDetectedMatchesDetail(t *testing.T) {
	k := small()
	g := k.Golden(phi.New())
	var batch []kernels.BatchStrike
	for seed := uint64(0); seed < 40; seed++ {
		scope := arch.ScopeCacheLine
		if seed%2 == 1 {
			scope = arch.ScopeOutputWord
		}
		in := mkInj(scope, 0.5)
		in.Flip = fault.FlipSpec{Field: floatbits.AnyField, Bits: 1}
		batch = append(batch, kernels.BatchStrike{Inj: in, RNG: xrand.New(seed)})
	}
	k.RunInjectedBatch(g, batch, nil)
	seen := map[bool]bool{}
	for i, b := range batch {
		rep, det := k.RunInjectedDetailed(g, b.Inj, xrand.New(uint64(i)))
		if b.Detected != det.MassCheckFired || b.Report.Count() != rep.Count() {
			t.Fatalf("strike %d: batch (detected %v, %d mismatches), detailed (%v, %d)",
				i, b.Detected, b.Report.Count(), det.MassCheckFired, rep.Count())
		}
		if rep.Count() > 0 {
			seen[b.Detected] = true
		}
	}
	if !seen[true] || !seen[false] {
		t.Fatalf("batch SDC verdicts %v: want both fired and evaded", seen)
	}
}

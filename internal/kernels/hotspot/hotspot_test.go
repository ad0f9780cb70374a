package hotspot

import (
	"math"
	"testing"

	"radcrit/internal/arch"
	"radcrit/internal/fault"
	"radcrit/internal/floatbits"
	"radcrit/internal/k40"
	"radcrit/internal/metrics"
	"radcrit/internal/phi"
	"radcrit/internal/xrand"
)

func small() *Kernel { return New(64, 80) }

func TestNewValidation(t *testing.T) {
	for _, c := range []struct{ s, i int }{{4, 100}, {64, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%d,%d) did not panic", c.s, c.i)
				}
			}()
			New(c.s, c.i)
		}()
	}
}

func TestGoldenDeterministic(t *testing.T) {
	a := New(32, 40).GoldenFinal()
	b := New(32, 40).GoldenFinal()
	if !a.Equal(b) {
		t.Fatal("golden runs differ")
	}
}

func TestGoldenWarmsAboveAmbient(t *testing.T) {
	k := small()
	g := k.GoldenFinal()
	anyAbove := false
	for _, v := range g.Data() {
		if v < Ambient-1e-3 {
			t.Fatalf("temperature fell below ambient: %v", v)
		}
		if v > Ambient+0.5 {
			anyAbove = true
		}
	}
	if !anyAbove {
		t.Fatal("power map heated nothing")
	}
}

func TestStateAtConsistency(t *testing.T) {
	k := small()
	// stateAt(iters) must equal the cached final.
	s := k.stateAt(k.iters)
	for i := range s {
		if s[i] != k.final[i] {
			t.Fatal("stateAt(iters) != final")
		}
	}
	// stateAt must be consistent: stepping stateAt(10) once gives stateAt(11).
	s10 := k.stateAt(10)
	s11 := k.stateAt(11)
	next := make([]float32, len(s10))
	k.step(next, s10)
	for i := range next {
		if next[i] != s11[i] {
			t.Fatal("stateAt(10)+step != stateAt(11)")
		}
	}
}

func mkInj(scope arch.Scope, when float64) arch.Injection {
	return arch.Injection{
		Scope: scope,
		When:  when,
		Words: 8,
		Lines: 1,
		Tasks: 1,
		Flip:  fault.FlipSpec{Field: floatbits.Exponent, Bits: 1},
	}
}

// The diff-field evolution must agree with a brute-force faulty
// re-simulation.
func TestDiffEvolutionMatchesBruteForce(t *testing.T) {
	k := New(48, 60)
	t0 := 20
	// Brute force: re-simulate with one corrupted cell at t0.
	state := k.stateAt(t0)
	cx, cy := 24, 24
	idx := cy*48 + cx
	corrupted := state[idx] * 2 // exponent-style doubling
	state[idx] = corrupted
	next := make([]float32, len(state))
	for it := t0; it < k.iters; it++ {
		k.step(next, state)
		state, next = next, state
	}

	// Diff evolution of the same corruption.
	seeds := []diffSeed{{x: cx, y: cy, d: float64(corrupted) - float64(k.stateAt(t0)[idx])}}
	sc := newTestScratch(k)
	k.evolveDiff(sc, seeds, t0)
	diff := sc.diff

	worst := 0.0
	for i := range state {
		got := float64(k.final[i]) + diff[i]
		want := float64(state[i])
		err := math.Abs(got - want)
		if want != 0 {
			err /= math.Abs(want)
		}
		if err > worst {
			worst = err
		}
	}
	// float32 rounding is the only divergence source.
	if worst > 1e-4 {
		t.Fatalf("diff evolution diverged from brute force: %v relative", worst)
	}
}

func TestErrorsDissipate(t *testing.T) {
	// The defining HotSpot behaviour (§V-C): an early corruption is
	// smoothed toward equilibrium, so late injections hurt more than
	// early ones.
	k := New(64, 200)
	in := mkInj(arch.ScopeOutputWord, 0)
	early := k.RunInjectedPooled(k.Golden(k40.New()), in, xrand.New(7), nil)
	in.When = 0.95
	late := k.RunInjectedPooled(k.Golden(k40.New()), in, xrand.New(7), nil)
	if early.Count() > 0 && late.Count() > 0 {
		if early.MaxRelErrPct() > late.MaxRelErrPct() {
			t.Fatalf("early error (%v%%) should have dissipated below late (%v%%)",
				early.MaxRelErrPct(), late.MaxRelErrPct())
		}
	}
}

func TestMeanRelativeErrorIsLow(t *testing.T) {
	// Paper: HotSpot MRE < 25% in all observed cases. The range guard
	// bounds instantaneous errors to the validity band (worst ~45%), and
	// dissipation plus spreading pull the mean well below it.
	k := small()
	runs := 0
	for seed := uint64(0); seed < 60; seed++ {
		rng := xrand.New(seed)
		in := mkInj(arch.ScopeCacheLine, rng.Float64())
		rep := k.RunInjectedPooled(k.Golden(k40.New()), in, rng, nil)
		if rep.Count() == 0 {
			continue
		}
		runs++
		if mre := rep.MeanRelErrPct(math.Inf(1)); mre > 60 {
			t.Fatalf("seed %d: MRE %v%% exceeds the range-guard bound", seed, mre)
		}
	}
	if runs == 0 {
		t.Fatal("all runs masked")
	}
}

func TestLocalityLineOrSquare(t *testing.T) {
	// Paper Fig. 7: HotSpot exhibits only line and square errors.
	k := small()
	for seed := uint64(0); seed < 30; seed++ {
		rng := xrand.New(seed)
		in := mkInj(arch.ScopeCacheLine, 0.9)
		rep := k.RunInjectedPooled(k.Golden(phi.New()), in, rng, nil)
		if rep.Count() < 2 {
			continue
		}
		loc := rep.Locality()
		if loc == metrics.Cubic {
			t.Fatal("2D stencil produced cubic locality")
		}
	}
}

func TestTaskSetStallProducesSmallErrors(t *testing.T) {
	k := small()
	in := mkInj(arch.ScopeTaskSet, 0.5)
	rep := k.RunInjectedPooled(k.Golden(k40.New()), in, xrand.New(3), nil)
	if rep.Count() > 0 {
		if rep.MeanRelErrPct(math.Inf(1)) > 10 {
			t.Fatalf("a 1-3 iteration stall should cause small errors, got %v%%",
				rep.MeanRelErrPct(math.Inf(1)))
		}
	}
}

func TestRunDenseAgreesWithReport(t *testing.T) {
	k := small()
	in := mkInj(arch.ScopeVectorLanes, 0.8)
	rng1 := xrand.New(9)
	rng2 := xrand.New(9)
	golden, faulty := k.RunDense(phi.New(), in, rng1)
	rep := k.RunInjectedPooled(k.Golden(phi.New()), in, rng2, nil)
	diff := metrics.Evaluate(golden, faulty)
	if diff.Count() != rep.Count() {
		t.Fatalf("dense diff count %d != report %d", diff.Count(), rep.Count())
	}
}

func TestEntropyDetectsDisorder(t *testing.T) {
	k := small()
	g := k.GoldenFinal()
	base := Entropy(g, 32)
	// Corrupt a block grossly and entropy should shift.
	c := g.Clone()
	for y := 10; y < 30; y++ {
		for x := 10; x < 30; x++ {
			c.Set2(x, y, c.At2(x, y)*8)
		}
	}
	if Entropy(c, 32) == base {
		t.Fatal("entropy blind to gross corruption")
	}
}

func TestEntropyUniformIsZero(t *testing.T) {
	k := small()
	g := k.GoldenFinal()
	g.Fill(5)
	if Entropy(g, 16) != 0 {
		t.Fatal("uniform field should have zero entropy")
	}
}

func TestProfileHighOccupancy(t *testing.T) {
	k := New(1024, 100)
	p := k.Profile(k40.New())
	if p.Threads != 1024*1024 {
		t.Fatalf("threads = %d, want #cells (Table II)", p.Threads)
	}
	if !p.MemoryBound {
		t.Fatal("HotSpot is memory bound (Table I)")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

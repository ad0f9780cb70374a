package lavamd

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

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(1) did not panic")
		}
	}()
	New(1)
}

func TestParticlesPerBoxByDevice(t *testing.T) {
	k := New(4)
	if k.ParticlesPerBox(k40.New()) != 192 {
		t.Fatal("K40 should get 192 particles per box (Table II)")
	}
	if k.ParticlesPerBox(phi.New()) != 100 {
		t.Fatal("Phi should get 100 particles per box (Table II)")
	}
}

func TestParticleDeterministic(t *testing.T) {
	k := New(4)
	x1, y1, z1, q1 := k.particle(1, 2, 3, 7)
	x2, y2, z2, q2 := k.particle(1, 2, 3, 7)
	if x1 != x2 || y1 != y2 || z1 != z2 || q1 != q2 {
		t.Fatal("particle state not deterministic")
	}
	// Positions are inside the owning box.
	if x1 < 1 || x1 >= 2 || y1 < 2 || y1 >= 3 || z1 < 3 || z1 >= 4 {
		t.Fatalf("particle escaped its box: %v %v %v", x1, y1, z1)
	}
	if q1 < 0.5 || q1 >= 1.5 {
		t.Fatalf("charge out of range: %v", q1)
	}
}

func TestGoldenPotentialPositiveAndDeterministic(t *testing.T) {
	k := New(3)
	dev := phi.New()
	v1 := k.GoldenPotential(dev, 1, 1, 1, 5)
	v2 := k.GoldenPotential(dev, 1, 1, 1, 5)
	if v1 != v2 {
		t.Fatal("golden potential not deterministic")
	}
	if v1 <= 0 {
		t.Fatalf("potential should be positive: %v", v1)
	}
}

// Brute-force recomputation with one corrupted particle must agree with
// the delta path used by propagateParticleCorruption.
func TestDeltaMatchesBruteForce(t *testing.T) {
	k := New(3)
	dev := phi.New()
	p := k.ParticlesPerBox(dev)

	// Corrupt particle (1,1,1,3)'s charge.
	bx, by, bz, idx := 1, 1, 1, 3
	xj, yj, zj, qj := k.particle(bx, by, bz, idx)
	qNew := qj * 2

	// Consumer: particle (0,1,1,8).
	cx, cy, cz, ci := 0, 1, 1, 8
	xi, yi, zi, _ := k.particle(cx, cy, cz, ci)

	// Brute force: full recompute with substituted charge.
	var brute float64
	k.neighbors(cx, cy, cz, func(nx, ny, nz int) {
		for j := 0; j < p; j++ {
			if nx == cx && ny == cy && nz == cz && j == ci {
				continue
			}
			x2, y2, z2, q2 := k.particle(nx, ny, nz, j)
			if nx == bx && ny == by && nz == bz && j == idx {
				q2 = qNew
			}
			brute += interaction(xi, yi, zi, x2, y2, z2, q2)
		}
	})

	// Delta: golden + (new - old) term.
	golden := k.GoldenPotential(dev, cx, cy, cz, ci)
	delta := interaction(xi, yi, zi, xj, yj, zj, qNew) - interaction(xi, yi, zi, xj, yj, zj, qj)
	if math.Abs((golden+delta)-brute) > 1e-9*math.Abs(brute) {
		t.Fatalf("delta %v vs brute %v", golden+delta, brute)
	}
}

func mkInj(scope arch.Scope) arch.Injection {
	return arch.Injection{
		Scope: scope,
		Words: 8,
		Lines: 1,
		Tasks: 1,
		Flip:  fault.FlipSpec{Field: floatbits.Exponent, Bits: 1},
	}
}

func TestOutputWordSingle(t *testing.T) {
	k := New(3)
	rep := k.RunInjectedPooled(k.Golden(phi.New()), mkInj(arch.ScopeOutputWord), xrand.New(1), nil)
	if rep.Count() != 1 {
		t.Fatalf("count = %d", rep.Count())
	}
	if rep.Locality() != metrics.Single {
		t.Fatalf("locality = %v", rep.Locality())
	}
}

func TestSFUOperandAmplification(t *testing.T) {
	// Exponent flips on the r^2 operand of exp() must produce at least
	// some enormous relative errors (the paper's LavaMD signature).
	k := New(3)
	in := mkInj(arch.ScopeInputWord)
	sawHuge := false
	for seed := uint64(0); seed < 40; seed++ {
		rep := k.RunInjectedPooled(k.Golden(k40.New()), in, xrand.New(seed), nil)
		if rep.Count() > 0 && rep.MaxRelErrPct() > 1000 {
			sawHuge = true
			break
		}
	}
	if !sawHuge {
		t.Fatal("transcendental operand corruption never amplified past 1000%")
	}
}

func TestVectorLanesWithinBox(t *testing.T) {
	k := New(3)
	rep := k.RunInjectedPooled(k.Golden(phi.New()), mkInj(arch.ScopeVectorLanes), xrand.New(2), nil)
	if rep.Count() == 0 || rep.Count() > 8 {
		t.Fatalf("count = %d", rep.Count())
	}
	// All mismatches share the same box (y, z).
	c0 := rep.Mismatches[0].Coord
	for _, m := range rep.Mismatches {
		if m.Coord.Y != c0.Y || m.Coord.Z != c0.Z {
			t.Fatal("vector lanes crossed boxes")
		}
	}
}

func TestCacheLineSpreadsAcrossBoxes(t *testing.T) {
	k := New(4)
	in := mkInj(arch.ScopeCacheLine)
	in.Words = 16 // 4 particles
	in.When = 0
	spread := false
	for seed := uint64(0); seed < 20 && !spread; seed++ {
		rep := k.RunInjectedPooled(k.Golden(phi.New()), in, xrand.New(seed), nil)
		if rep.Count() > 100 {
			loc := rep.Locality()
			if loc == metrics.Cubic || loc == metrics.Square {
				spread = true
			}
		}
	}
	if !spread {
		t.Fatal("cached particle corruption never spread across boxes (cubic/square)")
	}
}

func TestSharedTileSingleConsumer(t *testing.T) {
	k := New(3)
	in := mkInj(arch.ScopeSharedTile)
	rep := k.RunInjectedPooled(k.Golden(k40.New()), in, xrand.New(3), nil)
	if rep.Count() == 0 {
		t.Skip("masked run")
	}
	// One consumer box: all mismatches share y and z.
	c0 := rep.Mismatches[0].Coord
	for _, m := range rep.Mismatches {
		if m.Coord.Y != c0.Y || m.Coord.Z != c0.Z {
			t.Fatal("shared-tile corruption escaped the consuming box")
		}
	}
}

func TestTaskSetSkippedBox(t *testing.T) {
	k := New(3)
	in := mkInj(arch.ScopeTaskSet)
	p := k.ParticlesPerBox(k40.New())
	found := false
	for seed := uint64(0); seed < 10 && !found; seed++ {
		rep := k.RunInjectedPooled(k.Golden(k40.New()), in, xrand.New(seed), nil)
		if rep.Count() != p {
			continue
		}
		allZero := true
		for _, m := range rep.Mismatches {
			if m.Read != 0 {
				allZero = false
				break
			}
		}
		if allZero {
			// Skipped box: all potentials zero, 100% relative error.
			for _, m := range rep.Mismatches {
				if m.RelErrPct < 99 {
					t.Fatalf("zeroed potential with small relative error: %+v", m)
				}
			}
			found = true
		}
	}
	if !found {
		t.Fatal("never saw a fully skipped box")
	}
}

func TestWhenLateMostlyMasked(t *testing.T) {
	k := New(3)
	in := mkInj(arch.ScopeCacheLine)
	in.When = 0.999999
	masked := 0
	for seed := uint64(0); seed < 20; seed++ {
		if k.RunInjectedPooled(k.Golden(phi.New()), in, xrand.New(seed), nil).Count() == 0 {
			masked++
		}
	}
	if masked < 15 {
		t.Fatalf("late strikes should mostly be masked: %d/20", masked)
	}
}

func TestProfileLavaMDDeviceDifferences(t *testing.T) {
	k := New(13)
	pk := k.Profile(k40.New())
	pp := k.Profile(phi.New())
	if pk.SFUShare == 0 {
		t.Fatal("K40 LavaMD must exercise the SFU")
	}
	if pp.SFUShare != 0 {
		t.Fatal("Phi has no SFU")
	}
	if pk.Threads != 13*13*13*192 {
		t.Fatalf("K40 threads = %d", pk.Threads)
	}
	if pp.Threads != 13*13*13*100 {
		t.Fatalf("Phi threads = %d", pp.Threads)
	}
	if pk.LocalMemPerBlockKB < 10 || pk.LocalMemPerBlockKB > 16 {
		t.Fatalf("K40 local memory per block = %v, paper says ~14KB", pk.LocalMemPerBlockKB)
	}
}

func TestControlShareDecreasesWithGridSize(t *testing.T) {
	// Border-box load imbalance shrinks with grid size.
	dev := phi.New()
	small := New(13).Profile(dev).ControlShare
	large := New(23).Profile(dev).ControlShare
	if large >= small {
		t.Fatalf("control share should shrink: %v -> %v", small, large)
	}
}

func TestMismatchCoordsInBounds(t *testing.T) {
	k := New(3)
	dims := k.outputDims(phi.New())
	for seed := uint64(0); seed < 30; seed++ {
		rng := xrand.New(seed)
		in := mkInj(arch.Scope(rng.Intn(7)))
		rep := k.RunInjectedPooled(k.Golden(phi.New()), in, rng, nil)
		for _, m := range rep.Mismatches {
			if m.Coord.X < 0 || m.Coord.X >= dims.X ||
				m.Coord.Y < 0 || m.Coord.Y >= dims.Y ||
				m.Coord.Z < 0 || m.Coord.Z >= dims.Z {
				t.Fatalf("out of bounds: %+v vs %v", m.Coord, dims)
			}
		}
	}
}

// GoldenPotential computes the fault-free potential of particle idx of box
// (bx,by,bz) from the golden-sum table.
func (k *Kernel) GoldenPotential(dev arch.Device, bx, by, bz, idx int) float64 {
	h := k.handleFor(k.ParticlesPerBox(dev))
	return h.tab.potential(k.boxIndex(bx, by, bz), idx)
}

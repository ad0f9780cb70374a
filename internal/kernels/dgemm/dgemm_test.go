package dgemm

import (
	"math"
	"testing"
	"testing/quick"

	"radcrit/internal/arch"
	"radcrit/internal/fault"
	"radcrit/internal/floatbits"
	"radcrit/internal/k40"
	"radcrit/internal/metrics"
	"radcrit/internal/phi"
	"radcrit/internal/xrand"
)

func TestNewValidations(t *testing.T) {
	for _, n := range []int{0, -64, 65, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%d) did not panic", n)
				}
			}()
			New(n)
		}()
	}
	if New(128).n != 128 {
		t.Fatal("side wrong")
	}
}

func TestInputsDeterministicAndBounded(t *testing.T) {
	k := New(128)
	for i := 0; i < 50; i++ {
		for j := 0; j < 50; j++ {
			a1, a2 := k.A(i, j), k.A(i, j)
			if a1 != a2 {
				t.Fatal("A not deterministic")
			}
			if a1 < 0.5 || a1 >= 2.0 {
				t.Fatalf("A(%d,%d) = %v out of range", i, j, a1)
			}
			b := k.B(i, j)
			if b < 0.5 || b >= 2.0 {
				t.Fatalf("B out of range: %v", b)
			}
		}
	}
}

func TestGoldenHandleMemoised(t *testing.T) {
	// DGEMM's golden product depends only on the input matrices, so the
	// handle is device-independent and derived once per kernel.
	k := New(64)
	if k.Golden(k40.New()) != k.Golden(phi.New()) {
		t.Fatal("golden handle should be memoised across devices")
	}
}

func TestGoldenRowColAgree(t *testing.T) {
	k := New(64)
	gp := k.Golden(nil).(*goldenProduct)
	sc := gp.scr.Get()
	defer gp.scr.Put(sc)
	r := k.newRun(gp, sc, nil)
	row := r.goldenRow(5)
	col := r.goldenCol(9)
	direct := k.GoldenElem(5, 9)
	if math.Abs(row[9]-direct) > 1e-9*math.Abs(direct) {
		t.Fatalf("goldenRow disagrees with GoldenElem: %v vs %v", row[9], direct)
	}
	if math.Abs(col[5]-direct) > 1e-9*math.Abs(direct) {
		t.Fatalf("goldenCol disagrees with GoldenElem: %v vs %v", col[5], direct)
	}
}

// The delta-propagation faulty run must agree with a brute-force faulty
// re-execution for input-word corruption.
func TestDeltaPropagationMatchesBruteForce(t *testing.T) {
	const n = 64
	k := New(n)
	// Corrupt a_{3,10} by a sign flip and recompute C fully.
	i0, k0 := 3, 10
	orig := k.A(i0, k0)
	corrupted := -orig

	// Brute force faulty C row.
	bruteRow := make([]float64, n)
	for j := 0; j < n; j++ {
		var sum float64
		for kk := 0; kk < n; kk++ {
			a := k.A(i0, kk)
			if kk == k0 {
				a = corrupted
			}
			sum += a * k.B(kk, j)
		}
		bruteRow[j] = sum
	}

	// Delta propagation.
	gp := k.Golden(nil).(*goldenProduct)
	sc := gp.scr.Get()
	defer gp.scr.Put(sc)
	r := k.newRun(gp, sc, nil)
	row := r.goldenRow(i0)
	d := corrupted - orig
	for j := 0; j < n; j++ {
		delta := row[j] + d*k.B(k0, j)
		if math.Abs(delta-bruteRow[j]) > 1e-9*math.Abs(bruteRow[j]) {
			t.Fatalf("delta propagation mismatch at j=%d: %v vs %v", j, delta, bruteRow[j])
		}
	}
}

func devices() []arch.Device {
	return []arch.Device{k40.New(), phi.New()}
}

func TestProfileSane(t *testing.T) {
	k := New(1024)
	for _, dev := range devices() {
		p := k.Profile(dev)
		if err := p.Validate(); err != nil {
			t.Fatalf("%s profile invalid: %v", dev.ShortName(), err)
		}
		if p.Threads != 1024*1024/16 {
			t.Fatalf("threads = %d, want Table II side^2/16", p.Threads)
		}
		if p.OutputDims.X != 1024 || p.OutputDims.Y != 1024 {
			t.Fatal("output dims wrong")
		}
	}
}

func TestProfileDeviceSpecificShares(t *testing.T) {
	k := New(1024)
	pk := k.Profile(k40.New())
	pp := k.Profile(phi.New())
	if pk.VectorShare != 0 {
		t.Fatal("K40 should have no vector share")
	}
	if pp.VectorShare == 0 {
		t.Fatal("Phi should have vector share")
	}
	if pk.LocalMemPerBlockKB == 0 {
		t.Fatal("K40 DGEMM should stage tiles in shared memory")
	}
	if pp.LocalMemPerBlockKB != 0 {
		t.Fatal("Phi has no shared memory staging")
	}
}

func inj(scope arch.Scope, field floatbits.Field) arch.Injection {
	return arch.Injection{
		Scope: scope,
		Words: 8,
		Lines: 2,
		Tasks: 2,
		Flip:  fault.FlipSpec{Field: field, Bits: 1},
	}
}

func TestOutputWordInjection(t *testing.T) {
	k := New(128)
	rng := xrand.New(1)
	rep := k.RunInjectedPooled(k.Golden(k40.New()), inj(arch.ScopeOutputWord, floatbits.Exponent), rng, nil)
	if rep.Count() != 1 {
		t.Fatalf("output-word corruption should yield 1 mismatch, got %d", rep.Count())
	}
	if rep.Locality() != metrics.Single {
		t.Fatalf("locality = %v, want single", rep.Locality())
	}
	if rep.Mismatches[0].RelErrPct < 49 {
		t.Fatalf("exponent flip should be large, got %v%%", rep.Mismatches[0].RelErrPct)
	}
}

func TestInputWordLineError(t *testing.T) {
	k := New(128)
	rng := xrand.New(2)
	in := inj(arch.ScopeCacheLine, floatbits.Exponent)
	in.OutputBias = 0 // force input-side
	in.Lines = 1
	in.When = 0 // always consumed
	// Force the A-side branch by trying seeds until we hit a run where the
	// mismatches form a line (A rows give lines; B rows give squares).
	sawLine := false
	for seed := uint64(0); seed < 20 && !sawLine; seed++ {
		rep := k.RunInjectedPooled(k.Golden(k40.New()), in, xrand.New(seed), nil)
		if rep.Count() == 0 {
			continue
		}
		loc := rep.Locality()
		if loc == metrics.Line || loc == metrics.Single {
			sawLine = true
		}
	}
	_ = rng
	if !sawLine {
		t.Fatal("input-side cache corruption never produced line-patterned errors")
	}
}

func TestCacheLineOutputSide(t *testing.T) {
	k := New(128)
	in := inj(arch.ScopeCacheLine, floatbits.Exponent)
	in.OutputBias = 1 // force output-side
	in.Lines = 1
	rep := k.RunInjectedPooled(k.Golden(k40.New()), in, xrand.New(3), nil)
	if rep.Count() == 0 || rep.Count() > 8 {
		t.Fatalf("output line corruption should corrupt up to Words elements, got %d", rep.Count())
	}
	loc := rep.Locality()
	if loc != metrics.Line && loc != metrics.Single {
		t.Fatalf("output line locality = %v", loc)
	}
}

func TestTaskSetSquare(t *testing.T) {
	k := New(128)
	in := inj(arch.ScopeTaskSet, floatbits.AnyField)
	in.Tasks = 1
	rep := k.RunInjectedPooled(k.Golden(k40.New()), in, xrand.New(4), nil)
	if rep.Count() == 0 {
		t.Fatal("task-set corruption produced no mismatches")
	}
	if got := rep.Locality(); got != metrics.Square {
		t.Fatalf("block corruption locality = %v, want square", got)
	}
	// A skipped/displaced tile stays within one 64x64 block per task.
	if rep.Count() > TileSize*TileSize {
		t.Fatalf("single task corrupted %d elements > tile", rep.Count())
	}
}

func TestSharedTileInjectionBounded(t *testing.T) {
	k := New(128)
	in := inj(arch.ScopeSharedTile, floatbits.Exponent)
	rep := k.RunInjectedPooled(k.Golden(k40.New()), in, xrand.New(5), nil)
	if rep.Count() > TileSize {
		t.Fatalf("shared-tile corruption escaped the consuming block: %d mismatches", rep.Count())
	}
}

func TestVectorLanesRowFragment(t *testing.T) {
	k := New(128)
	in := inj(arch.ScopeVectorLanes, floatbits.Exponent)
	rep := k.RunInjectedPooled(k.Golden(phi.New()), in, xrand.New(6), nil)
	if rep.Count() == 0 || rep.Count() > in.Words {
		t.Fatalf("vector-lane corruption count = %d", rep.Count())
	}
	// All in one row.
	y := rep.Mismatches[0].Coord.Y
	for _, m := range rep.Mismatches {
		if m.Coord.Y != y {
			t.Fatal("vector lanes crossed rows")
		}
	}
}

func TestAccumTermDiluted(t *testing.T) {
	// A mantissa flip in one term of a 128-term reduction must produce a
	// tiny relative error on the output (the dilution effect).
	k := New(128)
	in := arch.Injection{
		Scope: arch.ScopeAccumTerm,
		Flip:  fault.FlipSpec{Field: floatbits.LowMantissa, Bits: 1},
	}
	for seed := uint64(0); seed < 10; seed++ {
		rep := k.RunInjectedPooled(k.Golden(k40.New()), in, xrand.New(seed), nil)
		if rep.Count() == 0 {
			continue // delta below one ulp: logically masked
		}
		if rep.MaxRelErrPct() > 0.001 {
			t.Fatalf("low-mantissa accum term produced %v%% error", rep.MaxRelErrPct())
		}
	}
}

func TestWhenMasksConsumedInputs(t *testing.T) {
	k := New(128)
	in := inj(arch.ScopeCacheLine, floatbits.Exponent)
	in.OutputBias = 0
	in.When = 0.999999 // effectively always already consumed
	masked := 0
	for seed := uint64(0); seed < 30; seed++ {
		if k.RunInjectedPooled(k.Golden(k40.New()), in, xrand.New(seed), nil).Count() == 0 {
			masked++
		}
	}
	if masked < 28 {
		t.Fatalf("late input corruption should be masked, only %d/30 were", masked)
	}
}

func TestInjectionNeverPanicsProperty(t *testing.T) {
	k := New(128)
	devs := devices()
	f := func(seed uint64, scopeRaw, fieldRaw uint8) bool {
		scope := arch.Scope(int(scopeRaw) % 7)
		field := floatbits.Field(int(fieldRaw) % 6)
		in := inj(scope, field)
		rng := xrand.New(seed)
		in.When = rng.Float64()
		dev := devs[rng.Intn(len(devs))]
		rep := k.RunInjectedPooled(k.Golden(dev), in, rng, nil)
		return rep.TotalElements == 128*128
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMismatchesWithinBounds(t *testing.T) {
	k := New(128)
	for seed := uint64(0); seed < 40; seed++ {
		rng := xrand.New(seed)
		scope := arch.Scope(rng.Intn(7))
		in := inj(scope, floatbits.AnyField)
		rep := k.RunInjectedPooled(k.Golden(k40.New()), in, rng, nil)
		for _, m := range rep.Mismatches {
			if m.Coord.X < 0 || m.Coord.X >= 128 || m.Coord.Y < 0 || m.Coord.Y >= 128 {
				t.Fatalf("mismatch out of bounds: %+v", m.Coord)
			}
			if m.Read == m.Expected {
				t.Fatal("recorded non-mismatch")
			}
		}
	}
}

// GoldenElem computes the fault-free c_{i,j} on demand: the naive oracle
// for the golden row and column paths.
func (k *Kernel) GoldenElem(i, j int) float64 {
	var sum float64
	for kk := 0; kk < k.n; kk++ {
		sum += k.A(i, kk) * k.B(kk, j)
	}
	return sum
}

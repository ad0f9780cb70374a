package lavamd

// Property and fuzz suites pinning the golden-sum delta evaluator
// bit-identical to the frozen naive path (naive_test.go): same mismatch
// values to the last bit, same emission order, across every scope, grid
// size, and particles-per-box count.

import (
	"math"
	"testing"

	"radcrit/internal/arch"
	"radcrit/internal/fault"
	"radcrit/internal/floatbits"
	"radcrit/internal/metrics"
	"radcrit/internal/xrand"
)

var deltaScopes = []arch.Scope{
	arch.ScopeAccumTerm, arch.ScopeInputWord, arch.ScopeOutputWord,
	arch.ScopeVectorLanes, arch.ScopeCacheLine, arch.ScopeSharedTile,
	arch.ScopeTaskSet,
}

var deltaFields = []floatbits.Field{
	floatbits.AnyField, floatbits.Mantissa, floatbits.Exponent, floatbits.Sign,
}

// randomInjection derives an injection for scope from rng, exercising the
// word/line/task spreads of every scope path.
func randomInjection(scope arch.Scope, rng *xrand.RNG) arch.Injection {
	return arch.Injection{
		Scope: scope,
		When:  rng.Float64(),
		Words: 1 + rng.Intn(8),
		Lines: 1 + rng.Intn(3),
		Tasks: 1 + rng.Intn(3),
		Flip: fault.FlipSpec{
			Field: deltaFields[rng.Intn(len(deltaFields))],
			Bits:  1 + rng.Intn(2),
		},
	}
}

// reportsBitIdentical fails the test unless the two reports carry the same
// mismatches, in the same order, with bit-equal floats.
func reportsBitIdentical(t *testing.T, got, want *metrics.Report) {
	t.Helper()
	if got.Dims != want.Dims || got.TotalElements != want.TotalElements {
		t.Fatalf("shape mismatch: got %v/%d want %v/%d",
			got.Dims, got.TotalElements, want.Dims, want.TotalElements)
	}
	if len(got.Mismatches) != len(want.Mismatches) {
		t.Fatalf("mismatch count: got %d want %d", len(got.Mismatches), len(want.Mismatches))
	}
	for i := range got.Mismatches {
		gm, wm := got.Mismatches[i], want.Mismatches[i]
		if gm.Coord != wm.Coord {
			t.Fatalf("mismatch %d: coord %v != %v", i, gm.Coord, wm.Coord)
		}
		if math.Float64bits(gm.Read) != math.Float64bits(wm.Read) ||
			math.Float64bits(gm.Expected) != math.Float64bits(wm.Expected) ||
			math.Float64bits(gm.RelErrPct) != math.Float64bits(wm.RelErrPct) {
			t.Fatalf("mismatch %d at %v: got (%x,%x,%x) want (%x,%x,%x)", i, gm.Coord,
				math.Float64bits(gm.Read), math.Float64bits(gm.Expected), math.Float64bits(gm.RelErrPct),
				math.Float64bits(wm.Read), math.Float64bits(wm.Expected), math.Float64bits(wm.RelErrPct))
		}
	}
}

// checkDeltaVsNaive replays one (g, p, scope, seed) case through both
// paths from identical RNG states and compares bitwise.
func checkDeltaVsNaive(t *testing.T, g, p int, scope arch.Scope, seed uint64) {
	t.Helper()
	k := New(g)
	inj := randomInjection(scope, xrand.New(seed^0xD5))
	fast := k.RunInjectedPooled(k.handleFor(p), inj, xrand.New(seed), nil)
	naive := k.naiveRunInjected(p, inj, xrand.New(seed))
	reportsBitIdentical(t, fast, naive)
}

// TestLavaMDDeltaMatchesNaiveBitwise sweeps grid sizes, particle counts,
// scopes and seeds: the table-driven delta evaluator must reproduce the
// naive path's reports bit-for-bit with identical emission order.
func TestLavaMDDeltaMatchesNaiveBitwise(t *testing.T) {
	cases := []struct{ g, p int }{{2, 24}, {3, 16}, {4, 10}, {3, 100}}
	for _, c := range cases {
		for _, scope := range deltaScopes {
			for seed := uint64(1); seed <= 4; seed++ {
				checkDeltaVsNaive(t, c.g, c.p, scope, seed*0x9E37+uint64(scope))
			}
		}
	}
}

// TestLavaMDDeltaMatchesNaiveDeviceCounts runs a slimmer sweep at the two
// real per-device particle counts (K40's 192, Phi's 100).
func TestLavaMDDeltaMatchesNaiveDeviceCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("naive reference is slow at device-scale particle counts")
	}
	for _, p := range []int{100, 192} {
		for _, scope := range deltaScopes {
			checkDeltaVsNaive(t, 3, p, scope, 0xBEEF+uint64(p)+uint64(scope))
		}
	}
}

// FuzzLavaMDDeltaVsNaive lets the fuzzer drive (grid, particles, scope,
// seed) combinations through the same bitwise comparison.
func FuzzLavaMDDeltaVsNaive(f *testing.F) {
	f.Add(uint64(42), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(7), uint8(1), uint8(2), uint8(4))
	f.Add(uint64(1234), uint8(2), uint8(1), uint8(6))
	f.Fuzz(func(t *testing.T, seed uint64, gSel, pSel, scopeSel uint8) {
		grids := []int{2, 3, 4}
		parts := []int{8, 16, 32}
		g := grids[int(gSel)%len(grids)]
		p := parts[int(pSel)%len(parts)]
		scope := deltaScopes[int(scopeSel)%len(deltaScopes)]
		checkDeltaVsNaive(t, g, p, scope, seed)
	})
}

// TestGoldenSumTableRebuildMatchesIncremental pins the lazy per-box fills:
// a table populated incrementally by a workload of strikes must hold
// exactly the values a from-scratch rebuild computes.
func TestGoldenSumTableRebuildMatchesIncremental(t *testing.T) {
	k := New(3)
	const p = 20
	h := k.handleFor(p)

	// Populate tables incrementally through a mixed strike workload.
	rng := xrand.New(99)
	for i := 0; i < 40; i++ {
		scope := deltaScopes[i%len(deltaScopes)]
		inj := randomInjection(scope, rng.Split(uint64(i)))
		k.RunInjectedPooled(h, inj, rng.Split(uint64(i)+1000), nil)
	}

	// Rebuild every box column on a fresh kernel (fresh tables) and
	// compare bitwise against whatever the workload filled in.
	k2 := New(3)
	fresh := k2.handleFor(p).tab
	total := k.g * k.g * k.g
	checked := 0
	for bi := 0; bi < total; bi++ {
		if st := h.tab.boxes[bi].st.Load(); st != nil {
			ref := fresh.state(bi)
			for idx := 0; idx < p; idx++ {
				if math.Float64bits(st.x[idx]) != math.Float64bits(ref.x[idx]) ||
					math.Float64bits(st.y[idx]) != math.Float64bits(ref.y[idx]) ||
					math.Float64bits(st.z[idx]) != math.Float64bits(ref.z[idx]) ||
					math.Float64bits(st.q[idx]) != math.Float64bits(ref.q[idx]) {
					t.Fatalf("box %d particle %d: incremental state differs from rebuild", bi, idx)
				}
			}
		}
		pot := h.tab.boxes[bi].pot.Load()
		if pot == nil {
			continue
		}
		checked++
		for idx := 0; idx < p; idx++ {
			want := fresh.potential(bi, idx)
			if math.Float64bits((*pot)[idx]) != math.Float64bits(want) {
				t.Fatalf("box %d particle %d: incremental pot %v != rebuild %v",
					bi, idx, (*pot)[idx], want)
			}
		}
	}
	if checked == 0 {
		t.Fatal("workload never materialised a golden-sum column; test is vacuous")
	}
}

package campaign

import (
	"testing"

	"radcrit/internal/arch"
	"radcrit/internal/beam"
	"radcrit/internal/fault"
	"radcrit/internal/injector"
	"radcrit/internal/metrics"
	"radcrit/internal/xrand"
)

// TestPooledKernelPathsBitIdentical is the pooled hot path's contract
// (ISSUE 4): RunInjectedPooled against recycled scratch and a shared
// report pool produces bit-identical reports to the allocate-fresh
// nil-pool path, across random (kernel, device, seed) draws for all
// four kernel families. Each SDC syndrome is replayed three ways from
// identical RNG states — pooled (into a reused pool), unpooled, and
// pooled again after the first report was recycled — so a strike leaking
// dirty scratch or a stale report into the next would be caught.
func TestPooledKernelPathsBitIdentical(t *testing.T) {
	cells := determinismCells()
	seedRng := xrand.New(0x900D5EED)
	for trial, cell := range cells {
		seed := seedRng.Uint64()
		ses, err := injector.NewSession(cell.Dev, cell.Kern)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		prof := ses.Profile()
		golden := cell.Kern.Golden(cell.Dev)
		base := xrand.New(seed)
		var pool metrics.ReportPool
		sdcs := 0
		for i := uint64(0); i < 300 && sdcs < 25; i++ {
			// Three clones of the per-index stream, consumed identically.
			subs := [3]*xrand.RNG{}
			var syn arch.Syndrome
			for v := 0; v < 3; v++ {
				sub := base.Split(i + 1)
				strike := fault.Strike{When: sub.Float64(), Energy: beam.StrikeEnergy(sub)}
				syn = cell.Dev.ResolveStrike(prof, strike, sub)
				subs[v] = sub
			}
			if syn.Outcome != fault.SDC {
				continue
			}
			sdcs++
			pooled := cell.Kern.RunInjectedPooled(golden, syn.Injection, subs[0], &pool)
			fresh := cell.Kern.RunInjectedPooled(golden, syn.Injection, subs[1], nil)
			if !sameReport(pooled, fresh) {
				t.Fatalf("%s strike %d: pooled report differs from unpooled", cell.Kern.Name(), i)
			}
			pool.Put(pooled) // recycle, then prove the reuse is invisible
			again := cell.Kern.RunInjectedPooled(golden, syn.Injection, subs[2], &pool)
			if !sameReport(again, fresh) {
				t.Fatalf("%s strike %d: report from recycled scratch differs", cell.Kern.Name(), i)
			}
			pool.Put(again)
		}
		if sdcs == 0 {
			t.Fatalf("%s: no SDC syndromes drawn", cell.Kern.Name())
		}
	}
}

// TestPooledEngineBitIdenticalAcrossWorkers draws random (seed, workers)
// pairs and pins that the full pooled engine — session pool, report
// recycling, result-sink cloning — stays bit-identical between a serial
// and a parallel run of every kernel family.
func TestPooledEngineBitIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell engine property test")
	}
	seedRng := xrand.New(0xAB1DE)
	for trial, cell := range determinismCells() {
		cfgA := DefaultConfig(seedRng.Uint64(), 120)
		cfgA.Workers = 1 + int(seedRng.Uint64()%4)
		cfgB := cfgA
		cfgB.Workers = 8
		a := runOracle(cell.Dev, cell.Kern, cfgA)
		b := runOracle(cell.Dev, cell.Kern, cfgB)
		requireIdentical(t, cell.Kern.Name(), a, b)
		_ = trial
	}
}

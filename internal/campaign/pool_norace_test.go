//go:build !race

package campaign

import (
	"context"
	"testing"

	"radcrit/internal/beam"
	"radcrit/internal/fault"
	"radcrit/internal/injector"
	"radcrit/internal/k40"
	"radcrit/internal/kernels/dgemm"
	"radcrit/internal/xrand"
)

// TestMaskedStrikeAllocBounds pins the zero-allocation contract of the
// strike hot path (ISSUE 4): a masked strike — the overwhelming majority
// of a campaign — allocates at most 2 objects end to end (the per-index
// RNG split plus slack for pool jitter) for every kernel family, on both
// the architecturally-masked path (no kernel run) and, where the probe
// window contains one, the logically-masked path (kernel runs against
// pooled scratch, empty report recycled in place).
//
// Excluded under -race: the race runtime's instrumentation allocates.
func TestMaskedStrikeAllocBounds(t *testing.T) {
	for _, cell := range determinismCells() {
		ses, err := injector.NewSession(cell.Dev, cell.Kern)
		if err != nil {
			t.Fatal(err)
		}
		prof := ses.Profile()
		base := xrand.New(0xA110C)

		runStrike := func(i uint64) injector.Outcome {
			sub := base.Split(i + 1)
			strike := fault.Strike{When: sub.Float64(), Energy: beam.StrikeEnergy(sub)}
			out := ses.RunOne(strike, sub)
			ses.ReleaseReport(out.Report)
			return out
		}
		syndromeOf := func(i uint64) fault.OutcomeClass {
			sub := base.Split(i + 1)
			strike := fault.Strike{When: sub.Float64(), Energy: beam.StrikeEnergy(sub)}
			return cell.Dev.ResolveStrike(prof, strike, sub).Outcome
		}

		// Scan for masked strikes, warming every pool on the way. An
		// index whose syndrome is an SDC but whose outcome is Masked
		// exercised the kernel and was logically masked.
		archMasked, logicalMasked := int64(-1), int64(-1)
		for i := uint64(0); i < 4000 && (archMasked < 0 || logicalMasked < 0); i++ {
			syn := syndromeOf(i)
			out := runStrike(i)
			if out.Class != fault.Masked {
				continue
			}
			if syn == fault.SDC {
				logicalMasked = int64(i)
			} else {
				archMasked = int64(i)
			}
		}
		if archMasked < 0 {
			t.Fatalf("%s: no architecturally masked strike in probe window", cell.Kern.Name())
		}
		check := func(label string, idx int64) {
			avg := testing.AllocsPerRun(100, func() { runStrike(uint64(idx)) })
			if avg > 2 {
				t.Errorf("%s: %s strike allocates %v objects, want <= 2",
					cell.Kern.Name(), label, avg)
			}
		}
		check("architecturally masked", archMasked)
		if logicalMasked >= 0 {
			check("logically masked", logicalMasked)
		} else {
			t.Logf("%s: no logically masked strike in probe window (ok)", cell.Kern.Name())
		}
	}
}

// TestLavaMDMixedStrikeAllocBounds tightens the alloc contract on the
// path that used to leak ~115 objects per strike: LavaMD's full mixed
// population, SDC strikes included. With the golden-sum tables the SDC
// paths read SoA state instead of boxing cached potentials in a sync.Map
// and allocating per-call closures, so a warmed-up mixed strike averages
// at most 2 allocations (the per-index RNG split plus pool jitter and
// occasional mismatch-slice growth).
//
// Excluded under -race: the race runtime's instrumentation allocates.
func TestLavaMDMixedStrikeAllocBounds(t *testing.T) {
	cell := determinismCells()[1] // phi x lavamd
	ses, err := injector.NewSession(cell.Dev, cell.Kern)
	if err != nil {
		t.Fatal(err)
	}
	base := xrand.New(0x1A7A)
	const cycle = 64
	runStrike := func(i uint64) {
		sub := base.Split(i + 1)
		strike := fault.Strike{When: sub.Float64(), Energy: beam.StrikeEnergy(sub)}
		out := ses.RunOne(strike, sub)
		ses.ReleaseReport(out.Report)
	}
	runCycle := func() {
		for i := uint64(0); i < cycle; i++ {
			runStrike(i)
		}
	}
	runCycle() // warm every pool and golden-sum table
	perStrike := testing.AllocsPerRun(5, runCycle) / cycle
	if perStrike > 2 {
		t.Errorf("LavaMD mixed population allocates %.2f objects/strike, want <= 2", perStrike)
	}
}

// TestSummaryAccumulatorAllocFree pins the summary reduction's alloc
// contract: once warm, SummaryAccumulator.Consume at the thresholds
// {0, 2} allocates nothing on a K40 DGEMM-128 SDC, so locality
// classification, which runs per SDC and threshold, makes no garbage.
//
// Excluded under -race: the race runtime's instrumentation allocates.
func TestSummaryAccumulatorAllocFree(t *testing.T) {
	capture := &captureSink{}
	if _, err := RunStreamingCtx(context.Background(), k40.New(), dgemm.New(128), DefaultConfig(42, 300), capture); err != nil {
		t.Fatal(err)
	}
	var sdcs []injector.Outcome
	for _, out := range capture.outs {
		if out.Class == fault.SDC {
			sdcs = append(sdcs, out)
		}
	}
	if len(sdcs) == 0 {
		t.Fatal("no SDC in the captured stream")
	}
	acc := NewSummaryAccumulator([]float64{0, 2})
	consumeAll := func() {
		for i, out := range sdcs {
			acc.Consume(i, out)
		}
	}
	consumeAll() // warm the tally's per-resource map
	if avg := testing.AllocsPerRun(20, consumeAll); avg != 0 {
		t.Errorf("consuming %d warm DGEMM-128 SDCs allocates %v objects, want 0", len(sdcs), avg)
	}
}

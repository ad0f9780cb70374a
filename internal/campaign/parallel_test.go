package campaign

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"radcrit/internal/arch"
	"radcrit/internal/k40"
	"radcrit/internal/kernels"
	"radcrit/internal/kernels/dgemm"
	"radcrit/internal/kernels/lavamd"
	"radcrit/internal/metrics"
	"radcrit/internal/phi"
)

// sameBits compares floats by bit pattern: corrupted reads can legally be
// NaN (exponent-field flips), and NaN != NaN under both == and DeepEqual
// even though the two runs produced the identical bit pattern.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func sameReport(a, b *metrics.Report) bool {
	if a.Dims != b.Dims || a.TotalElements != b.TotalElements ||
		!sameBits(a.ThresholdPct, b.ThresholdPct) || len(a.Mismatches) != len(b.Mismatches) {
		return false
	}
	for i := range a.Mismatches {
		ma, mb := a.Mismatches[i], b.Mismatches[i]
		if ma.Coord != mb.Coord || !sameBits(ma.Read, mb.Read) ||
			!sameBits(ma.Expected, mb.Expected) || !sameBits(ma.RelErrPct, mb.RelErrPct) {
			return false
		}
	}
	return true
}

// requireIdentical asserts two engine results are bit-identical, field by
// field for actionable failures.
func requireIdentical(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Tally != b.Tally {
		t.Fatalf("%s: tallies differ: %+v vs %+v", label, a.Tally, b.Tally)
	}
	if len(a.Reports) != len(b.Reports) {
		t.Fatalf("%s: report counts differ: %d vs %d", label, len(a.Reports), len(b.Reports))
	}
	for i := range a.Reports {
		if !sameReport(a.Reports[i], b.Reports[i]) {
			t.Fatalf("%s: report %d differs", label, i)
		}
	}
	if !reflect.DeepEqual(a.ReportResource, b.ReportResource) {
		t.Fatalf("%s: report resources differ", label)
	}
	if !reflect.DeepEqual(a.ResourceTally, b.ResourceTally) {
		t.Fatalf("%s: resource tallies differ", label)
	}
	if a.Exposure != b.Exposure {
		t.Fatalf("%s: exposures differ: %+v vs %+v", label, a.Exposure, b.Exposure)
	}
	if a.Device != b.Device || a.Kernel != b.Kernel || a.Input != b.Input ||
		a.Strikes != b.Strikes || a.Profile != b.Profile {
		t.Fatalf("%s: cell identity fields differ", label)
	}
}

// determinismCells covers all four kernels on both devices' architectures:
// the stateless delta-propagated kernels (DGEMM, LavaMD) and the stateful
// snapshot-timeline kernels (HotSpot, CLAMR) exercise every golden-state
// handle implementation.
func determinismCells() []Cell {
	return []Cell{
		{Dev: k40.New(), Kern: dgemm.New(128)},
		{Dev: phi.New(), Kern: lavamd.New(4)},
		{Dev: k40.New(), Kern: HotSpotKernel(TestScale)},
		{Dev: phi.New(), Kern: CLAMRKernel(TestScale)},
	}
}

// TestParallelEngineBitIdentical is the engine's determinism contract:
// one worker and many workers must produce bit-identical Results for the
// same seed, for every kernel family.
func TestParallelEngineBitIdentical(t *testing.T) {
	for _, cell := range determinismCells() {
		serial := DefaultConfig(11, 160)
		serial.Workers = 1
		parallel := serial
		parallel.Workers = 8
		a := runOracle(cell.Dev, cell.Kern, serial)
		b := runOracle(cell.Dev, cell.Kern, parallel)
		requireIdentical(t, cell.Kern.Name(), a, b)
	}
}

// TestParallelEngineGOMAXPROCSInvariant pins the acceptance criterion
// directly: GOMAXPROCS=1 vs GOMAXPROCS=8 with the default worker count.
func TestParallelEngineGOMAXPROCSInvariant(t *testing.T) {
	dev := k40.New()
	kern := dgemm.New(128)
	cfg := DefaultConfig(23, 160) // Workers = 0: sized by GOMAXPROCS

	prev := runtime.GOMAXPROCS(1)
	a := runOracle(dev, kern, cfg)
	runtime.GOMAXPROCS(8)
	b := runOracle(dev, kern, cfg)
	runtime.GOMAXPROCS(prev)

	requireIdentical(t, "GOMAXPROCS 1 vs 8", a, b)
}

// TestParallelEngineRepeatedRunsIdentical guards against order-dependent
// state leaking through the shared golden handles: a second parallel run
// over warm caches must reproduce the first bit for bit.
func TestParallelEngineRepeatedRunsIdentical(t *testing.T) {
	dev := phi.New()
	kern := dgemm.New(128)
	cfg := DefaultConfig(31, 160)
	cfg.Workers = 8
	a := runOracle(dev, kern, cfg)
	b := runOracle(dev, kern, cfg)
	requireIdentical(t, "repeated parallel runs", a, b)
}

// TestSessionlessBuildersDeterministicUnderWorkers checks the ported
// strike-loop builders (mass check, Fig. 9 map) produce identical outputs
// for any worker count.
func TestSessionlessBuildersDeterministicUnderWorkers(t *testing.T) {
	dev := phi.New()
	serial := DefaultConfig(67, 120)
	serial.Workers = 1
	parallel := serial
	parallel.Workers = 8

	mcA := BuildMassCheckCoverage(dev, TestScale, serial, 2)
	mcB := BuildMassCheckCoverage(dev, TestScale, parallel, 2)
	if mcA != mcB {
		t.Fatalf("mass-check coverage depends on workers: %+v vs %+v", mcA, mcB)
	}

	mapA := BuildCLAMRLocalityMap(dev, TestScale, serial)
	mapB := BuildCLAMRLocalityMap(dev, TestScale, parallel)
	if !reflect.DeepEqual(mapA, mapB) {
		t.Fatal("locality map depends on workers")
	}
}

// invalidKernel wraps a real kernel with a degenerate profile, to drive
// the engine's failure path.
type invalidKernel struct{ kernels.Kernel }

func (invalidKernel) Profile(dev arch.Device) arch.Profile { return arch.Profile{} }

// TestRunPoisonedEntryPanicsAgain drives the engine's failure path through
// runOracle: an invalid cell (here a degenerate profile) panics loudly,
// and a retry panics again instead of returning a nil *Result.
func TestRunPoisonedEntryPanicsAgain(t *testing.T) {
	dev := k40.New()
	kern := invalidKernel{dgemm.New(128)}
	cfg := DefaultConfig(83, 10)
	mustPanic := func(label string) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", label)
			}
		}()
		runOracle(dev, kern, cfg)
	}
	mustPanic("first run (invalid profile)")
	mustPanic("retry")
}

// TestRunWorkerInvariant cross-checks the report-retaining oracle's view
// of the outcome stream across worker counts for every kernel family.
func TestRunWorkerInvariant(t *testing.T) {
	for _, cell := range determinismCells() {
		cfgA := DefaultConfig(71, 80)
		cfgA.Workers = 1
		cfgB := cfgA
		cfgB.Workers = 4
		a := runOracle(cell.Dev, cell.Kern, cfgA)
		b := runOracle(cell.Dev, cell.Kern, cfgB)
		requireIdentical(t, cell.Kern.Name()+" workers 1 vs 4", a, b)
	}
}

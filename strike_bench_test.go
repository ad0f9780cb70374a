// Benchmarks of the per-strike hot path: the cost of one classified
// strike through a prepared injector.Session, per kernel family. Two
// populations are measured:
//
//   - BenchmarkStrike<Kernel> draws the full strike population (masked,
//     SDC, crash, hang in campaign proportions) — the number a campaign's
//     strikes/second follows. Its allocs/op is guarded by cmd/benchguard
//     in CI against the baselines recorded in BENCH_campaign.json.
//   - BenchmarkInjected<Kernel> replays only strikes whose syndrome is an
//     SDC, so every iteration pays a full injected kernel execution — the
//     worst-case per-strike cost and the target of the pooled scratch
//     arenas (ISSUE 4: >=2x on the iterative kernels).
//
// Run with: go test -bench='Strike|Injected' -benchmem -run='^$' .
package radcrit

import (
	"testing"

	"radcrit/internal/arch"
	"radcrit/internal/beam"
	"radcrit/internal/fault"
	"radcrit/internal/injector"
	"radcrit/internal/k40"
	"radcrit/internal/kernels"
	"radcrit/internal/kernels/clamr"
	"radcrit/internal/kernels/dgemm"
	"radcrit/internal/kernels/hotspot"
	"radcrit/internal/kernels/lavamd"
	"radcrit/internal/phi"
	"radcrit/internal/xrand"
)

// strikeCycle is the number of distinct per-index RNG splits the mixed
// benchmarks cycle through: large enough to visit a representative strike
// population, small enough that golden-state caches stay warm.
const strikeCycle = 4096

// strikeAt reproduces the campaign engine's per-index strike derivation.
func strikeAt(rng *xrand.RNG, i uint64) (fault.Strike, *xrand.RNG) {
	sub := rng.Split(i + 1)
	return fault.Strike{When: sub.Float64(), Energy: beam.StrikeEnergy(sub)}, sub
}

// benchStrikeMix measures the full strike population through a session.
func benchStrikeMix(b *testing.B, dev arch.Device, kern kernels.Kernel) {
	ses, err := injector.NewSession(dev, kern)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(42)
	// Warm the golden-state handle, the session pools and the lazily
	// built golden state (DGEMM's rows and columns) over every index the
	// timed loop visits, as benchInjected does for its corpus.
	for i := uint64(0); i < uint64(min(b.N, strikeCycle)); i++ {
		strike, sub := strikeAt(rng, i)
		releaseOutcome(ses, ses.RunOne(strike, sub))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		strike, sub := strikeAt(rng, uint64(i%strikeCycle))
		releaseOutcome(ses, ses.RunOne(strike, sub))
	}
}

// benchInjected measures SDC-syndrome strikes only: each iteration runs
// the real injected kernel and builds a mismatch report.
func benchInjected(b *testing.B, dev arch.Device, kern kernels.Kernel) {
	ses, err := injector.NewSession(dev, kern)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(42)
	prof := ses.Profile()
	// Collect strike indices whose syndrome resolves to an SDC, probing
	// with a throwaway RNG clone exactly as Session.RunOne would.
	var idxs []uint64
	for i := uint64(0); i < 65536 && len(idxs) < 256; i++ {
		strike, sub := strikeAt(rng, i)
		if syn := dev.ResolveStrike(prof, strike, sub); syn.Outcome == fault.SDC {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 {
		b.Fatal("no SDC syndromes in probe window")
	}
	// Warm pools and golden caches over the corpus once.
	for _, i := range idxs {
		strike, sub := strikeAt(rng, i)
		releaseOutcome(ses, ses.RunOne(strike, sub))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		strike, sub := strikeAt(rng, idxs[i%len(idxs)])
		releaseOutcome(ses, ses.RunOne(strike, sub))
	}
}

// benchInjectedBatch measures the same SDC corpus through the session's
// cross-strike batch path (Session.RunBatch -> Kernel.RunInjectedBatch) in
// spans of batchSpan strikes, the shape the streaming engine's chunk
// loop produces. ns/op stays per strike, directly comparable with
// BenchmarkInjected<Kernel>.
func benchInjectedBatch(b *testing.B, dev arch.Device, kern kernels.Kernel) {
	const batchSpan = 64
	ses, err := injector.NewSession(dev, kern)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(42)
	prof := ses.Profile()
	var idxs []uint64
	for i := uint64(0); i < 65536 && len(idxs) < 256; i++ {
		strike, sub := strikeAt(rng, i)
		if syn := dev.ResolveStrike(prof, strike, sub); syn.Outcome == fault.SDC {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 {
		b.Fatal("no SDC syndromes in probe window")
	}
	strikes := make([]fault.Strike, batchSpan)
	rngs := make([]*xrand.RNG, batchSpan)
	outs := make([]injector.Outcome, batchSpan)
	runSpan := func(base, n int) {
		for j := 0; j < n; j++ {
			strikes[j], rngs[j] = strikeAt(rng, idxs[(base+j)%len(idxs)])
		}
		ses.RunBatch(strikes[:n], rngs[:n], outs[:n])
		for j := 0; j < n; j++ {
			releaseOutcome(ses, outs[j])
			outs[j] = injector.Outcome{}
		}
	}
	// Warm pools and golden tables over the whole corpus once, as
	// benchInjected does, so no lazily built golden state is timed.
	for base := 0; base < len(idxs); base += batchSpan {
		runSpan(base, min(batchSpan, len(idxs)-base))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batchSpan {
		runSpan(i, min(batchSpan, b.N-i))
	}
}

func BenchmarkStrikeDGEMM(b *testing.B)   { benchStrikeMix(b, k40.New(), dgemm.New(256)) }
func BenchmarkStrikeLavaMD(b *testing.B)  { benchStrikeMix(b, k40.New(), lavamd.New(5)) }
func BenchmarkStrikeHotSpot(b *testing.B) { benchStrikeMix(b, k40.New(), hotspot.New(64, 80)) }
func BenchmarkStrikeCLAMR(b *testing.B)   { benchStrikeMix(b, phi.New(), clamr.New(48, 60)) }

func BenchmarkInjectedDGEMM(b *testing.B)   { benchInjected(b, k40.New(), dgemm.New(256)) }
func BenchmarkInjectedLavaMD(b *testing.B)  { benchInjected(b, k40.New(), lavamd.New(5)) }
func BenchmarkInjectedHotSpot(b *testing.B) { benchInjected(b, k40.New(), hotspot.New(64, 80)) }
func BenchmarkInjectedCLAMR(b *testing.B)   { benchInjected(b, phi.New(), clamr.New(48, 60)) }

func BenchmarkInjectedBatchDGEMM(b *testing.B)  { benchInjectedBatch(b, k40.New(), dgemm.New(256)) }
func BenchmarkInjectedBatchLavaMD(b *testing.B) { benchInjectedBatch(b, k40.New(), lavamd.New(5)) }
func BenchmarkInjectedBatchHotSpot(b *testing.B) {
	benchInjectedBatch(b, k40.New(), hotspot.New(64, 80))
}
func BenchmarkInjectedBatchCLAMR(b *testing.B) { benchInjectedBatch(b, phi.New(), clamr.New(48, 60)) }

// releaseOutcome returns an outcome's report to the session pool, modeling
// the streaming engine's per-strike release.
func releaseOutcome(ses *injector.Session, out injector.Outcome) {
	ses.ReleaseReport(out.Report)
}

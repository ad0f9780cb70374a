package injector

import (
	"testing"

	"radcrit/internal/arch"
	"radcrit/internal/fault"
	"radcrit/internal/k40"
	"radcrit/internal/kernels"
	"radcrit/internal/kernels/dgemm"
	"radcrit/internal/xrand"
)

func mustSession(t *testing.T, dev arch.Device, kern kernels.Kernel) *Session {
	t.Helper()
	ses, err := NewSession(dev, kern)
	if err != nil {
		t.Fatal(err)
	}
	return ses
}

func TestRunOneClassifies(t *testing.T) {
	ses := mustSession(t, k40.New(), dgemm.New(128))
	rng := xrand.New(1)
	seen := map[fault.OutcomeClass]int{}
	for i := 0; i < 400; i++ {
		sub := rng.Split(uint64(i))
		out := ses.RunOne(fault.Strike{When: sub.Float64(), Energy: 1}, sub)
		seen[out.Class]++
		if out.Class == fault.SDC {
			if out.Report == nil || out.Report.Count() == 0 {
				t.Fatal("SDC outcome without mismatches")
			}
		} else if out.Report != nil {
			t.Fatal("non-SDC outcome carries a report")
		}
	}
	if seen[fault.SDC] == 0 || seen[fault.Masked] == 0 {
		t.Fatalf("outcome mix degenerate: %v", seen)
	}
}

func TestLogicalMaskingReclassifies(t *testing.T) {
	// Over enough strikes, some architecturally-SDC syndromes must be
	// logically masked by the kernel (sub-ulp deltas, consumed lines),
	// so Masked count exceeds the architectural masking alone.
	dev := k40.New()
	kern := dgemm.New(128)
	ses := mustSession(t, dev, kern)
	prof := ses.Profile()
	rng := xrand.New(7)
	architectural := 0
	observed := 0
	const n = 600
	for i := 0; i < n; i++ {
		sub := rng.Split(uint64(i))
		strike := fault.Strike{When: sub.Float64(), Energy: 1}
		// Architectural classification with an identical RNG stream.
		archRng := rng.Split(uint64(i))
		syn := dev.ResolveStrike(prof, strike, archRng)
		if syn.Outcome == fault.SDC {
			architectural++
			out := ses.RunOne(strike, sub)
			if out.Class == fault.SDC {
				observed++
			}
		}
	}
	if architectural == 0 {
		t.Fatal("no architectural SDCs sampled")
	}
	if observed >= architectural {
		t.Fatalf("no logical masking observed: %d of %d survived", observed, architectural)
	}
}

func TestSessionMatchesRunOne(t *testing.T) {
	// A session reused across strikes (its report pool recycling) must
	// classify identically to a fresh session per strike: both resolve the
	// same profile and golden state, so only the per-call setup differs.
	dev := k40.New()
	kern := dgemm.New(128)
	ses, err := NewSession(dev, kern)
	if err != nil {
		t.Fatal(err)
	}
	if err := ses.Profile().Validate(); err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(9)
	for i := 0; i < 200; i++ {
		strike := fault.Strike{When: rng.Split(uint64(i)).Float64(), Energy: 1.2}
		a := ses.RunOne(strike, rng.Split(uint64(i)+1))
		b := mustSession(t, dev, kern).RunOne(strike, rng.Split(uint64(i)+1))
		if a.Class != b.Class || a.Resource != b.Resource || a.Scope != b.Scope {
			t.Fatalf("strike %d: session %+v != fresh session %+v", i, a, b)
		}
		if (a.Report == nil) != (b.Report == nil) {
			t.Fatalf("strike %d: report presence differs", i)
		}
		if a.Report != nil && a.Report.Count() != b.Report.Count() {
			t.Fatalf("strike %d: report sizes differ", i)
		}
	}
}

func TestTally(t *testing.T) {
	tl := Tally{Masked: 1, SDC: 2, Crash: 1, Hang: 1}
	if tl.Count() != 5 {
		t.Fatal("count wrong")
	}
	if tl.SDCToDUERatio() != 1 {
		t.Fatalf("ratio = %v", tl.SDCToDUERatio())
	}
	if (Tally{SDC: 5}).SDCToDUERatio() != 0 {
		t.Fatal("zero DUE should return 0")
	}
}

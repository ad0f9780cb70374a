package campaign

// Span determinism suite (DESIGN.md §13): Session.RunBatch, the engine's
// entry for a worker span, must match the per-strike RunOne path bit for
// bit, detector verdict included, at every span split, for every kernel
// family.

import (
	"testing"

	"radcrit/internal/beam"
	"radcrit/internal/fault"
	"radcrit/internal/injector"
	"radcrit/internal/xrand"
)

// strikeAtIndex derives strike i exactly as the streaming engine does.
func strikeAtIndex(base *xrand.RNG, i int) (fault.Strike, *xrand.RNG) {
	sub := base.Split(uint64(i) + 1)
	return fault.Strike{When: sub.Float64(), Energy: beam.StrikeEnergy(sub)}, sub
}

func requireSameOutcome(t *testing.T, label string, i int, got, want injector.Outcome) {
	t.Helper()
	if got.Class != want.Class || got.Resource != want.Resource || got.Scope != want.Scope {
		t.Fatalf("%s strike %d: outcome (%v,%v,%v) != (%v,%v,%v)", label, i,
			got.Class, got.Resource, got.Scope, want.Class, want.Resource, want.Scope)
	}
	if (got.Report == nil) != (want.Report == nil) {
		t.Fatalf("%s strike %d: report presence differs", label, i)
	}
	if got.Report != nil && !sameReport(got.Report, want.Report) {
		t.Fatalf("%s strike %d: reports differ", label, i)
	}
	if got.Report != nil && got.Report.Detected != want.Report.Detected {
		t.Fatalf("%s strike %d: detector verdict %v != %v", label, i, got.Report.Detected, want.Report.Detected)
	}
}

// TestBatchMatchesRunOneBitIdentical runs the same strike population
// through RunOne (one call per strike) and RunBatch (several span splits,
// including span=1 and one whole-population span) and requires bit-equal
// classifications, reports and verdicts everywhere.
func TestBatchMatchesRunOneBitIdentical(t *testing.T) {
	const strikes = 160
	for _, cell := range determinismCells() {
		sesOne, err := injector.NewSession(cell.Dev, cell.Kern)
		if err != nil {
			t.Fatal(err)
		}
		base := xrand.New(0xBA7C4)
		want := make([]injector.Outcome, strikes)
		for i := 0; i < strikes; i++ {
			strike, sub := strikeAtIndex(base, i)
			want[i] = sesOne.RunOne(strike, sub)
		}

		for _, span := range []int{1, 7, 32, strikes} {
			sesBatch, err := injector.NewSession(cell.Dev, cell.Kern)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]injector.Outcome, strikes)
			strikesBuf := make([]fault.Strike, strikes)
			rngs := make([]*xrand.RNG, strikes)
			for i := 0; i < strikes; i++ {
				strikesBuf[i], rngs[i] = strikeAtIndex(base, i)
			}
			for lo := 0; lo < strikes; lo += span {
				hi := min(lo+span, strikes)
				sesBatch.RunBatch(strikesBuf[lo:hi], rngs[lo:hi], got[lo:hi])
			}
			for i := 0; i < strikes; i++ {
				requireSameOutcome(t, cell.Kern.Name(), i, got[i], want[i])
			}
		}
	}
}

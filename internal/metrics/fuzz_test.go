package metrics

import (
	"math"
	"testing"

	"radcrit/internal/grid"
)

// FuzzReportFilter drives Report.Filter with arbitrary mismatch values and
// thresholds (including NaN, infinities and negative thresholds) and
// checks its algebraic contract: filtering only removes, kept mismatches
// all exceed the threshold, the receiver is untouched, filtering is
// idempotent at one threshold and monotonic across thresholds, and IsSDC
// agrees with MaxRelErrPct. CountAbove and LocalityAbove, which the
// streaming summary reads instead of a filtered copy, must agree with
// Filter at both thresholds.
func FuzzReportFilter(f *testing.F) {
	f.Add(1.5, 1.0, 0.0, 2.0, 2.0, 5.0)
	f.Add(math.NaN(), 1.0, 3.0, 0.0, 0.0, 1.0)
	f.Add(1.0, 1.0, -4.5, -4.5, -1.0, math.NaN())
	f.Add(math.Inf(1), 2.0, 2.0, math.Inf(-1), 100.0, 1e307)
	f.Add(1.5, 1.0, 3.0, 2.0, 50.0, 0.0) // both errors exactly 50%: on the threshold

	f.Fuzz(func(t *testing.T, read1, exp1, read2, exp2, t1, t2 float64) {
		rep := &Report{
			Dims:          grid.Dims{X: 2, Y: 1, Z: 1},
			TotalElements: 2,
			Mismatches: []Mismatch{
				{Coord: grid.Coord{X: 0}, Read: read1, Expected: exp1, RelErrPct: RelativeErrorPct(read1, exp1)},
				{Coord: grid.Coord{X: 1}, Read: read2, Expected: exp2, RelErrPct: RelativeErrorPct(read2, exp2)},
			},
		}
		before := len(rep.Mismatches)

		fl := rep.Filter(t1)
		if len(rep.Mismatches) != before {
			t.Fatal("Filter mutated its receiver")
		}
		if fl.Count() > rep.Count() {
			t.Fatalf("filter grew the report: %d -> %d", rep.Count(), fl.Count())
		}
		if fl.Dims != rep.Dims || fl.TotalElements != rep.TotalElements {
			t.Fatal("filter changed report shape")
		}
		if fl.ThresholdPct != t1 && !math.IsNaN(t1) {
			t.Fatalf("filtered report records threshold %v, want %v", fl.ThresholdPct, t1)
		}
		for _, m := range fl.Mismatches {
			if !(m.RelErrPct > t1) {
				t.Fatalf("kept mismatch with RelErrPct %v under threshold %v", m.RelErrPct, t1)
			}
		}
		if again := fl.Filter(t1); again.Count() != fl.Count() {
			t.Fatalf("filter not idempotent: %d -> %d", fl.Count(), again.Count())
		}
		if fl.IsSDC() != (rep.MaxRelErrPct() > t1) {
			t.Fatalf("IsSDC %v disagrees with MaxRelErrPct %v vs threshold %v",
				fl.IsSDC(), rep.MaxRelErrPct(), t1)
		}
		// The copy-free helpers the streaming reducers read must agree
		// with the filtered report at both thresholds.
		for _, th := range []float64{t1, t2} {
			want := rep.Filter(th)
			if n := rep.CountAbove(th); n != len(want.Mismatches) {
				t.Fatalf("CountAbove(%v) = %d, Filter keeps %d", th, n, len(want.Mismatches))
			}
			if p := rep.LocalityAbove(th); p != want.Locality() {
				t.Fatalf("LocalityAbove(%v) = %v, Filter(%v).Locality() = %v", th, p, th, want.Locality())
			}
		}
		// Monotonicity: a stricter threshold can only keep fewer.
		lo, hi := t1, t2
		if hi < lo {
			lo, hi = hi, lo
		}
		if rep.Filter(hi).Count() > rep.Filter(lo).Count() {
			t.Fatalf("stricter threshold %v kept more than %v", hi, lo)
		}
	})
}

// FuzzRelativeErrorPct pins the error metric's range contract: the result
// is always non-negative (or the Infinite sentinel) and zero exactly when
// read == expected.
func FuzzRelativeErrorPct(f *testing.F) {
	f.Add(1.0, 1.0)
	f.Add(0.0, 1.0)
	f.Add(math.NaN(), 0.0)
	f.Add(math.Inf(1), -2.0)

	f.Fuzz(func(t *testing.T, read, expected float64) {
		e := RelativeErrorPct(read, expected)
		if math.IsNaN(e) {
			t.Fatalf("RelativeErrorPct(%v, %v) = NaN", read, expected)
		}
		if e < 0 {
			t.Fatalf("RelativeErrorPct(%v, %v) = %v < 0", read, expected, e)
		}
		if read == expected && e != 0 {
			t.Fatalf("equal values yield error %v", e)
		}
		if e == 0 && read != expected && !math.IsNaN(read) {
			// A genuinely different finite read must register; the only
			// zero-error case is equality (NaN read maps to the sentinel).
			if math.Abs(read-expected) > 0 && math.Abs((read-expected)/expected)*100 > 0 {
				t.Fatalf("distinct values (%v, %v) yield zero error", read, expected)
			}
		}
	})
}

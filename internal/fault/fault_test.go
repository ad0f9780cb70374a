package fault

import (
	"math"
	"testing"
	"testing/quick"

	"radcrit/internal/floatbits"
	"radcrit/internal/xrand"
)

func TestResourceStrings(t *testing.T) {
	for r := range Resource(NumResources) {
		if r.String() == "unknown" || r.String() == "" {
			t.Fatalf("resource %d has no name", r)
		}
	}
	if Resource(999).String() != "unknown" {
		t.Fatal("invalid resource should be unknown")
	}
}

func TestOutcomeStrings(t *testing.T) {
	want := map[OutcomeClass]string{
		Masked: "masked", SDC: "sdc", Crash: "crash", Hang: "hang",
	}
	for o, s := range want {
		if o.String() != s {
			t.Fatalf("%v != %s", o, s)
		}
	}
}

func TestOutcomeDistSample(t *testing.T) {
	d := OutcomeDist{Masked: 1, SDC: 1, Crash: 1, Hang: 1}
	if d.Total() != 4 {
		t.Fatal("total wrong")
	}
	rng := xrand.New(1)
	seen := map[OutcomeClass]int{}
	const n = 40000
	for i := 0; i < n; i++ {
		seen[d.Sample(rng)]++
	}
	for _, c := range []OutcomeClass{Masked, SDC, Crash, Hang} {
		frac := float64(seen[c]) / n
		if math.Abs(frac-0.25) > 0.02 {
			t.Fatalf("class %v frequency %v, want ~0.25", c, frac)
		}
	}
}

func TestOutcomeDistZeroWeightNeverSampled(t *testing.T) {
	d := OutcomeDist{Masked: 1, SDC: 1}
	rng := xrand.New(2)
	for i := 0; i < 1000; i++ {
		c := d.Sample(rng)
		if c == Crash || c == Hang {
			t.Fatal("zero-weight class sampled")
		}
	}
}

func TestFlipSpecApply(t *testing.T) {
	rng := xrand.New(3)
	s := FlipSpec{Field: floatbits.Sign, Bits: 1}
	if s.Apply(2.5, rng) != -2.5 {
		t.Fatal("sign flip wrong")
	}
	// Zero bits behaves as one.
	z := FlipSpec{Field: floatbits.Mantissa}
	if z.Apply(1.5, rng) == 1.5 {
		t.Fatal("zero-bit spec should still flip one bit")
	}
}

func TestFlipSpecApply32(t *testing.T) {
	rng := xrand.New(4)
	s := FlipSpec{Field: floatbits.Sign, Bits: 1}
	if s.Apply32(2.5, rng) != -2.5 {
		t.Fatal("sign flip wrong in float32")
	}
}

func TestFlipSpecApplyChangesValueProperty(t *testing.T) {
	rng := xrand.New(5)
	f := func(v float64, bits uint8) bool {
		if math.IsNaN(v) {
			return true
		}
		s := FlipSpec{Field: floatbits.AnyField, Bits: 1 + int(bits%3)}
		out := s.Apply(v, rng)
		return math.Float64bits(out) != math.Float64bits(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStrikeMultiBit(t *testing.T) {
	cases := []struct {
		energy float64
		want   int
	}{
		{1.0, 1}, {1.4, 1}, {2.0, 2}, {3.5, 3}, {100, 3},
	}
	for _, c := range cases {
		s := Strike{Energy: c.energy}
		if got := s.MultiBitProbability(); got != c.want {
			t.Fatalf("energy %v -> %d bits, want %d", c.energy, got, c.want)
		}
	}
}

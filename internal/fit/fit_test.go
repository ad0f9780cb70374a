package fit

import (
	"math"
	"testing"

	"radcrit/internal/beam"
)

func TestCrossSection(t *testing.T) {
	if CrossSection(10, 1e10) != 1e-9 {
		t.Fatal("cross section wrong")
	}
	if CrossSection(10, 0) != 0 {
		t.Fatal("zero fluence should give 0")
	}
}

func TestFITScaling(t *testing.T) {
	// 1e-9 cm^2 cross-section at 13 n/cm^2/h over 1e9 hours = 13 failures.
	got := FIT(1e-9)
	if math.Abs(got-13) > 1e-9 {
		t.Fatalf("FIT = %v, want 13", got)
	}
}

func TestFITFromCampaign(t *testing.T) {
	exp := beam.Exposure{
		Facility:      beam.LANSCE,
		Board:         beam.Board{Derating: 1},
		BeamHours:     100,
		ExecSeconds:   1,
		SensitiveArea: 1000,
	}
	f := FITFromCampaign(50, exp)
	if f <= 0 {
		t.Fatal("non-positive FIT")
	}
	if FITFromCampaign(100, exp) != 2*f {
		t.Fatal("FIT not linear in error count")
	}
}

func TestConfidenceInterval(t *testing.T) {
	lo, hi := ConfidenceInterval(100, 50, 500)
	if lo >= 100 || hi <= 100 {
		t.Fatalf("interval (%v,%v) should straddle the point estimate", lo, hi)
	}
	lo, hi = ConfidenceInterval(100, 0, 500)
	if lo != 0 || hi != 100 {
		t.Fatal("zero errors should return (0, point)")
	}
}

func TestNormalizer(t *testing.T) {
	n := NewNormalizer(200, 100)
	if n.Apply(200) != 100 || n.Apply(50) != 25 {
		t.Fatal("normalizer wrong")
	}
	id := NewNormalizer(0, 100)
	if id.Apply(7) != 7 {
		t.Fatal("degenerate normalizer should be identity")
	}
}

func TestBreakdown(t *testing.T) {
	b := Breakdown{Labels: []string{"a", "b"}, Values: []float64{3, 7}}
	if b.Total() != 10 {
		t.Fatal("total wrong")
	}
}

package detect

import (
	"testing"
)

func TestEntropyCheck(t *testing.T) {
	if !EntropyCheck(3.0, 3.5, 0.2).Fired {
		t.Fatal("entropy shift not detected")
	}
	if EntropyCheck(3.0, 3.05, 0.2).Fired {
		t.Fatal("noise fired the entropy check")
	}
	// Symmetric in direction.
	if !EntropyCheck(3.5, 3.0, 0.2).Fired {
		t.Fatal("entropy drop not detected")
	}
}

func TestCoverageStats(t *testing.T) {
	var c CoverageStats
	if c.Coverage() != 0 {
		t.Fatal("empty coverage not 0")
	}
	c.Add(true)
	c.Add(true)
	c.Add(false)
	if c.Evaluated != 3 || c.Detected != 2 {
		t.Fatalf("stats wrong: %+v", c)
	}
	if c.Coverage() < 0.66 || c.Coverage() > 0.67 {
		t.Fatalf("coverage = %v", c.Coverage())
	}
}

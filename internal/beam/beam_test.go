package beam

import (
	"math"
	"testing"

	"radcrit/internal/xrand"
)

func TestFacilityFluxes(t *testing.T) {
	// §IV-D: fluxes between 1e5 and 2.5e6 n/cm^2/s, 6-8 orders of
	// magnitude above the natural 13 n/cm^2/h.
	for _, f := range []Facility{LANSCE, ISIS} {
		acc := f.AccelerationFactor()
		if acc < 1e6 || acc > 1e9 {
			t.Fatalf("%s acceleration factor %e outside 10^6..10^9", f.Name, acc)
		}
	}
	if ISIS.Flux <= LANSCE.Flux {
		t.Fatal("ISIS flux should exceed LANSCE's in this configuration")
	}
}

func TestEquivalentNaturalHours(t *testing.T) {
	// 800 device-hours of beam cover ~10^8..10^9 natural hours (§IV-D
	// quotes 8x10^8 hours, about 91,000 years).
	h := LANSCE.EquivalentNaturalHours(800)
	if h < 1e7 || h > 1e11 {
		t.Fatalf("equivalent natural hours %e implausible", h)
	}
}

func exposure() Exposure {
	return Exposure{
		Facility:      LANSCE,
		Board:         Board{Label: "K40-A", Derating: 1},
		BeamHours:     10,
		ExecSeconds:   2,
		SensitiveArea: 10000,
	}
}

func TestExecutions(t *testing.T) {
	e := exposure()
	if e.Executions() != 10*3600/2 {
		t.Fatalf("executions = %d", e.Executions())
	}
}

func TestSingleStrikeRegime(t *testing.T) {
	// §IV-D: experiments tuned so error rates stay below 1e-3
	// errors/execution, keeping double strikes negligible.
	e := exposure().TuneSingleStrike()
	rate := e.StrikeRatePerExec()
	if rate <= 0 {
		t.Fatal("zero strike rate")
	}
	if rate > MaxStrikesPerExecution*(1+1e-9) {
		t.Fatalf("strike rate %e per execution violates the paper's single-strike bound", rate)
	}
}

func TestTuneSingleStrikeOnlyWhenNeeded(t *testing.T) {
	heavy := exposure()
	heavy.SensitiveArea = 1e9 // wildly over the bound
	tuned := heavy.TuneSingleStrike()
	if tuned.StrikeRatePerExec() > MaxStrikesPerExecution*(1+1e-9) {
		t.Fatal("tuning did not cap the rate")
	}
	light := exposure()
	light.SensitiveArea = 1
	if light.TuneSingleStrike() != light {
		t.Fatal("under-bound exposure should be unchanged")
	}
}

func TestDeratingReducesStrikes(t *testing.T) {
	near := exposure()
	far := exposure()
	far.Board.Derating = 0.5
	if far.StrikeRatePerExec() >= near.StrikeRatePerExec() {
		t.Fatal("derating did not reduce the strike rate")
	}
	if far.Fluence() >= near.Fluence() {
		t.Fatal("derating did not reduce fluence")
	}
}

func TestHoursForStrikesRoundTrip(t *testing.T) {
	e := exposure()
	hours := e.HoursForStrikes(100)
	if math.IsInf(hours, 1) || hours <= 0 {
		t.Fatalf("HoursForStrikes = %v", hours)
	}
	e.BeamHours = hours
	mean := e.StrikeRatePerExec() * float64(e.Executions())
	if math.Abs(mean-100) > 2 {
		t.Fatalf("round trip gives %v strikes, want ~100", mean)
	}
}

func TestStrikeEnergyDistribution(t *testing.T) {
	rng := xrand.New(9)
	for i := 0; i < 1000; i++ {
		e := StrikeEnergy(rng)
		if e < 1 {
			t.Fatalf("energy %v below single-bit scale", e)
		}
	}
}

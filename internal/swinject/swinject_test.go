package swinject

import (
	"context"
	"testing"

	"radcrit/internal/campaign"
	"radcrit/internal/fault"
	"radcrit/internal/injector"
	"radcrit/internal/k40"
	"radcrit/internal/kernels/dgemm"
)

func TestAccessible(t *testing.T) {
	for _, r := range AccessibleResources {
		if !Accessible(r) {
			t.Fatalf("%v should be accessible", r)
		}
	}
	for _, r := range []fault.Resource{
		fault.Scheduler, fault.Dispatcher, fault.ControlLogic,
		fault.InstructionPath, fault.FPU, fault.SFU, fault.VectorUnit,
	} {
		if Accessible(r) {
			t.Fatalf("%v must be outside a software injector's reach (§IV-D)", r)
		}
	}
}

func TestRunEstimatesAVF(t *testing.T) {
	c := Run(k40.New(), dgemm.New(128), 300, 1)
	if c.Injections != 300 {
		t.Fatal("injection count wrong")
	}
	if c.Masked+len(c.SDCs) != 300 {
		t.Fatal("outcomes do not add up: an injector sees only masked or SDC")
	}
	if c.AVF <= 0 || c.AVF >= 1 {
		t.Fatalf("AVF = %v; single-bit flips must be partially masked and partially corrupting", c.AVF)
	}
}

func TestRunDeterministic(t *testing.T) {
	a := Run(k40.New(), dgemm.New(128), 100, 7)
	b := Run(k40.New(), dgemm.New(128), 100, 7)
	if a.AVF != b.AVF || len(a.SDCs) != len(b.SDCs) {
		t.Fatal("software injection campaign not reproducible")
	}
}

func TestBlindSpotAgainstBeam(t *testing.T) {
	// Run a real beam campaign and quantify what the injector misses.
	res := campaign.NewTallyReducer()
	if _, err := campaign.RunStreamingCtx(context.Background(), k40.New(), dgemm.New(128), campaign.DefaultConfig(31, 400), res); err != nil {
		t.Fatal(err)
	}
	b := Compare(res.ByResource)
	if b.BeamSDCs != res.Tally.SDC {
		t.Fatal("SDC accounting mismatch")
	}
	if b.BeamDUEs != res.Tally.Crash+res.Tally.Hang {
		t.Fatal("DUE accounting mismatch")
	}
	// §IV-D's argument: the failure modes behind most crashes/hangs live
	// in resources fault injectors cannot reach.
	if b.DUEBlindFraction() < 0.5 {
		t.Fatalf("only %.0f%% of DUEs outside the injector's reach; the paper's point is that most are",
			100*b.DUEBlindFraction())
	}
	// And a real share of SDCs (scheduler/datapath-born) is missed too.
	if b.SDCBlindFraction() <= 0 {
		t.Fatal("beam found no SDCs outside the injector's reach")
	}
}

func TestBlindFractionsEmpty(t *testing.T) {
	var b BlindSpot
	if b.SDCBlindFraction() != 0 || b.DUEBlindFraction() != 0 {
		t.Fatal("empty blind spot should be zero")
	}
}

func TestCompareCounts(t *testing.T) {
	tally := map[fault.Resource]injector.Tally{
		fault.L2Cache:   {SDC: 10, Crash: 1},
		fault.Scheduler: {SDC: 5, Crash: 4, Hang: 2},
	}
	b := Compare(tally)
	if b.BeamSDCs != 15 || b.BeamDUEs != 7 {
		t.Fatalf("totals wrong: %+v", b)
	}
	if b.InaccessibleSDCs != 5 || b.InaccessibleDUEs != 6 {
		t.Fatalf("inaccessible counts wrong: %+v", b)
	}
}

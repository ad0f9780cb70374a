package harden

import (
	"context"
	"strings"
	"testing"

	"radcrit/internal/campaign"
	"radcrit/internal/fault"
	"radcrit/internal/grid"
	"radcrit/internal/injector"
	"radcrit/internal/k40"
	"radcrit/internal/kernels/dgemm"
	"radcrit/internal/metrics"
)

// syntheticAdvice feeds a reducer hand-built SDC outcomes with known
// resources and magnitudes, preceded by a masked strike it must skip.
func syntheticAdvice() Advice {
	dims := grid.Dims{X: 16, Y: 16, Z: 1}
	sdc := func(res fault.Resource, rel float64) injector.Outcome {
		return injector.Outcome{Class: fault.SDC, Resource: res, Report: &metrics.Report{
			Dims: dims, TotalElements: dims.Len(),
			Mismatches: []metrics.Mismatch{{
				Coord: grid.Coord{X: 1, Y: 1}, Read: 100 + rel, Expected: 100,
				RelErrPct: rel,
			}},
		}}
	}
	outs := []injector.Outcome{
		{Class: fault.Masked, Resource: fault.FPU},
		sdc(fault.Scheduler, 50), sdc(fault.Scheduler, 50), sdc(fault.Scheduler, 50), // scheduler: 3 critical
		sdc(fault.L2Cache, 50), sdc(fault.L2Cache, 50), // l2: 2 critical
		sdc(fault.L2Cache, 0.5), // l2: sub-threshold
		sdc(fault.FPU, 50),      // fpu: 1 critical
	}
	r := NewReducer(2)
	for i, out := range outs {
		r.Consume(i, out)
	}
	return r.Advise("K40", "DGEMM", "16x16")
}

func TestAdviseRanksByCriticality(t *testing.T) {
	adv := syntheticAdvice()
	if adv.TotalCriticalSDCs != 6 {
		t.Fatalf("critical SDCs = %d, want 6 (sub-threshold run excluded)", adv.TotalCriticalSDCs)
	}
	if len(adv.Rankings) != 3 {
		t.Fatalf("rankings = %d", len(adv.Rankings))
	}
	if adv.Rankings[0].Resource != fault.Scheduler || adv.Rankings[0].CriticalSDCs != 3 {
		t.Fatalf("top resource wrong: %+v", adv.Rankings[0])
	}
	if adv.Rankings[0].Share != 0.5 {
		t.Fatalf("top share = %v", adv.Rankings[0].Share)
	}
	last := adv.Rankings[len(adv.Rankings)-1]
	if last.CumulativeShare != 1 {
		t.Fatalf("cumulative share must end at 1: %v", last.CumulativeShare)
	}
}

func TestTopResources(t *testing.T) {
	adv := syntheticAdvice()
	top := adv.TopResources(0.5)
	if len(top) != 1 || top[0] != fault.Scheduler {
		t.Fatalf("50%% target should need only the scheduler: %v", top)
	}
	top = adv.TopResources(0.8)
	if len(top) != 2 {
		t.Fatalf("80%% target should need two resources: %v", top)
	}
	if len(adv.TopResources(1.0)) != 3 {
		t.Fatal("full coverage needs all three")
	}
}

func TestProjectedCriticalSDCs(t *testing.T) {
	adv := syntheticAdvice()
	if got := adv.ProjectedCriticalSDCs(fault.Scheduler); got != 3 {
		t.Fatalf("hardening the scheduler leaves %d, want 3", got)
	}
	if got := adv.ProjectedCriticalSDCs(fault.Scheduler, fault.L2Cache, fault.FPU); got != 0 {
		t.Fatalf("hardening everything leaves %d", got)
	}
	if got := adv.ProjectedCriticalSDCs(); got != 6 {
		t.Fatal("hardening nothing should change nothing")
	}
}

func TestStringRendering(t *testing.T) {
	s := syntheticAdvice().String()
	for _, want := range []string{"selective hardening plan", "scheduler", "cumulative"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
}

func TestAdviseOnRealCampaign(t *testing.T) {
	r := NewReducer(2)
	info, err := campaign.RunStreamingCtx(context.Background(), k40.New(), dgemm.New(128), campaign.DefaultConfig(21, 300), r)
	if err != nil {
		t.Fatal(err)
	}
	adv := r.Advise(info.Device, info.Kernel, info.Input)
	if adv.TotalCriticalSDCs == 0 {
		t.Fatal("no critical SDCs in a 300-strike campaign")
	}
	// Attribution must be complete and consistent.
	var sum int
	for _, r := range adv.Rankings {
		sum += r.CriticalSDCs
	}
	if sum != adv.TotalCriticalSDCs {
		t.Fatalf("rankings sum %d != total %d", sum, adv.TotalCriticalSDCs)
	}
	// Hardening every listed resource removes every critical SDC.
	all := make([]fault.Resource, len(adv.Rankings))
	for i, r := range adv.Rankings {
		all[i] = r.Resource
	}
	if adv.ProjectedCriticalSDCs(all...) != 0 {
		t.Fatal("full hardening left residual critical SDCs")
	}
}

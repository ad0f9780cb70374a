// Package harden implements the paper's proposed future work (§VI):
// "apply selective hardening to only those procedures, variables, or
// resources whose corruption is likely to produce the observed critical
// errors."
//
// Fed a campaign's outcome stream, a Reducer attributes every critical
// (above-threshold) SDC to its struck resource; Advise then ranks the
// resources by their contribution and projects the FIT reduction of
// hardening each cumulatively — the information a designer needs to
// decide where duplication, ECC or checking effort pays off.
package harden

import (
	"fmt"
	"sort"
	"strings"

	"radcrit/internal/fault"
	"radcrit/internal/injector"
)

// ResourceImpact is one resource's contribution to critical SDCs.
type ResourceImpact struct {
	// Resource is the struck structure.
	Resource fault.Resource
	// CriticalSDCs is the number of above-threshold SDCs it caused.
	CriticalSDCs int
	// Share is its fraction of all critical SDCs.
	Share float64
	// CumulativeShare is the fraction removed by hardening this resource
	// and every higher-ranked one.
	CumulativeShare float64
}

// Advice is a ranked selective-hardening plan.
type Advice struct {
	Device       string
	Kernel       string
	Input        string
	ThresholdPct float64
	// TotalCriticalSDCs is the critical SDC count before hardening.
	TotalCriticalSDCs int
	// Rankings orders resources by descending criticality contribution.
	Rankings []ResourceImpact
}

// Reducer counts a campaign's critical SDCs per struck resource as the
// outcomes stream past; its Consume method makes it a campaign sink.
type Reducer struct {
	thresholdPct float64
	total        int
	counts       map[fault.Resource]int
}

// NewReducer returns an empty reducer under the given imprecision
// threshold (thresholdPct <= 0 counts every SDC as critical).
func NewReducer(thresholdPct float64) *Reducer {
	return &Reducer{thresholdPct: thresholdPct, counts: make(map[fault.Resource]int)}
}

// Consume counts an SDC outcome against its resource when it survives
// the threshold filter.
func (r *Reducer) Consume(_ int, out injector.Outcome) {
	if out.Class != fault.SDC {
		return
	}
	eff := out.Report
	if r.thresholdPct > 0 {
		eff = eff.Filter(r.thresholdPct)
	}
	if !eff.IsSDC() {
		return
	}
	r.counts[out.Resource]++
	r.total++
}

// Advise ranks the counted resources into a hardening plan for the named
// campaign cell.
func (r *Reducer) Advise(device, kernel, input string) Advice {
	adv := Advice{
		Device:            device,
		Kernel:            kernel,
		Input:             input,
		ThresholdPct:      r.thresholdPct,
		TotalCriticalSDCs: r.total,
	}
	for res, c := range r.counts {
		adv.Rankings = append(adv.Rankings, ResourceImpact{Resource: res, CriticalSDCs: c})
	}
	sort.Slice(adv.Rankings, func(i, j int) bool {
		if adv.Rankings[i].CriticalSDCs != adv.Rankings[j].CriticalSDCs {
			return adv.Rankings[i].CriticalSDCs > adv.Rankings[j].CriticalSDCs
		}
		return adv.Rankings[i].Resource < adv.Rankings[j].Resource
	})
	cum := 0
	for i := range adv.Rankings {
		cum += adv.Rankings[i].CriticalSDCs
		if adv.TotalCriticalSDCs > 0 {
			adv.Rankings[i].Share = float64(adv.Rankings[i].CriticalSDCs) / float64(adv.TotalCriticalSDCs)
			adv.Rankings[i].CumulativeShare = float64(cum) / float64(adv.TotalCriticalSDCs)
		}
	}
	return adv
}

// TopResources returns the smallest resource set whose hardening removes
// at least the target fraction of critical SDCs.
func (a Advice) TopResources(targetFraction float64) []fault.Resource {
	var out []fault.Resource
	for _, r := range a.Rankings {
		out = append(out, r.Resource)
		if r.CumulativeShare >= targetFraction {
			break
		}
	}
	return out
}

// ProjectedCriticalSDCs returns the critical SDC count remaining after
// hardening the given resources (their silent corruptions are assumed
// detected-and-corrected, i.e. removed).
func (a Advice) ProjectedCriticalSDCs(hardened ...fault.Resource) int {
	set := make(map[fault.Resource]bool, len(hardened))
	for _, r := range hardened {
		set[r] = true
	}
	remaining := a.TotalCriticalSDCs
	for _, imp := range a.Rankings {
		if set[imp.Resource] {
			remaining -= imp.CriticalSDCs
		}
	}
	return remaining
}

// String renders the plan as a table.
func (a Advice) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "selective hardening plan for %s %s %s (filter >%.2g%%, %d critical SDCs):\n",
		a.Device, a.Kernel, a.Input, a.ThresholdPct, a.TotalCriticalSDCs)
	for i, r := range a.Rankings {
		fmt.Fprintf(&sb, "  %d. %-16s %3d critical SDCs (%5.1f%%, cumulative %5.1f%%)\n",
			i+1, r.Resource, r.CriticalSDCs, 100*r.Share, 100*r.CumulativeShare)
	}
	return sb.String()
}

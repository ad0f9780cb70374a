// Quickstart: define a small beam campaign of DGEMM on both devices as a
// declarative plan, run each of its cells, then apply the paper's
// criticality methodology — incorrect elements, mean relative error,
// spatial locality — under the 2% imprecision filter, and compare the
// architectures.
package main

import (
	"fmt"
	"os"

	"radcrit"
)

func main() {
	const (
		strikes = 300
		seed    = 42
	)

	fmt.Println("radcrit quickstart: DGEMM under simulated neutron beam")
	fmt.Println()

	// A campaign is data: cells named by registry specs, plus the
	// statistical configuration. The same plan serialises to JSON
	// (radcrit.SavePlan) and runs from any cmd/ tool via -plan.
	plan := radcrit.NewPlan(seed, strikes).
		Named("quickstart").
		WithKernelOnDevices("dgemm:256", "k40", "phi").
		WithThresholds(0, radcrit.DefaultThresholdPct)

	// Every analysis below is a reducer fed by the cell's outcome stream:
	// each cell runs once, and no SDC report outlives its strike.
	cells, err := plan.Build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
		os.Exit(1)
	}

	profiles := map[string]*radcrit.Criticality{}
	var advice radcrit.HardeningAdvice
	for i, cell := range cells {
		// The paper's DGEMM figures cap per-element relative errors at
		// 100% for readability (Fig. 2); do the same here.
		opts := radcrit.DefaultAnalysisOptions()
		opts.CapPct = 100
		acc := radcrit.NewSummaryAccumulator(plan.EffectiveThresholds())
		crit := radcrit.NewCriticalityReducer(opts)
		hard := radcrit.NewHardeningReducer(radcrit.DefaultThresholdPct)
		info, err := radcrit.RunCampaignStreaming(cell.Dev, cell.Kern, plan.Config(), acc, crit, hard)
		if err != nil {
			fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
			os.Exit(1)
		}
		if i == 0 {
			advice = radcrit.AdviseHardening(info, hard)
		}
		sum := acc.Summary(info)
		t := sum.Tally
		fmt.Printf("%s: %d strikes -> %d masked, %d SDC, %d crash, %d hang (SDC:DUE %.2f)\n",
			info.Device, info.Strikes, t.Masked, t.SDC, t.Crash, t.Hang, t.SDCToDUERatio())

		profile := crit.Criticality()
		fmt.Print(profile)
		fmt.Println()

		profiles[info.Device] = profile

		// Render the Figure-3-style locality breakdown for this device.
		radcrit.RenderLocality(os.Stdout, info, sum)
		fmt.Println()
	}

	fmt.Println("cross-architecture verdict (§V-E):")
	fmt.Println(radcrit.Verdict("K40", profiles["K40"], "XeonPhi", profiles["XeonPhi"]))
	fmt.Println()

	// The paper's proposed follow-up (§VI): find the resources behind the
	// critical errors and harden only those, from the K40 cell's stream.
	fmt.Print(advice)
}

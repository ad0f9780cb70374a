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

	// The analysis below needs every SDC's report, so each cell runs
	// through RunCampaign, which returns a report-retaining Result.
	cells, err := plan.Build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
		os.Exit(1)
	}

	profiles := map[string]*radcrit.Criticality{}
	var results []*radcrit.Result
	for _, cell := range cells {
		r := radcrit.RunCampaign(cell.Dev, cell.Kern, plan.Config())
		results = append(results, r)
		fmt.Printf("%s: %d strikes -> %d masked, %d SDC, %d crash, %d hang (SDC:DUE %.2f)\n",
			r.Device, r.Strikes,
			r.Tally.Masked, r.Tally.SDC, r.Tally.Crash, r.Tally.Hang,
			r.Tally.SDCToDUERatio())

		// The paper's DGEMM figures cap per-element relative errors at
		// 100% for readability (Fig. 2); do the same here.
		opts := radcrit.DefaultAnalysisOptions()
		opts.CapPct = 100
		crit := radcrit.Analyze(r.Reports, opts)
		fmt.Print(crit)
		fmt.Println()

		profiles[r.Device] = crit

		// Render the Figure-3-style locality breakdown for this device.
		radcrit.RenderLocality(os.Stdout, r, radcrit.DefaultThresholdPct)
		fmt.Println()
	}

	fmt.Println("cross-architecture verdict (§V-E):")
	fmt.Println(radcrit.Verdict("K40", profiles["K40"], "XeonPhi", profiles["XeonPhi"]))
	fmt.Println()

	// The paper's proposed follow-up (§VI): find the resources behind the
	// critical errors and harden only those, from the K40 cell's retained
	// reports.
	fmt.Print(radcrit.AdviseHardening(results[0], radcrit.DefaultThresholdPct))
}

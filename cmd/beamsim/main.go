// Command beamsim runs simulated neutron-beam campaign cells — a device,
// a kernel, an input size, a strike budget — and writes the CAROL-style
// log plus a summary, mirroring what a real LANSCE/ISIS slot produces.
//
// Cells come either from the shared registry flags or from a declarative
// plan file:
//
//	beamsim -device k40 -kernel dgemm:256 -strikes 300 [-seed S] [-o campaign.log]
//	beamsim -plan plan.json
//	beamsim -plan plan.json -adaptive-target 0.05
//
// A single-cell run writes its campaign log to stdout (or -o); multi-cell
// plans print one summary per cell.
//
// -adaptive-target (or an "adaptive" block in the plan file) switches to
// the early-stopping engine: each cell stops as soon as the anytime-valid
// confidence interval for its SDC proportion is tighter than the target
// half-width, freed strikes are re-dealt to the widest-interval cells,
// and the summary reports consumed vs planned strikes. Runs stay
// deterministic: the same plan always stops at the same strike counts.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"radcrit"
	"radcrit/internal/cli"
)

func main() {
	shared := cli.CampaignFlags{Device: "k40", Kernel: "dgemm", Strikes: 300, Seed: 1, Scale: "test"}
	shared.Bind(flag.CommandLine, true)
	var adaptive cli.AdaptiveFlags
	adaptive.Bind(flag.CommandLine)
	var prof cli.ProfileFlags
	prof.Bind(flag.CommandLine)
	var submit cli.SubmitFlags
	submit.Bind(flag.CommandLine)
	out := flag.String("o", "", "log output path for single-cell runs (default stdout)")
	showVersion := cli.VersionFlag(flag.CommandLine)
	flag.Parse()
	cli.ExitIfVersion(*showVersion)

	plan, err := shared.ResolvePlan()
	if err != nil {
		cli.Fatal("beamsim", "%v", err)
	}
	if err := adaptive.Apply(plan); err != nil {
		cli.Fatal("beamsim", "%v", err)
	}
	if submit.Active() {
		// Client mode: the campaign runs on a radcritd daemon (sharing
		// its result store with every other client) and only the
		// summaries come back — there is no local log to write.
		if *out != "" {
			cli.Fatal("beamsim", "-o is not available with -submit (the daemon keeps no per-strike log)")
		}
		res, err := submit.Run(context.Background(), plan)
		if err != nil {
			cli.Fatal("beamsim", "%v", err)
		}
		cli.PrintJobSummaries(os.Stderr, res)
		return
	}
	if err := prof.Start(); err != nil {
		cli.Fatal("beamsim", "start profiling: %v", err)
	}
	if *out != "" && len(plan.Cells) != 1 {
		cli.Fatal("beamsim", "-o needs a single-cell plan (got %d cells)", len(plan.Cells))
	}

	if plan.Adaptive != nil {
		runAdaptive(plan, *out)
	} else {
		runBatch(plan, *out)
	}
	if err := prof.Stop(); err != nil {
		cli.Fatal("beamsim", "write profile: %v", err)
	}
}

// runBatch is the classic fixed-budget path: one report-retaining Result
// per cell, and the public log rebuilt from the result.
func runBatch(plan *radcrit.Plan, out string) {
	cells, err := plan.Build()
	if err != nil {
		cli.Fatal("beamsim", "%v", err)
	}
	cfg := plan.Config()
	var res *radcrit.Result
	for _, cell := range cells {
		res = radcrit.RunCampaign(cell.Dev, cell.Kern, cfg)
		summarize(res)
	}
	if len(cells) == 1 {
		w := os.Stdout
		if out != "" {
			f, err := os.Create(out)
			if err != nil {
				cli.Fatal("beamsim", "create log: %v", err)
			}
			defer f.Close()
			w = f
		}
		if err := radcrit.WriteLog(w, res, plan.Seed); err != nil {
			cli.Fatal("beamsim", "write log: %v", err)
		}
	}
}

// runAdaptive executes a plan carrying an early-stopping spec through
// the adaptive engine. The checkpoint log (with its #CHK and #EPOCH
// records) is streamed during the run, so single-cell runs still honour
// -o / stdout; summaries report consumed vs planned strikes.
func runAdaptive(plan *radcrit.Plan, out string) {
	r := radcrit.NewAdaptiveRunner()
	if len(plan.Cells) == 1 {
		r.Logs = func(int, radcrit.CellSpec) (io.WriteCloser, error) {
			if out == "" {
				return nopCloser{os.Stdout}, nil
			}
			return os.Create(out)
		}
	}
	res, err := r.Run(context.Background(), plan)
	if err != nil {
		cli.Fatal("beamsim", "%v", err)
	}
	for _, cell := range res.Cells {
		summarizeStream(cell, plan.Strikes)
	}
}

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }

// summarizeStream renders an adaptive cell from its streaming info and
// summary (there is no retained Result on this path). Consumed
// strikes are reported against the plan's per-cell budget: fewer means
// the confidence target stopped the cell early, more means reallocation
// granted it strikes other cells freed.
func summarizeStream(cell *radcrit.CellOutcome, planned int) {
	if cell.Err != nil {
		fmt.Fprintf(os.Stderr, "campaign: %s %s: %v\n", cell.Spec.Device, cell.Spec.Kernel, cell.Err)
		return
	}
	info, sum := cell.Info, cell.Summary
	fmt.Fprintf(os.Stderr, "campaign: %s %s %s\n", info.Device, info.Kernel, info.Input)
	fmt.Fprintf(os.Stderr, "  strikes:   %d consumed of %d planned over %.1f simulated beam hours\n",
		info.Strikes, planned, info.Exposure.BeamHours)
	if saved := planned - info.Strikes; saved > 0 {
		fmt.Fprintf(os.Stderr, "  early stop: confidence target reached, %d strikes freed\n", saved)
	}
	fmt.Fprintf(os.Stderr, "  outcomes:  %d masked, %d SDC, %d crash, %d hang\n",
		sum.Tally.Masked, sum.Tally.SDC, sum.Tally.Crash, sum.Tally.Hang)
	fmt.Fprintf(os.Stderr, "  SDC:DUE:   %.2f\n", sum.Tally.SDCToDUERatio())
	for k, th := range sum.Thresholds {
		fmt.Fprintf(os.Stderr, "  SDC FIT (>%g%%): %.3g a.u.\n", th, sum.SDCFIT[k])
	}
	fmt.Fprintf(os.Stderr, "  natural-equivalent exposure: %.3g hours\n",
		info.Exposure.Facility.EquivalentNaturalHours(info.Exposure.BeamHours))
}

func summarize(res *radcrit.Result) {
	fmt.Fprintf(os.Stderr, "campaign: %s %s %s\n", res.Device, res.Kernel, res.Input)
	fmt.Fprintf(os.Stderr, "  strikes:   %d over %.1f simulated beam hours\n",
		res.Strikes, res.Exposure.BeamHours)
	fmt.Fprintf(os.Stderr, "  outcomes:  %d masked, %d SDC, %d crash, %d hang\n",
		res.Tally.Masked, res.Tally.SDC, res.Tally.Crash, res.Tally.Hang)
	fmt.Fprintf(os.Stderr, "  SDC:DUE:   %.2f\n", res.Tally.SDCToDUERatio())
	fmt.Fprintf(os.Stderr, "  SDC FIT:   %.3g a.u. (all), %.3g a.u. (>2%%)\n",
		res.SDCFIT(0), res.SDCFIT(2))
	fmt.Fprintf(os.Stderr, "  natural-equivalent exposure: %.3g hours\n",
		res.Exposure.Facility.EquivalentNaturalHours(res.Exposure.BeamHours))
}

// Command figures regenerates every table and figure of the paper's
// evaluation section (§V) from simulated beam campaigns.
//
// Usage:
//
//	figures [-scale test|paper] [-strikes N] [-seed S] [-only ID[,ID...]]
//	        [-maxpoints N] [-plan plan.json]
//
// IDs: T1 T2 F2 F3 F4 F5 F6 F7 F8 F9 S1 S2 S3 S4 X1 (see DESIGN.md §3); an
// unknown ID is an error (exit 2). The test scale runs the full set in
// tens of seconds; the paper scale uses Table II input sizes and takes
// considerably longer.
//
// The beam artifacts (F2-F9, S1-S4 and X1's beam side) render from one
// shared pass of the streaming engine (DESIGN.md §6): every distinct cell
// the selected artifacts read runs exactly once, all cells concurrently,
// and memory stays O(reducer state) per cell — scatter figures keep a
// -maxpoints reservoir per input.
//
// -plan takes the campaign configuration (seed, strikes, workers,
// facility) from a declarative plan file instead of the flags; the
// artifact set and its cells still follow -scale/-only.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"radcrit/internal/arch"
	"radcrit/internal/campaign"
	"radcrit/internal/cli"
	"radcrit/internal/kernels"
	"radcrit/internal/registry"
	"radcrit/internal/report"
	"radcrit/internal/swinject"
)

func main() {
	scaleFlag := flag.String("scale", "test", "experiment scale: test or paper")
	strikes := flag.Int("strikes", 400, "strikes per experiment cell")
	seed := flag.Uint64("seed", 2017, "campaign seed")
	only := flag.String("only", "", "comma-separated artifact IDs (default: all)")
	maxPoints := flag.Int("maxpoints", 4096, "scatter reservoir size per input (0 keeps every point)")
	planPath := flag.String("plan", "", "JSON plan `file` supplying seed/strikes/workers/facility")
	var adaptiveF cli.AdaptiveFlags
	adaptiveF.Bind(flag.CommandLine)
	var prof cli.ProfileFlags
	prof.Bind(flag.CommandLine)
	var submit cli.SubmitFlags
	submit.Bind(flag.CommandLine)
	showVersion := cli.VersionFlag(flag.CommandLine)
	flag.Parse()
	cli.ExitIfVersion(*showVersion)
	if submit.Active() {
		// Client mode: run the -plan campaign on a radcritd daemon and
		// print its per-cell summaries. Artifact rendering needs the
		// figure pass's reducer bundles, so it stays an in-process concern.
		if *planPath == "" {
			cli.Fatal("figures", "-submit needs -plan (the daemon runs plan documents, not artifact sets)")
		}
		plan, err := cli.LoadPlanFile(*planPath)
		if err != nil {
			cli.Fatal("figures", "%v", err)
		}
		// The daemon honours early stopping per cell, so the adaptive
		// flags ride along in client mode.
		if err := adaptiveF.Apply(plan); err != nil {
			cli.Fatal("figures", "%v", err)
		}
		res, err := submit.Run(context.Background(), plan)
		if err != nil {
			cli.Fatal("figures", "%v", err)
		}
		cli.PrintJobSummaries(os.Stdout, res)
		return
	}
	if adaptiveF.Active() {
		fmt.Fprintln(os.Stderr, "figures: the adaptive flags only apply in -submit mode; local artifact generation uses fixed budgets so every figure reads the full strike count")
	}

	scale := campaign.TestScale
	switch *scaleFlag {
	case "test":
	case "paper":
		scale = campaign.PaperScale
	default:
		fmt.Fprintln(os.Stderr, "figures: -scale must be test or paper")
		os.Exit(2)
	}
	cfg := campaign.DefaultConfig(*seed, *strikes)
	if *planPath != "" {
		plan, err := cli.LoadPlanFile(*planPath)
		if err != nil {
			cli.Fatal("figures", "%v", err)
		}
		cfg = plan.Config()
		if cfg.Adaptive != nil {
			fmt.Fprintln(os.Stderr, "figures: ignoring the plan's adaptive spec; local artifact generation uses fixed budgets")
			cfg.Adaptive = nil
		}
	}

	arts := artifacts(scale, cfg, mustDevice("k40"), mustDevice("phi"))
	selected, err := selectArtifacts(arts, *only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(2)
	}
	if err := prof.Start(); err != nil {
		cli.Fatal("figures", "start profiling: %v", err)
	}

	// One concurrent pass over every distinct cell the selection reads;
	// the renderers below are then pure functions of its reducer bundles,
	// so output stays serial and ordered while the compute ran wide.
	data, err := campaign.RunFigurePass(passCells(selected), cfg, *maxPoints)
	if err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(1)
	}
	w := os.Stdout
	for _, a := range selected {
		header(w, a.title)
		a.render(w, data)
	}

	if err := prof.Stop(); err != nil {
		cli.Fatal("figures", "write profile: %v", err)
	}
}

// artifact is one table or figure of the evaluation: the cells it reads
// from the shared figure pass (nil for the static tables, which read
// none) and its renderer.
type artifact struct {
	id, title string
	cells     func() []campaign.Cell
	render    func(w io.Writer, d *campaign.FigureData)
}

// artifacts returns every artifact in output order.
func artifacts(scale campaign.Scale, cfg campaign.Config, k40Dev, phiDev arch.Device) []artifact {
	devs := []arch.Device{k40Dev, phiDev}
	dgemm := func(dev arch.Device) []campaign.Cell { return campaign.DGEMMCells(dev, scale) }
	lavamd := func(dev arch.Device) []campaign.Cell { return campaign.LavaMDCells(dev, scale) }
	hotspot := func(dev arch.Device) []campaign.Cell {
		return []campaign.Cell{{Dev: dev, Kern: campaign.HotSpotKernel(scale)}}
	}
	all := func(dev arch.Device) []campaign.Cell { return campaign.DeviceCells(dev, scale) }
	clamrPhi := func() []campaign.Cell {
		return []campaign.Cell{{Dev: phiDev, Kern: campaign.CLAMRKernel(scale)}}
	}
	x1Cell := func() campaign.Cell {
		return campaign.Cell{Dev: k40Dev, Kern: mustKernel(cli.DefaultSpec("dgemm", scale, k40Dev))}
	}

	// onBoth lists a per-device cell set for both devices; perDevice
	// renders one block per device, each followed by a blank line.
	onBoth := func(cells func(arch.Device) []campaign.Cell) func() []campaign.Cell {
		return func() []campaign.Cell {
			var out []campaign.Cell
			for _, dev := range devs {
				out = append(out, cells(dev)...)
			}
			return out
		}
	}
	perDevice := func(block func(w io.Writer, d *campaign.FigureData, dev arch.Device)) func(io.Writer, *campaign.FigureData) {
		return func(w io.Writer, d *campaign.FigureData) {
			for _, dev := range devs {
				block(w, d, dev)
				fmt.Fprintln(w)
			}
		}
	}
	scatter := func(cells func(arch.Device) []campaign.Cell) func(io.Writer, *campaign.FigureData) {
		return perDevice(func(w io.Writer, d *campaign.FigureData, dev arch.Device) {
			report.Scatter(w, d.Scatter(cells(dev)), 64, 16)
		})
	}
	locality := func(cells func(arch.Device) []campaign.Cell) func(io.Writer, *campaign.FigureData) {
		return perDevice(func(w io.Writer, d *campaign.FigureData, dev arch.Device) {
			report.LocalityBars(w, d.Locality(cells(dev)), 60)
		})
	}

	return []artifact{
		{id: "T1", title: "Table I — classification of parallel kernels",
			render: func(w io.Writer, _ *campaign.FigureData) {
				t := &report.Table{Header: []string{"kernel", "bound by", "load balance", "memory access"}}
				for _, k := range campaign.AllKernels(scale, k40Dev) {
					c := k.Class()
					t.Add(k.Name(), c.BoundBy, c.LoadBalance, c.MemoryAccess)
				}
				t.Render(w)
			}},
		{id: "T2", title: "Table II — parallel kernels' details",
			render: func(w io.Writer, _ *campaign.FigureData) {
				t := &report.Table{Header: []string{"kernel", "domain", "input size", "#threads (K40)", "#threads (Phi)"}}
				for i, k := range campaign.AllKernels(scale, k40Dev) {
					pk := k.Profile(k40Dev)
					pp := campaign.AllKernels(scale, phiDev)[i].Profile(phiDev)
					t.Add(k.Name(), k.Domain(), k.InputLabel(),
						fmt.Sprint(pk.Threads), fmt.Sprint(pp.Threads))
				}
				t.Render(w)
			}},
		{id: "F2", title: "Figure 2 — DGEMM mean relative error vs incorrect elements",
			cells: onBoth(dgemm), render: scatter(dgemm)},
		{id: "F3", title: "Figure 3 — DGEMM spatial locality and magnitude (FIT a.u.)",
			cells: onBoth(dgemm), render: locality(dgemm)},
		{id: "F4", title: "Figure 4 — LavaMD mean relative error vs incorrect elements",
			cells: onBoth(lavamd), render: scatter(lavamd)},
		{id: "F5", title: "Figure 5 — LavaMD spatial locality and magnitude (FIT a.u.)",
			cells: onBoth(lavamd), render: locality(lavamd)},
		{id: "F6", title: "Figure 6 — HotSpot mean relative error vs incorrect elements",
			cells: onBoth(hotspot), render: scatter(hotspot)},
		{id: "F7", title: "Figure 7 — HotSpot spatial locality and magnitude (FIT a.u.)",
			cells: onBoth(hotspot), render: locality(hotspot)},
		{id: "F8", title: "Figure 8 — CLAMR mean relative error vs incorrect elements (Xeon Phi)",
			cells: clamrPhi,
			render: func(w io.Writer, d *campaign.FigureData) {
				report.Scatter(w, d.Scatter(clamrPhi()), 64, 16)
			}},
		{id: "F9", title: "Figure 9 — CLAMR error locality map",
			cells: clamrPhi,
			render: func(w io.Writer, d *campaign.FigureData) {
				report.LocalityMap(w, d.LocalityMap(clamrPhi()[0]), 64)
			}},
		{id: "S1", title: "§V preamble — SDC : crash+hang ratios",
			cells: onBoth(all),
			render: func(w io.Writer, d *campaign.FigureData) {
				report.Ratios(w, d.Ratios(onBoth(all)()))
			}},
		{id: "S2", title: "§V-A — DGEMM FIT growth with input size",
			cells: onBoth(dgemm),
			render: perDevice(func(w io.Writer, d *campaign.FigureData, dev arch.Device) {
				report.Scaling(w, d.Scaling(dgemm(dev)))
			})},
		{id: "S3", title: "§V-A — ABFT-correctable share of DGEMM errors",
			cells: onBoth(dgemm),
			render: perDevice(func(w io.Writer, d *campaign.FigureData, dev arch.Device) {
				report.ABFT(w, d.ABFTCoverage(dgemm(dev)))
			})},
		{id: "S4", title: "§V-D — CLAMR mass-conservation check coverage",
			cells: clamrPhi,
			render: func(w io.Writer, d *campaign.FigureData) {
				report.MassCheck(w, d.MassCheck(clamrPhi()[0]))
			}},
		{id: "X1", title: "Extension: §IV-D — beam vs software fault injector",
			cells: func() []campaign.Cell { return []campaign.Cell{x1Cell()} },
			render: func(w io.Writer, d *campaign.FigureData) {
				cell := x1Cell()
				blind := swinject.Compare(d.ResourceTally(cell))
				sw := swinject.Run(k40Dev, cell.Kern, cfg.Strikes, cfg.Seed)
				fmt.Fprintf(w, "K40 DGEMM %s, %d beam strikes vs %d software injections\n",
					cell.Kern.InputLabel(), cfg.Strikes, cfg.Strikes)
				fmt.Fprintf(w, "  software-injector AVF estimate: %.2f\n", sw.AVF)
				fmt.Fprintf(w, "  beam SDCs outside the injector's reach: %d/%d (%.0f%%)\n",
					blind.InaccessibleSDCs, blind.BeamSDCs, 100*blind.SDCBlindFraction())
				fmt.Fprintf(w, "  beam crashes+hangs outside its reach:   %d/%d (%.0f%%)\n",
					blind.InaccessibleDUEs, blind.BeamDUEs, 100*blind.DUEBlindFraction())
				fmt.Fprintln(w, "  (the paper's §IV-D argument for beam time: schedulers, dispatchers")
				fmt.Fprintln(w, "   and control logic are inaccessible to software injectors)")
			}},
	}
}

// selectArtifacts resolves the -only list against arts, keeping output
// order. An empty list selects everything; an unknown ID is an error
// naming the valid IDs, with a did-you-mean when one is close.
func selectArtifacts(arts []artifact, only string) ([]artifact, error) {
	if strings.TrimSpace(only) == "" {
		return arts, nil
	}
	ids := make([]string, len(arts))
	for i, a := range arts {
		ids[i] = a.id
	}
	want := map[string]bool{}
	for _, raw := range strings.Split(only, ",") {
		id := strings.ToUpper(strings.TrimSpace(raw))
		if id == "" {
			continue
		}
		if !slices.Contains(ids, id) {
			msg := fmt.Sprintf("unknown artifact ID %q", raw)
			if s, ok := registry.Suggest(id, ids); ok {
				msg += fmt.Sprintf(" — did you mean %q?", s)
			}
			return nil, fmt.Errorf("%s (valid IDs: %s)", msg, strings.Join(ids, " "))
		}
		want[id] = true
	}
	var sel []artifact
	for _, a := range arts {
		if want[a.id] {
			sel = append(sel, a)
		}
	}
	return sel, nil
}

// passCells is the union of the cells the selected artifacts read from
// the shared pass; RunFigurePass runs each distinct one once.
func passCells(sel []artifact) []campaign.Cell {
	var cells []campaign.Cell
	for _, a := range sel {
		if a.cells != nil {
			cells = append(cells, a.cells()...)
		}
	}
	return cells
}

func mustDevice(name string) arch.Device {
	dev, err := registry.NewDevice(name)
	if err != nil {
		cli.Fatal("figures", "%v", err)
	}
	return dev
}

func mustKernel(spec string) kernels.Kernel {
	kern, err := registry.NewKernel(spec)
	if err != nil {
		cli.Fatal("figures", "%v", err)
	}
	return kern
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n================================================================\n%s\n================================================================\n", title)
}

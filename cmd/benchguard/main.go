// Command benchguard gates CI on the strike hot path's performance
// budgets: it reads `go test -bench -benchmem` output on stdin and
// compares each benchmark against the baselines recorded in
// BENCH_campaign.json (strike_hot_path.benchmarks.<name>).
//
// Two budgets are enforced:
//
//   - allocs/op against allocs_op, failing past -max-factor (default 2)
//     times baseline. Allocation counts are deterministic, so this guard
//     runs on any host.
//   - ns/op against ns_op, failing past -ns-factor (default 1.5) times
//     baseline. Wall time is only comparable on hardware resembling the
//     baseline host, so the ns guard is skipped (with a note) whenever
//     runtime.NumCPU() differs from the recorded host.cores.
//
// A baselined benchmark missing from the run always fails. Beyond the
// standard library the tool depends only on the shared cli version
// helper, so the CI job stays a plain `go run ./cmd/benchguard`.
//
//	go test -bench='BenchmarkStrike|BenchmarkInjected' -benchmem -run='^$' . |
//	    go run ./cmd/benchguard -baseline BENCH_campaign.json
//
// -emit-multicore switches the tool into a record emitter instead of a
// guard: it reads `go test -bench=BenchmarkCampaignMulticore` output and
// prints the `multicore` JSON record for BENCH_campaign.json — per-cell
// ns/op by worker count plus the parallel speedup at the highest worker
// count, stamped with this host's shape so a 1-core record can never be
// mistaken for a scaling demonstration.
//
//	go test -bench=BenchmarkCampaignMulticore -benchtime=1x -run='^$' . |
//	    go run ./cmd/benchguard -emit-multicore
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"radcrit/internal/cli"
)

// baselineFile mirrors the slice of BENCH_campaign.json the guard reads.
type baselineFile struct {
	Host struct {
		Cores int `json:"cores"`
	} `json:"host"`
	StrikeHotPath struct {
		Benchmarks map[string]struct {
			NsOp     float64 `json:"ns_op"`
			AllocsOp float64 `json:"allocs_op"`
		} `json:"benchmarks"`
	} `json:"strike_hot_path"`
}

// benchResult is one parsed benchmark line.
type benchResult struct {
	NsOp      float64
	AllocsOp  float64
	HasAllocs bool
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_campaign.json", "JSON `file` holding strike_hot_path.benchmarks baselines")
	maxFactor := flag.Float64("max-factor", 2, "fail when allocs/op exceeds factor x baseline")
	nsFactor := flag.Float64("ns-factor", 1.5, "fail when ns/op exceeds factor x baseline (skipped when host cores differ from baseline)")
	emitMulticore := flag.Bool("emit-multicore", false, "emit the BENCH_campaign.json multicore record from BenchmarkCampaignMulticore output instead of guarding")
	showVersion := cli.VersionFlag(flag.CommandLine)
	flag.Parse()
	cli.ExitIfVersion(*showVersion)

	got := parseBenchOutput(os.Stdin)

	if *emitMulticore {
		emitMulticoreRecord(got)
		return
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal("read baseline: %v", err)
	}
	var base baselineFile
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal("parse baseline %s: %v", *baselinePath, err)
	}
	if len(base.StrikeHotPath.Benchmarks) == 0 {
		fatal("%s has no strike_hot_path.benchmarks section", *baselinePath)
	}

	guardNs := base.Host.Cores == 0 || base.Host.Cores == runtime.NumCPU()
	if !guardNs {
		fmt.Printf("benchguard: note: host has %d cores, baseline recorded on %d — ns/op guard skipped, allocs/op still enforced\n",
			runtime.NumCPU(), base.Host.Cores)
	}

	failed := false
	names := make([]string, 0, len(base.StrikeHotPath.Benchmarks))
	for name := range base.StrikeHotPath.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := base.StrikeHotPath.Benchmarks[name]
		res, ok := got[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchguard: FAIL %s: baselined benchmark missing from bench output\n", name)
			failed = true
			continue
		}
		allocLimit := want.AllocsOp * *maxFactor
		if res.HasAllocs && res.AllocsOp > allocLimit {
			fmt.Fprintf(os.Stderr, "benchguard: FAIL %s: %.1f allocs/op exceeds %.1f (baseline %.1f x factor %.1f)\n",
				name, res.AllocsOp, allocLimit, want.AllocsOp, *maxFactor)
			failed = true
			continue
		}
		if guardNs && want.NsOp > 0 {
			nsLimit := want.NsOp * *nsFactor
			if res.NsOp > nsLimit {
				fmt.Fprintf(os.Stderr, "benchguard: FAIL %s: %.0f ns/op exceeds %.0f (baseline %.0f x factor %.2f)\n",
					name, res.NsOp, nsLimit, want.NsOp, *nsFactor)
				failed = true
				continue
			}
		}
		fmt.Printf("benchguard: ok %s: %.1f allocs/op (limit %.1f), %.0f ns/op\n",
			name, res.AllocsOp, allocLimit, res.NsOp)
	}
	if failed {
		os.Exit(1)
	}
}

// multicoreRecord is the BENCH_campaign.json "multicore" section shape.
type multicoreRecord struct {
	Description string `json:"description"`
	Host        struct {
		Cores int    `json:"cores"`
		Go    string `json:"go"`
	} `json:"host"`
	Cells map[string]*multicoreCell `json:"cells"`
	Note  string                    `json:"note"`
}

type multicoreCell struct {
	NsOpByWorkers map[string]float64 `json:"ns_op_by_workers"`
	SpeedupX      float64            `json:"speedup_at_max_workers_x"`
}

// emitMulticoreRecord prints the multicore JSON record built from
// BenchmarkCampaignMulticore/<cell>/workers=<n> results.
func emitMulticoreRecord(got map[string]benchResult) {
	rec := multicoreRecord{
		Description: "Whole campaign cells (campaign.RunStreamingCtx with a TallyReducer, which memoises nothing) at worker counts {1, 2, NumCPU}. Results are bit-identical across worker counts (DESIGN.md §5); ns/op is the whole story. Regenerate with: go test -bench=BenchmarkCampaignMulticore -benchtime=1x -run='^$' . | go run ./cmd/benchguard -emit-multicore",
		Cells:       map[string]*multicoreCell{},
	}
	rec.Host.Cores = runtime.NumCPU()
	rec.Host.Go = runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH
	const prefix = "CampaignMulticore/"
	for name, res := range got {
		rest, ok := strings.CutPrefix(name, prefix)
		if !ok {
			continue
		}
		cellName, workers, ok := strings.Cut(rest, "/workers=")
		if !ok {
			continue
		}
		cell := rec.Cells[cellName]
		if cell == nil {
			cell = &multicoreCell{NsOpByWorkers: map[string]float64{}}
			rec.Cells[cellName] = cell
		}
		cell.NsOpByWorkers[workers] = res.NsOp
	}
	if len(rec.Cells) == 0 {
		fatal("no BenchmarkCampaignMulticore results on stdin")
	}
	for _, cell := range rec.Cells {
		base := cell.NsOpByWorkers["1"]
		best := base
		for _, ns := range cell.NsOpByWorkers {
			if ns < best {
				best = ns
			}
		}
		if base > 0 && best > 0 {
			cell.SpeedupX = round2(base / best)
		}
	}
	if rec.Host.Cores == 1 {
		rec.Note = "recorded on a 1-core host: worker counts collapse to the serial loop, so speedup ~1x is expected and honest; regenerate on a >=4-core host to demonstrate scaling"
	} else {
		rec.Note = fmt.Sprintf("recorded on a %d-core host", rec.Host.Cores)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		fatal("encode multicore record: %v", err)
	}
}

func round2(v float64) float64 {
	return float64(int(v*100+0.5)) / 100
}

// parseBenchOutput extracts ns/op and allocs/op per benchmark from
// `go test -bench [-benchmem]` text. Benchmark names are normalised by
// stripping the "Benchmark" prefix and the -GOMAXPROCS suffix.
func parseBenchOutput(f *os.File) map[string]benchResult {
	out := map[string]benchResult{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i]
		}
		res := out[name]
		for i := 2; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsOp = v
			case "allocs/op":
				res.AllocsOp = v
				res.HasAllocs = true
			}
		}
		out[name] = res
	}
	if err := sc.Err(); err != nil {
		fatal("read bench output: %v", err)
	}
	return out
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchguard: "+format+"\n", args...)
	os.Exit(1)
}

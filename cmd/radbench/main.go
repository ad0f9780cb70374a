package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"radcrit/internal/cli"
)

func main() {
	name := flag.String("workload", "", "workload: campaign-mix, daemon-fresh, daemon-cached or fleet-jobs")
	seed := flag.Uint64("seed", 1, "seed every input of the run derives from")
	seconds := flag.Int("seconds", 20, "how long a run measures; a traced run splits it between its untraced and traced phases")
	trace := flag.Int("trace", 0, "1 makes this the traced run: per-layer metrics, self times, tracing overhead and a span file")
	workdir := flag.String("workdir", ".bench_build", "`dir` for daemon state directories and the span file")
	flag.Parse()

	w, ok := workloadNamed(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "radbench: usage: radbench -workload <name> -seed <n> -seconds <s> -trace <0|1>")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		cli.Fatal("radbench", "%v", err)
	}
	r := &run{seed: *seed, sz: fullSizes, workdir: *workdir, digest: checkDigest, logf: logf}
	out := bufio.NewWriter(os.Stdout)
	spans := ""
	if *trace == 1 {
		spans = filepath.Join(*workdir, "spans-"+w.name+".json")
	}
	rep, err := execute(context.Background(), out, r, w, time.Duration(*seconds)*time.Second, spans)
	if err != nil {
		out.Flush()
		cli.Fatal("radbench", "%s: %v", w.name, err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		cli.Fatal("radbench", "%v", err)
	}
	fmt.Fprintf(out, "%s\n", line)
	if err := out.Flush(); err != nil {
		cli.Fatal("radbench", "%v", err)
	}
}

// report is the last line of a run's output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs workload w and prints its human-readable lines to out.
// With spans == "" it is the untraced run: it measures for d and reports
// the end-to-end metrics. Otherwise it is the traced run: an untraced
// phase and a traced phase with timing wrappers, d/2 each, then the
// strike ladder and, for layers w's own jobs never reach, a short probe
// through them; it reports the per-layer metrics and writes every span to
// the file spans.
func execute(ctx context.Context, out io.Writer, r *run, w workload, d time.Duration, spans string) (report, error) {
	h, _ := json.Marshal(fingerprint())
	fmt.Fprintf(out, "host %s\n", h)
	fmt.Fprintf(out, "workload %s seed %d seconds %g traced %v\n", w.name, r.seed, d.Seconds(), spans != "")
	if spans != "" {
		d /= 2
	}

	base, err := runPhase(ctx, r, w, d, nil)
	if err != nil {
		return report{}, err
	}
	attempted, failed := len(base.ops), base.failed()
	e2e := endToEnd(base)
	if spans == "" {
		printMetrics(out, "", e2e)
		fmt.Fprintf(out, "failed_frac %g\n", ratio(float64(failed), float64(attempted)))
		return newReport(attempted, failed, e2e), nil
	}

	epoch := time.Now()
	wt := newTracer("workload", epoch)
	traced, err := runPhase(ctx, r, w, d, wt)
	if err != nil {
		return report{}, err
	}
	attempted, failed = attempted+len(traced.ops), failed+traced.failed()
	lt := newTracer("ladder", epoch)
	if err := runLadder(ctx, lt, w.shape(r.sz), planSeed(r.seed, streamJobs, 0), r.sz.ladder, r.workdir); err != nil {
		return report{}, err
	}
	parts := []*tracer{wt, lt}
	probe := func(withFleet bool) (*tracer, error) {
		pw := probeWorkload(w, withFleet)
		pt := newTracer(pw.name, epoch)
		pp, err := runPhase(ctx, r.probeRun(), pw, r.sz.probe, pt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pw.name, err)
		}
		attempted, failed = attempted+len(pp.ops), failed+pp.failed()
		parts = append(parts, pt)
		return pt, nil
	}
	daemonSrc, fleetSrc := wt, wt
	if !w.daemon() {
		if daemonSrc, err = probe(false); err != nil {
			return report{}, err
		}
	}
	if !w.fleet() {
		if fleetSrc, err = probe(true); err != nil {
			return report{}, err
		}
	}

	layers := ladderMetrics(spanSet(lt.snapshot()), lt.counter("kernels.masked"))
	layers = append(layers, daemonMetrics(spanSet(daemonSrc.snapshot()))...)
	layers = append(layers, fleetMetrics(spanSet(fleetSrc.snapshot()), fleetSrc)...)
	printMetrics(out, "", layers)
	printKernelLadder(out, lt)
	for _, t := range parts {
		if t != lt {
			printSelfTimes(out, t)
		}
	}
	printOverhead(out, e2e, endToEnd(traced))
	fmt.Fprintf(out, "failed_frac %g\n", ratio(float64(failed), float64(attempted)))
	if err := writeSpans(spans, parts); err != nil {
		return report{}, err
	}
	fmt.Fprintf(out, "spans %s\n", spans)
	return newReport(attempted, failed, layers), nil
}

func newReport(attempted, failed int, ms []metric) report {
	rep := report{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]metricValue{}}
	for _, m := range ms {
		rep.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	return rep
}

// host identifies the machine a run measured.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Build      string `json:"build"`
}

func fingerprint() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: "unknown", Build: cli.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tiny runs every workload at a size that finishes in about a second.
var tiny = sizes{
	setupReps:    1,
	mix:          shape{kernels: mixKernels, strikes: 8, workers: 2},
	mixWarm:      8,
	job:          shape{kernels: []string{"dgemm:128"}, strikes: 4, chunk: 2, workers: 2},
	fleet:        shape{kernels: []string{"dgemm:128"}, strikes: 8, chunk: 4, workers: 1},
	setupJobs:    1,
	pool:         2,
	rechecks:     2,
	ladder:       16,
	probe:        100 * time.Millisecond,
	probeStrikes: 4,
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func tinyRun(t *testing.T) *run {
	return &run{seed: 7, sz: tiny, workdir: t.TempDir(), digest: checkDigest, logf: t.Logf}
}

// lastLine returns what main prints last: the report as one JSON line.
func lastLine(t *testing.T, rep report) map[string]metricValue {
	t.Helper()
	line, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back report
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	return back.Metrics
}

// TestWorkloadsReportDeclaredMetrics runs every workload untraced and
// traced and checks that each reports exactly the metrics, with the
// units, that BENCHMARK.json declares, and that every job checked out.
func TestWorkloadsReportDeclaredMetrics(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			for _, traced := range []bool{false, true} {
				r := tinyRun(t)
				spans, want := "", endToEnd
				if traced {
					spans, want = filepath.Join(r.workdir, "spans.json"), perLayer
				}
				var out bytes.Buffer
				rep, err := execute(context.Background(), &out, r, w, 200*time.Millisecond, spans)
				if err != nil {
					t.Fatalf("traced=%v: %v\n%s", traced, err, out.String())
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", traced, rep.Correct, rep.Attempted, rep.Failed)
				}
				got := lastLine(t, rep)
				for name, unit := range want {
					if m, ok := got[name]; !ok || m.Unit != unit {
						t.Errorf("traced=%v: metric %s: got %+v, want unit %q", traced, name, m, unit)
					}
				}
				for name := range got {
					if _, ok := want[name]; !ok {
						t.Errorf("traced=%v: metric %s is not declared in BENCHMARK.json", traced, name)
					}
				}
				if traced && !strings.Contains(out.String(), "self-time workload") {
					t.Errorf("traced run printed no self times:\n%s", out.String())
				}
			}
		})
	}
}

// TestTamperedDigestFailsEveryJob pins the campaign-mix correctness gate:
// when the check plan's digest differs from the expected one, no job's
// output is trusted.
func TestTamperedDigestFailsEveryJob(t *testing.T) {
	w, _ := workloadNamed("campaign-mix")
	r := tinyRun(t)
	r.digest = strings.Repeat("0", 64)
	rep, err := execute(context.Background(), &bytes.Buffer{}, r, w, 100*time.Millisecond, "")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Attempted == 0 || rep.Failed != rep.Attempted {
		t.Fatalf("tampered digest: correct=%v attempted=%d failed=%d, want every job failed",
			rep.Correct, rep.Attempted, rep.Failed)
	}
}

package service

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"radcrit/internal/telemetry"
	"radcrit/internal/tenant"
)

// scrape renders the registry's exposition text.
func scrape(r *telemetry.Registry) string {
	var sb strings.Builder
	r.WritePrometheus(&sb)
	return sb.String()
}

// sumSeries sums the values of every sample line of one family.
func sumSeries(t *testing.T, exposition, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `(?:\{[^}]*\})? (\S+)$`)
	var total float64
	for _, match := range re.FindAllStringSubmatch(exposition, -1) {
		v, err := strconv.ParseFloat(match[1], 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", match[0], err)
		}
		total += v
	}
	return total
}

// TestManagerMetricsEndToEnd runs one job through a metered manager and
// asserts every instrumented layer shows up on the scrape: strike
// classes, chunk latency, job state transitions, cell outcomes, store
// traffic, executor gauges and drain duration.
func TestManagerMetricsEndToEnd(t *testing.T) {
	reg := telemetry.NewRegistry()
	m, err := New(Options{StateDir: t.TempDir(), Executors: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	snap, err := m.SubmitAs(tenant.Default, smokePlan(64), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, snap.ID, StateDone)
	drain(t, m)

	out := scrape(reg)
	if got := sumSeries(t, out, "radcrit_strikes_total"); got != 64 {
		t.Errorf("strikes_total sums to %v, want 64\n%s", got, out)
	}
	if !strings.Contains(out, `radcrit_strikes_total{kernel="dgemm:128",device="k40",class=`) {
		t.Errorf("strikes_total missing kernel/device/class labels:\n%s", out)
	}
	for _, want := range []string{
		`radcrit_jobs_total{tenant="default",state="queued"} 1`,
		`radcrit_jobs_total{tenant="default",state="running"} 1`,
		`radcrit_jobs_total{tenant="default",state="done"} 1`,
		`radcrit_cells_total{tenant="default",outcome="done"} 1`,
		`radcrit_tenant_strikes_done{tenant="default"} 64`,
		"radcrit_executors 1",
		"radcrit_executors_busy 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q:\n%s", want, out)
		}
	}
	if got := sumSeries(t, out, "radcrit_chunk_seconds_count"); got < 1 {
		t.Errorf("chunk histogram has no observations:\n%s", out)
	}
	// The store answered at least one Get (a miss: the cell had never
	// been computed) and one Put.
	if got := sumSeries(t, out, "radcrit_store_misses_total"); got < 1 {
		t.Errorf("store misses = %v, want >= 1", got)
	}
	if got := sumSeries(t, out, "radcrit_store_put_bytes_total"); got < 1 {
		t.Errorf("store put bytes = %v, want >= 1", got)
	}
	if got := sumSeries(t, out, "radcrit_drain_seconds"); got <= 0 {
		t.Errorf("drain_seconds = %v, want > 0", got)
	}
}

// TestMeteredStoreHit: a second identical submission is served from the
// content-addressed store and shows up as a hit plus a cached cell.
func TestMeteredStoreHit(t *testing.T) {
	reg := telemetry.NewRegistry()
	m, err := New(Options{StateDir: t.TempDir(), Executors: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	for i := 0; i < 2; i++ {
		snap, err := m.SubmitAs(tenant.Default, smokePlan(48), 0)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, snap.ID, StateDone)
	}
	drain(t, m)
	out := scrape(reg)
	if got := sumSeries(t, out, "radcrit_store_hits_total"); got < 1 {
		t.Errorf("store hits = %v, want >= 1\n%s", got, out)
	}
	if !strings.Contains(out, `radcrit_cells_total{tenant="default",outcome="cached"} 1`) {
		t.Errorf("scrape missing cached cell count:\n%s", out)
	}
	// Only the first run touched the engine.
	if got := sumSeries(t, out, "radcrit_strikes_total"); got != 48 {
		t.Errorf("strikes_total = %v, want 48 (cached rerun must not re-strike)", got)
	}
}

// TestReloadTenantsReweightsQueue is the hot-reload contract end to end:
// after ReloadTenants, a re-weighted tenant's share changes on the very
// next Pop, and a tenant deleted from the file keeps draining under the
// weight it was admitted with.
func TestReloadTenantsReweightsQueue(t *testing.T) {
	dir := t.TempDir()
	tpath := filepath.Join(dir, "tenants.json")
	write := func(body string) {
		t.Helper()
		if err := os.WriteFile(tpath, []byte(body), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	write(`{"tenants":[{"name":"alpha","weight":1},{"name":"beta","weight":1}]}`)
	regT, err := tenant.Load(tpath)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	m, err := New(Options{StateDir: dir, Executors: 1, Tenants: regT, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	// No Start(): the queue must hold its backlog while we reload.
	const perTenant = 40
	for i := 0; i < perTenant; i++ {
		if _, err := m.SubmitAs("alpha", smokePlan(32), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := m.SubmitAs("beta", smokePlan(32), 0); err != nil {
			t.Fatal(err)
		}
	}

	// With backlog on both tenants, the fairness collectors have series.
	out := scrape(reg)
	for _, want := range []string{
		fmt.Sprintf(`radcrit_queue_depth{tenant="alpha"} %d`, perTenant),
		`radcrit_sched_vtime_lag{tenant="alpha"}`,
		`radcrit_sched_vtime_lag{tenant="beta"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q:\n%s", want, out)
		}
	}

	// Reload: alpha now weight 3, beta deleted.
	write(`{"tenants":[{"name":"alpha","weight":3}]}`)
	if err := m.ReloadTenants(); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Tenants().Get("beta"); ok {
		t.Fatal("beta still registered after reload")
	}

	// Pop under the manager's lock, as executors would.
	m.mu.Lock()
	counts := map[string]int{}
	for i := 0; i < 40; i++ {
		j, ok := m.queue.Pop()
		if !ok {
			break
		}
		counts[j.Tenant]++
	}
	rest := 0
	for {
		j, ok := m.queue.Pop()
		if !ok {
			break
		}
		if j.Tenant == "beta" {
			rest++
		}
	}
	m.mu.Unlock()

	// Weight 3 vs 1: alpha should take ~30 of the first 40 pops.
	if counts["alpha"] < 25 || counts["alpha"] > 35 {
		t.Errorf("alpha took %d of the first 40 pops, want ~30 (3x weight)", counts["alpha"])
	}
	// Beta — deleted from the registry — still drains all its jobs.
	if counts["beta"]+rest != perTenant {
		t.Errorf("beta drained %d jobs, want %d", counts["beta"]+rest, perTenant)
	}
	// A reload error keeps the old table: corrupt the file and check.
	write(`{nope`)
	if err := m.ReloadTenants(); err == nil {
		t.Fatal("corrupt tenants.json did not error")
	}
	if w := m.Tenants().Weight("alpha"); w != 3 {
		t.Errorf("alpha weight after failed reload = %d, want 3", w)
	}
}

package service

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"radcrit/internal/tenant"
)

// tenantRegistry builds a registry with alpha (weight 3) and beta
// (weight 1) alongside the default tenant.
func tenantRegistry(t *testing.T) *tenant.Registry {
	return loadTenants(t, tenant.Tenant{Name: "alpha", Weight: 3}, tenant.Tenant{Name: "beta", Weight: 1})
}

// loadTenants loads a registry from a tenants.json holding ts.
func loadTenants(t *testing.T, ts ...tenant.Tenant) *tenant.Registry {
	t.Helper()
	data, err := json.Marshal(map[string][]tenant.Tenant{"tenants": ts})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	r, err := tenant.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestTenantWeightedPopOrder pins the acceptance-criteria scheduling
// ratio at the queue seam: with alpha at weight 3 and beta at weight 1
// both saturating the queue with equal-cost jobs, the executor pop
// stream serves them 3:1 (±10%) while both still have backlog.
func TestTenantWeightedPopOrder(t *testing.T) {
	m, err := New(Options{StateDir: t.TempDir(), Executors: 2, Tenants: tenantRegistry(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, m) // never started: drain just closes bookkeeping
	for i := 0; i < 40; i++ {
		// Identical plans, so every job prices identically and the pop
		// ratio reads the weights directly (the jobs never execute here).
		if _, err := m.SubmitAs("alpha", smokePlan(100), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := m.SubmitAs("beta", smokePlan(100), 0); err != nil {
			t.Fatal(err)
		}
	}
	counts := map[string]int{}
	m.mu.Lock()
	for i := 0; i < 40; i++ { // mid-drain window: both tenants backlogged
		j, ok := m.queue.Pop()
		if !ok {
			break
		}
		counts[j.Tenant]++
	}
	m.mu.Unlock()
	ratio := float64(counts["alpha"]) / float64(counts["beta"])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("alpha:beta pop ratio = %.2f (%v), want 3.0 ±10%%", ratio, counts)
	}
}

func TestTenantQuotas(t *testing.T) {
	reg := loadTenants(t, tenant.Tenant{
		Name:   "capped",
		Quotas: tenant.Quotas{MaxQueuedJobs: 2, MaxPlannedStrikes: 500},
	})
	m, err := New(Options{StateDir: t.TempDir(), Executors: 2, Tenants: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, m)

	if _, err := m.SubmitAs("nobody", smokePlan(10), 0); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant submit = %v, want ErrUnknownTenant", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := m.SubmitAs("capped", smokePlan(10+i), 0); err != nil {
			t.Fatal(err)
		}
	}
	_, err = m.SubmitAs("capped", smokePlan(30), 0)
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("over-quota submit = %v, want *QuotaError", err)
	}
	if qe.Tenant != "capped" || qe.RetryAfter < time.Second || qe.RetryAfter > time.Minute {
		t.Fatalf("quota error = %+v", qe)
	}
	// The strike-budget quota trips independently of job count: cancel a
	// job to free the queue slot, then submit a plan too large in strikes.
	snaps := m.Jobs()
	if _, err := m.Cancel(snaps[0].ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SubmitAs("capped", smokePlan(495), 0); !errors.As(err, &qe) {
		t.Fatalf("strike-quota submit = %v, want *QuotaError", err)
	} else if qe.Detail == "" {
		t.Error("quota error carries no detail")
	}
	// The default tenant is never quota-bound.
	if _, err := m.SubmitAs(tenant.Default, smokePlan(40), 0); err != nil {
		t.Fatalf("default tenant submit: %v", err)
	}
}

// TestTenantStoreIsolationAndBitIdentity runs the same plan as three
// tenants: the default tenant computes and caches it; a second tenant
// must NOT be served from the default namespace (no cross-tenant dedup)
// yet must produce byte-identical summaries; a repeat submission within
// that tenant dedups normally.
func TestTenantStoreIsolationAndBitIdentity(t *testing.T) {
	m, err := New(Options{StateDir: t.TempDir(), Executors: 1, Tenants: tenantRegistry(t)})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer drain(t, m)
	want := directSummaries(t, smokePlan(120))

	run := func(tn string) *JobResult {
		s, err := m.SubmitAs(tn, smokePlan(120), 0)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, s.ID, StateDone)
		jr, err := m.Result(s.ID)
		if err != nil {
			t.Fatal(err)
		}
		return jr
	}

	first := run(tenant.Default)
	if first.Cells[0].Cached {
		t.Fatal("first run reported cached")
	}
	if got := summariesJSON(t, first); got != want {
		t.Fatalf("default summaries diverge:\n got %s\nwant %s", got, want)
	}

	alpha := run("alpha")
	if alpha.Cells[0].Cached {
		t.Fatal("alpha was served from another tenant's namespace")
	}
	if got := summariesJSON(t, alpha); got != want {
		t.Fatalf("alpha summaries diverge from direct run:\n got %s\nwant %s", got, want)
	}

	alpha2 := run("alpha")
	if !alpha2.Cells[0].Cached {
		t.Fatal("intra-tenant dedup did not fire")
	}
	if got := summariesJSON(t, alpha2); got != want {
		t.Fatalf("cached alpha summaries diverge:\n got %s", got)
	}

	stats := m.TenantStats()
	byName := map[string]TenantStat{}
	for _, ts := range stats {
		byName[ts.Tenant] = ts
	}
	if byName["alpha"].Weight != 3 || byName["beta"].Weight != 1 || byName[tenant.Default].Weight != 1 {
		t.Fatalf("TenantStats weights wrong: %+v", stats)
	}
	if byName["alpha"].Jobs[StateDone] != 2 || byName[tenant.Default].Jobs[StateDone] != 1 {
		t.Fatalf("TenantStats job counts wrong: %+v", stats)
	}
	if byName["alpha"].StrikesDone != 240 {
		t.Fatalf("alpha strikes done = %d, want 240", byName["alpha"].StrikesDone)
	}
}

// TestTenantSurvivesRestart: a non-default tenant's queued job record
// reloads with its tenant intact.
func TestTenantSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	reg := tenantRegistry(t)
	m1, err := New(Options{StateDir: dir, Executors: 1, Tenants: reg})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m1.SubmitAs("beta", smokePlan(90), 2)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, m1) // never started: the job stays queued on disk

	m2, err := New(Options{StateDir: dir, Executors: 1, Tenants: reg})
	if err != nil {
		t.Fatal(err)
	}
	m2.Start()
	defer drain(t, m2)
	snap := waitState(t, m2, s.ID, StateDone)
	if snap.Tenant != "beta" || snap.Priority != 2 {
		t.Fatalf("reloaded job = tenant %q priority %d, want beta/2", snap.Tenant, snap.Priority)
	}
}

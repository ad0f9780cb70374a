package api

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"radcrit/internal/campaign"
	"radcrit/internal/service"
	"radcrit/internal/tenant"
)

func tinyPlan() *campaign.Plan {
	return campaign.NewPlan(1, 10).WithCell("k40", "dgemm:128").WithWorkers(1)
}

// fakeClock records the delays sleepRetry was asked for without actually
// waiting, so retry-schedule assertions are exact and instant.
type fakeClock struct {
	mu     sync.Mutex
	delays []time.Duration
}

func (f *fakeClock) sleep(_ context.Context, d time.Duration) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.delays = append(f.delays, d)
	return nil
}

// TestClientHonorsRetryAfter pins the 429 retry policy: a POST submit is
// retried (admission control rejects before any work, so it is safe),
// the server's Retry-After delay is used verbatim — no jitter — and a
// delay beyond RetryMax is clamped to it.
func TestClientHonorsRetryAfter(t *testing.T) {
	var hits int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		switch hits {
		case 1:
			w.Header().Set("Retry-After", "2")
			writeErr(w, http.StatusTooManyRequests, "quota")
		case 2:
			w.Header().Set("Retry-After", "120") // beyond RetryMax: must clamp
			writeErr(w, http.StatusTooManyRequests, "quota")
		default:
			writeJSON(w, http.StatusCreated, service.Snapshot{ID: "j-1", State: service.StateQueued})
		}
	}))
	defer srv.Close()

	clock := &fakeClock{}
	c := NewClient(srv.URL)
	c.RetryMax = 5 * time.Second
	c.sleep = clock.sleep
	snap, err := c.Submit(context.Background(), tinyPlan(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if snap.ID != "j-1" || hits != 3 {
		t.Fatalf("snapshot %+v after %d attempts", snap, hits)
	}
	want := []time.Duration{2 * time.Second, 5 * time.Second}
	if len(clock.delays) != len(want) {
		t.Fatalf("retry delays = %v, want %v", clock.delays, want)
	}
	for i, d := range want {
		if clock.delays[i] != d {
			t.Fatalf("retry delay %d = %v, want %v (all: %v)", i, clock.delays[i], d, clock.delays)
		}
	}
}

// TestClientRetryAfterExhaustion: a server that never relents exhausts
// the retry budget and surfaces the 429 as an error.
func TestClientRetryAfterExhaustion(t *testing.T) {
	var hits int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits++
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, "quota")
	}))
	defer srv.Close()

	clock := &fakeClock{}
	c := NewClient(srv.URL)
	c.Retries = 2
	c.sleep = clock.sleep
	_, err := c.Submit(context.Background(), tinyPlan(), 0)
	if err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("exhausted submit error = %v, want HTTP 429", err)
	}
	if hits != 3 || len(clock.delays) != 2 {
		t.Fatalf("hits = %d, delays = %v; want 3 attempts, 2 sleeps", hits, clock.delays)
	}
}

func TestParseRetryAfter(t *testing.T) {
	for h, want := range map[string]time.Duration{
		"7":    7 * time.Second,
		"0":    0,
		"":     0,
		"soon": 0,
		"-3":   0,
	} {
		if got := parseRetryAfter(h); got != want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", h, got, want)
		}
	}
}

// TestClientAuthHeaders: Token wins over Tenant; Tenant alone uses the
// plaintext header; neither sends anonymous requests.
func TestClientAuthHeaders(t *testing.T) {
	var gotAuth, gotTenant string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotAuth, gotTenant = r.Header.Get("Authorization"), r.Header.Get(TenantHeader)
		writeJSON(w, http.StatusOK, JobsList{})
	}))
	defer srv.Close()
	ctx := context.Background()

	c := NewClient(srv.URL)
	c.Tenant = "beta"
	if _, err := c.List(ctx); err != nil {
		t.Fatal(err)
	}
	if gotAuth != "" || gotTenant != "beta" {
		t.Fatalf("tenant-mode headers = auth %q tenant %q", gotAuth, gotTenant)
	}

	c.Token = "s3cret"
	if _, err := c.List(ctx); err != nil {
		t.Fatal(err)
	}
	if gotAuth != "Bearer s3cret" || gotTenant != "" {
		t.Fatalf("token-mode headers = auth %q tenant %q", gotAuth, gotTenant)
	}
}

// TestTenantAuthEndToEnd drives the real daemon's tenant resolution:
// bearer tokens, plaintext tenant addressing, impersonation refusals and
// the 429 + Retry-After admission path.
func TestTenantAuthEndToEnd(t *testing.T) {
	data, err := json.Marshal(map[string][]tenant.Tenant{"tenants": {
		{Name: "alpha", Weight: 3, Token: "alpha-token"},
		{Name: "beta", Weight: 1},
		{Name: "capped", Quotas: tenant.Quotas{MaxQueuedJobs: 1}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	reg, err := tenant.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := service.New(service.Options{StateDir: t.TempDir(), Executors: 1, Tenants: reg})
	if err != nil {
		t.Fatal(err)
	}
	// Never started: jobs stay queued, so quota state is deterministic.
	srv := httptest.NewServer(New(m, "test-build"))
	defer srv.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Drain(ctx); err != nil {
			t.Fatal(err)
		}
	}()
	ctx := context.Background()

	submitAs := func(tenantName, token string) (service.Snapshot, error) {
		c := NewClient(srv.URL)
		c.Retries = -1
		c.Tenant, c.Token = tenantName, token
		return c.Submit(ctx, tinyPlan(), 0)
	}

	if snap, err := submitAs("", "alpha-token"); err != nil || snap.Tenant != "alpha" {
		t.Fatalf("token submit = %+v, %v; want tenant alpha", snap, err)
	}
	if snap, err := submitAs("beta", ""); err != nil || snap.Tenant != "beta" {
		t.Fatalf("header submit = %+v, %v; want tenant beta", snap, err)
	}
	if snap, err := submitAs("", ""); err != nil || snap.Tenant != tenant.Default {
		t.Fatalf("anonymous submit = %+v, %v; want default tenant", snap, err)
	}
	if _, err := submitAs("", "wrong-token"); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("bad token error = %v, want HTTP 401", err)
	}
	if _, err := submitAs("alpha", ""); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("header impersonation error = %v, want HTTP 401", err)
	}
	if _, err := submitAs("ghost", ""); err == nil || !strings.Contains(err.Error(), "403") {
		t.Fatalf("unknown tenant error = %v, want HTTP 403", err)
	}

	// Admission control over the wire: fill capped's one queue slot, then
	// assert the rejection is 429 and carries a usable Retry-After.
	if _, err := submitAs("capped", ""); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(tinyPlan())
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/jobs", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TenantHeader, "capped")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status = %d, want 429", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want whole seconds >= 1", resp.Header.Get("Retry-After"))
	}
}

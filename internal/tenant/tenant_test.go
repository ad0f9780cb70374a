package tenant

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestDefaultAlwaysPresent(t *testing.T) {
	r := NewRegistry()
	d, ok := r.Get(Default)
	if !ok {
		t.Fatal("default tenant missing from a fresh registry")
	}
	if d.EffectiveWeight() != 1 || d.Token != "" {
		t.Fatalf("default tenant = %+v, want weight 1, no token", d)
	}
	if r.Weight("never-registered") != 1 {
		t.Errorf("unknown tenant weight = %d, want 1", r.Weight("never-registered"))
	}
}

func TestLoadSaveRoundTrip(t *testing.T) {
	alpha := Tenant{Name: "alpha", Weight: 3, Token: "tok-alpha",
		Quotas: Quotas{MaxQueuedJobs: 10, MaxPlannedStrikes: 5000}}
	beta := Tenant{Name: "beta", Weight: 1}
	path := writeTenants(t, alpha, beta)

	r2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := r2.Get("alpha")
	if !ok || got != alpha {
		t.Fatalf("reloaded alpha = %+v ok=%v, want %+v", got, ok, alpha)
	}
	if byTok, ok := r2.ResolveToken("tok-alpha"); !ok || byTok.Name != "alpha" {
		t.Fatalf("ResolveToken = %+v ok=%v", byTok, ok)
	}
	if _, ok := r2.ResolveToken("wrong"); ok {
		t.Error("unknown token resolved")
	}
	if _, ok := r2.ResolveToken(""); ok {
		t.Error("empty token resolved")
	}
	if all := r2.All(); len(all) != 3 { // alpha, beta, default
		t.Fatalf("All() = %d tenants, want 3", len(all))
	}
	if r2.Weight("alpha") != 3 || r2.Weight("beta") != 1 {
		t.Errorf("weights alpha=%d beta=%d", r2.Weight("alpha"), r2.Weight("beta"))
	}
}

func TestValidation(t *testing.T) {
	r := NewRegistry()
	bad := []Tenant{
		{Name: ""},
		{Name: "Has-Upper"},
		{Name: "spaces no"},
		{Name: "x", Weight: -1},
		{Name: "x", Quotas: Quotas{MaxQueuedJobs: -2}},
	}
	for _, tn := range bad {
		if err := r.insertLocked(tn); err == nil {
			t.Errorf("insertLocked(%+v) accepted, want error", tn)
		}
	}
	if err := r.insertLocked(Tenant{Name: "a", Token: "shared"}); err != nil {
		t.Fatal(err)
	}
	if err := r.insertLocked(Tenant{Name: "b", Token: "shared"}); err == nil {
		t.Error("token collision accepted")
	}
	// Re-registering the same tenant with a new token frees the old one.
	if err := r.insertLocked(Tenant{Name: "a", Token: "fresh"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.ResolveToken("shared"); ok {
		t.Error("replaced token still resolves")
	}
	if tn, ok := r.ResolveToken("fresh"); !ok || tn.Name != "a" {
		t.Errorf("new token resolves to %+v ok=%v", tn, ok)
	}
}

func TestLoadRejectsBadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(`{"tenants":[{"name":"BAD NAME"}]}`), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("Load accepted an invalid tenant name")
	}
	if err := os.WriteFile(path, []byte(`not json`), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("Load accepted malformed JSON")
	}
}

// TestReloadSwapsAtomically: editing tenants.json and calling Reload
// swaps weights, tokens and rate limits in one step; a broken file
// leaves the old table untouched; a deleted file resets to default-only.
func TestReloadSwapsAtomically(t *testing.T) {
	path := writeTenants(t, Tenant{Name: "alpha", Weight: 3, Token: "tok-a"})
	r, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}

	// Hand-edit the file the way an operator would: alpha re-weighted and
	// re-keyed, beta added with a rate limit, then SIGHUP-style Reload.
	next := `{"tenants":[
	  {"name":"alpha","weight":5,"token":"tok-a2"},
	  {"name":"beta","weight":1,"rate_limit":{"rps":2,"burst":4}}
	]}`
	if err := os.WriteFile(path, []byte(next), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := r.Reload(); err != nil {
		t.Fatal(err)
	}
	if w := r.Weight("alpha"); w != 5 {
		t.Errorf("alpha weight = %d, want 5", w)
	}
	if _, ok := r.ResolveToken("tok-a"); ok {
		t.Error("stale token still resolves after reload")
	}
	if tn, ok := r.ResolveToken("tok-a2"); !ok || tn.Name != "alpha" {
		t.Errorf("new token resolves to %v/%v, want alpha", tn.Name, ok)
	}
	if tn, ok := r.Get("beta"); !ok || tn.Rate.RPS != 2 || tn.Rate.EffectiveBurst() != 4 {
		t.Errorf("beta rate = %+v/%v, want rps 2 burst 4", tn.Rate, ok)
	}

	// A torn write must not take down the live table.
	if err := os.WriteFile(path, []byte(`{"tenants":[{"name":"UPPER"}]}`), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := r.Reload(); err == nil {
		t.Fatal("reload of an invalid file did not error")
	}
	if w := r.Weight("alpha"); w != 5 {
		t.Errorf("failed reload disturbed the table: alpha weight = %d, want 5", w)
	}

	// Deleted file: back to the default tenant alone.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := r.Reload(); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get("alpha"); ok {
		t.Error("removed tenant survived reload of a deleted file")
	}
	if w := r.Weight("alpha"); w != 1 {
		t.Errorf("removed tenant weight = %d, want fallback 1", w)
	}
}

func TestEffectiveBurst(t *testing.T) {
	cases := []struct {
		rl   RateLimit
		want int
	}{
		{RateLimit{}, 1},
		{RateLimit{RPS: 0.5}, 1},
		{RateLimit{RPS: 2.5}, 3},
		{RateLimit{RPS: 10, Burst: 2}, 2},
	}
	for _, c := range cases {
		if got := c.rl.EffectiveBurst(); got != c.want {
			t.Errorf("EffectiveBurst(%+v) = %d, want %d", c.rl, got, c.want)
		}
	}
}

// writeTenants writes a tenants.json holding ts, as an operator would,
// and returns its path.
func writeTenants(t *testing.T, ts ...Tenant) string {
	t.Helper()
	data, err := json.Marshal(fileRecord{Tenants: ts})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

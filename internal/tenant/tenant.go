// Package tenant is radcritd's multi-tenancy layer: a registry of named
// tenants — each with a scheduling weight, optional bearer token, and
// admission quotas — persisted as a plain tenants.json under the daemon's
// state directory. The service layer consults it on every submission
// (quota admission control), the scheduler uses its weights for
// weighted-fair queueing, and the API middleware resolves every request's
// token or X-Radcrit-Tenant header into a tenant name.
//
// The default tenant ("default") always exists: it has weight 1, no
// token, and unlimited quotas, so a single-tenant daemon — every client
// predating this package — behaves exactly as before.
package tenant

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
)

// Default is the tenant every unauthenticated, unlabelled request
// resolves to — the compatibility tenant.
const Default = "default"

// Quotas bounds a tenant's admission. Zero means unlimited; the checks
// run at submission time, so a quota breach answers the submit (429 at
// the API layer) instead of wedging queued work.
type Quotas struct {
	// MaxQueuedJobs bounds how many of the tenant's jobs may wait in the
	// scheduler at once.
	MaxQueuedJobs int `json:"max_queued_jobs,omitempty"`
	// MaxInflightCells bounds the tenant's unfinished cells across queued
	// and running jobs.
	MaxInflightCells int `json:"max_inflight_cells,omitempty"`
	// MaxPlannedStrikes bounds the tenant's total outstanding strike
	// budget (per-cell strikes × cells, summed over queued and running
	// jobs) — the cost-shaped quota: one huge plan spends it as fast as a
	// thousand small ones.
	MaxPlannedStrikes int `json:"max_planned_strikes,omitempty"`
}

// RateLimit is a tenant's API-level token-bucket rate limit — requests
// per second with a burst allowance, enforced by the API middleware
// before any handler runs (the queue quotas in Quotas bound admitted
// work; this bounds the request stream itself). Zero RPS means
// unlimited.
type RateLimit struct {
	// RPS is the sustained request rate (tokens refilled per second).
	RPS float64 `json:"rps,omitempty"`
	// Burst is the bucket capacity (default: ceil(RPS), minimum 1) — how
	// many requests may arrive back to back before the limiter bites.
	Burst int `json:"burst,omitempty"`
}

// EffectiveBurst normalises the bucket capacity.
func (rl RateLimit) EffectiveBurst() int {
	if rl.Burst > 0 {
		return rl.Burst
	}
	if b := int(rl.RPS + 0.999999); b > 0 {
		return b
	}
	return 1
}

// Tenant is one namespace's registration.
type Tenant struct {
	// Name identifies the tenant; lowercase [a-z0-9-], 1..64 bytes.
	Name string `json:"name"`
	// Weight is the tenant's weighted-fair scheduling share (>= 1;
	// 0 normalises to 1). A weight-3 tenant receives 3x the executor
	// time of a weight-1 tenant under saturation.
	Weight int `json:"weight,omitempty"`
	// Token, when set, is the bearer token that authenticates as this
	// tenant. Empty means the tenant is addressable by the
	// X-Radcrit-Tenant header alone (trusted-network mode).
	Token string `json:"token,omitempty"`
	// Quotas are the tenant's admission bounds.
	Quotas Quotas `json:"quotas,omitempty"`
	// Rate is the tenant's API request rate limit (zero: unlimited).
	Rate RateLimit `json:"rate_limit,omitempty"`
}

// EffectiveWeight normalises the scheduling weight (>= 1).
func (t Tenant) EffectiveWeight() int {
	if t.Weight < 1 {
		return 1
	}
	return t.Weight
}

// validName reports whether name is a plausible tenant identifier. The
// alphabet is deliberately tight: names appear in store key prefixes,
// HTTP headers and file paths.
func validName(name string) bool {
	if len(name) == 0 || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '-' {
			return false
		}
	}
	return true
}

// Validate checks one tenant registration.
func (t Tenant) Validate() error {
	if !validName(t.Name) {
		return fmt.Errorf("tenant: invalid name %q (want lowercase [a-z0-9-], 1..64 bytes)", t.Name)
	}
	if t.Weight < 0 {
		return fmt.Errorf("tenant %q: negative weight %d", t.Name, t.Weight)
	}
	q := t.Quotas
	if q.MaxQueuedJobs < 0 || q.MaxInflightCells < 0 || q.MaxPlannedStrikes < 0 {
		return fmt.Errorf("tenant %q: negative quota", t.Name)
	}
	if t.Rate.RPS < 0 || t.Rate.Burst < 0 {
		return fmt.Errorf("tenant %q: negative rate limit", t.Name)
	}
	return nil
}

// Registry holds the tenant table, optionally persisted to a JSON file.
// Safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	path    string // empty: in-memory only
	tenants map[string]Tenant
	byToken map[string]string
}

// NewRegistry builds an in-memory registry holding only the default
// tenant.
func NewRegistry() *Registry {
	r := &Registry{
		tenants: map[string]Tenant{},
		byToken: map[string]string{},
	}
	r.tenants[Default] = Tenant{Name: Default, Weight: 1}
	return r
}

// fileRecord is tenants.json: a versioned list, human-editable.
type fileRecord struct {
	Tenants []Tenant `json:"tenants"`
}

// Load opens (or initialises) a registry persisted at path. A missing
// file yields a registry with only the default tenant; the operator
// writes the file. The default tenant is always present even if the
// file omits it.
func Load(path string) (*Registry, error) {
	r := NewRegistry()
	r.path = path
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return r, nil
	}
	if err != nil {
		return nil, fmt.Errorf("tenant: %w", err)
	}
	var rec fileRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("tenant: %s: %w", path, err)
	}
	for _, t := range rec.Tenants {
		if err := r.insertLocked(t); err != nil {
			return nil, fmt.Errorf("tenant: %s: %w", path, err)
		}
	}
	return r, nil
}

// insertLocked validates and installs one tenant. Load calls it on a
// registry no other goroutine can see yet, so it takes no lock.
func (r *Registry) insertLocked(t Tenant) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if t.Token != "" {
		if owner, taken := r.byToken[t.Token]; taken && owner != t.Name {
			return fmt.Errorf("token of tenant %q collides with tenant %q", t.Name, owner)
		}
	}
	if old, ok := r.tenants[t.Name]; ok && old.Token != "" && old.Token != t.Token {
		delete(r.byToken, old.Token)
	}
	r.tenants[t.Name] = t
	if t.Token != "" {
		r.byToken[t.Token] = t.Name
	}
	return nil
}

// Reload re-reads the backing file and swaps the tenant table
// atomically: every reader sees either the old table or the new one,
// never a mix, and a parse or validation error leaves the old table
// fully in place. In-memory registries are a no-op. A deleted file
// resets the registry to the default tenant alone — the same state Load
// would produce.
//
// Callers holding references to this *Registry (the service manager,
// the API middleware) observe the new weights, tokens, quotas and rate
// limits on their next lookup; re-weighting jobs already queued is the
// manager's job (sched.Queue.SetWeight), since only it knows which
// tenants still hold backlog.
func (r *Registry) Reload() error {
	if r.path == "" {
		return nil
	}
	fresh, err := Load(r.path)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.tenants = fresh.tenants
	r.byToken = fresh.byToken
	r.mu.Unlock()
	return nil
}

// Get looks a tenant up by name.
func (r *Registry) Get(name string) (Tenant, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.tenants[name]
	return t, ok
}

// ResolveToken maps a bearer token to its tenant.
func (r *Registry) ResolveToken(token string) (Tenant, bool) {
	if token == "" {
		return Tenant{}, false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	name, ok := r.byToken[token]
	if !ok {
		return Tenant{}, false
	}
	return r.tenants[name], true
}

// Weight returns name's effective scheduling weight (1 for unknown
// tenants, so a stale job record never divides by zero).
func (r *Registry) Weight(name string) int {
	t, ok := r.Get(name)
	if !ok {
		return 1
	}
	return t.EffectiveWeight()
}

// All lists the registered tenants, sorted by name.
func (r *Registry) All() []Tenant {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.allLocked()
}

func (r *Registry) allLocked() []Tenant {
	out := make([]Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Package fleet is radcritd's coordinator/worker layer: a lease-based
// work queue that shards a job's cells across remote worker processes
// over HTTP, built so that failure is the normal case. Workers register
// with the coordinator and pull leases; heartbeats refresh lease
// deadlines and stream the cell's checkpoint log back; a lost worker's
// lease expires and the cell is requeued seeded from the last streamed
// #CHK record, so a crash costs at most one chunk of re-execution;
// stragglers are speculatively re-dispatched to idle workers with
// first-result-wins dedup; and when zero workers are healthy the
// coordinator tells the service layer to run cells locally instead of
// stalling the queue.
//
// The determinism contract survives all of it: cells are pure functions
// of their one-cell plan — per-index RNG splits make any resumed
// tail bit-identical to an uninterrupted run — so whichever worker (or
// mixture of workers, or local fallback) executes a cell, the summary is
// byte-identical to a direct in-process StreamRunner run. The chaos
// suite (chaos_test.go, chaostest/) pins exactly that.
package fleet

import "radcrit/internal/campaign"

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	// Name labels the worker in health output (hostname, pod name, ...).
	Name string `json:"name"`
}

// RegisterResponse carries the worker's identity and the coordinator's
// timing contract.
type RegisterResponse struct {
	// Worker is the coordinator-assigned worker ID, presented on every
	// subsequent lease poll.
	Worker string `json:"worker"`
	// LeaseTTLMillis is how long a lease lives without a heartbeat.
	LeaseTTLMillis int64 `json:"lease_ttl_ms"`
	// HeartbeatMillis is how often a leaseholder should heartbeat.
	HeartbeatMillis int64 `json:"heartbeat_ms"`
	// PollMillis is how long an idle worker should wait between polls.
	PollMillis int64 `json:"poll_ms"`
}

// WorkItem is one leased cell: everything a worker needs to execute it
// bit-identically, plus the lease's timing contract.
type WorkItem struct {
	// Lease identifies this grant; heartbeats and completion present it.
	Lease string `json:"lease"`
	// Key is the cell's content address (campaign.CellKey) — for logs and
	// health output; workers never need to recompute it.
	Key string `json:"key"`
	// Plan is the cell as a one-cell plan, in the plan's own strict JSON
	// form. JSON floats round-trip bit-exactly (shortest-round-trip
	// encoding), so the worker rebuilds the exact engine config and
	// thresholds — and therefore the exact summary bit pattern.
	Plan *campaign.Plan `json:"plan"`
	// Log is the cell's checkpoint log so far (empty for a fresh cell).
	// The worker resumes from its last #CHK record, re-running only the
	// uncovered tail.
	Log []byte `json:"log,omitempty"`
	// LeaseTTLMillis / HeartbeatMillis restate the coordinator's timing
	// contract for this lease.
	LeaseTTLMillis  int64 `json:"lease_ttl_ms"`
	HeartbeatMillis int64 `json:"heartbeat_ms"`
}

// HeartbeatRequest refreshes a lease and streams checkpoint progress.
// When the log is present it is the full accumulated log, never a
// delta: full-state heartbeats are idempotent under the dropped or
// duplicated deliveries a flaky network produces — no offset
// reconciliation to get wrong. Workers omit the log when no new chunk
// has flushed since the last acknowledged send, so keep-alive refreshes
// stay a few bytes even when the checkpoint log is large.
type HeartbeatRequest struct {
	// Strikes is the flushed strike count (chunk-aligned, monotonic).
	Strikes int `json:"strikes"`
	// Log is the cell's full checkpoint log so far.
	Log []byte `json:"log,omitempty"`
	// Abandon releases the lease (a draining worker): the item requeues
	// immediately, seeded from Log, instead of waiting out the TTL.
	Abandon bool `json:"abandon,omitempty"`
}

// HeartbeatResponse acknowledges a refresh. A dead lease answers 410
// Gone instead, telling the worker to stop work on the cell.
type HeartbeatResponse struct {
	OK bool `json:"ok"`
}

// CompleteRequest reports a leased cell's terminal outcome: a summary,
// or the cell's own deterministic failure.
type CompleteRequest struct {
	Error   string               `json:"error,omitempty"`
	Info    *campaign.StreamInfo `json:"info,omitempty"`
	Summary *campaign.Summary    `json:"summary,omitempty"`
}

// Counters are the coordinator's cumulative failure-handling tallies —
// the "observable, not silent" half of the fleet's robustness story.
type Counters struct {
	WorkersRegistered int `json:"workers_registered"`
	WorkersExpired    int `json:"workers_expired"`
	LeasesDispatched  int `json:"leases_dispatched"`
	LeaseExpiries     int `json:"lease_expiries"`
	// Requeues counts items put back on the queue after losing all their
	// leases; RequeuedStrikes totals the checkpoint-covered strikes those
	// items carried back (the work the lease loss did NOT cost).
	Requeues        int `json:"requeues"`
	RequeuedStrikes int `json:"requeued_strikes"`
	Abandons        int `json:"abandons"`
	// Steals counts speculative duplicate leases handed to idle workers
	// for straggling items.
	Steals           int `json:"steals"`
	Completions      int `json:"completions"`
	DuplicateResults int `json:"duplicate_results"`
	CellErrors       int `json:"cell_errors"`
	// LocalFallbacks counts cells the coordinator declined (zero healthy
	// workers, or an item out of attempts) and the service ran locally.
	LocalFallbacks int `json:"local_fallbacks"`
}

// WorkerHealth is one worker's row in the health report.
type WorkerHealth struct {
	ID           string `json:"id"`
	Name         string `json:"name,omitempty"`
	LastSeenMS   int64  `json:"last_seen_ms"` // age of last contact
	ActiveLeases int    `json:"active_leases"`
	Completed    int    `json:"completed"`
}

// LeaseHealth is one active lease's row in the health report.
type LeaseHealth struct {
	Lease   string `json:"lease"`
	Worker  string `json:"worker"`
	Key     string `json:"key"`
	Tenant  string `json:"tenant"`
	AgeMS   int64  `json:"age_ms"`
	Strikes int    `json:"strikes"`
	Total   int    `json:"total"`
}

// Health is GET /v1/fleet's body.
type Health struct {
	// Healthy reports at least one live worker.
	Healthy bool `json:"healthy"`
	// Workers lists registered workers, most recently seen first.
	Workers []WorkerHealth `json:"workers"`
	// QueueDepth is the number of items awaiting dispatch; TenantDepth
	// breaks it down by the tenant of the job each cell belongs to
	// (tenants with nothing queued are omitted).
	QueueDepth  int            `json:"queue_depth"`
	TenantDepth map[string]int `json:"tenant_depth,omitempty"`
	// ActiveItems is the number of items currently leased or queued.
	ActiveItems int           `json:"active_items"`
	Leases      []LeaseHealth `json:"leases"`
	Counters    Counters      `json:"counters"`
}

// Package service turns the campaign engine into a long-lived,
// multi-tenant job service: clients submit declarative Plans (PR 3) under
// a tenant namespace, a cost-priced weighted-fair queue (internal/sched)
// over per-tenant sub-queues feeds a bounded executor pool — within one
// tenant the old priority/FIFO order holds exactly — every cell streams
// through the engine with live progress, and the whole thing survives
// restarts — in-flight cells checkpoint continuously (campaign
// CheckpointSink) and a restarted manager resumes them from the last #CHK
// record with bit-identical final summaries (campaign.ResumePlanCell).
//
// Completed cell summaries are filed in a persistent content-addressed
// store under campaign.CellKey, so identical cells across jobs, clients
// and process lifetimes are served from disk instead of re-executed —
// the across-restart extension of the engine's in-process single-flight
// memo.
//
// The state directory layout is plain files:
//
//	state/
//	  store/ab/abcd...        content-addressed cell summaries (LRU GC)
//	  jobs/<id>/job.json      job record: plan, priority, state
//	  jobs/<id>/cell-3.log    checkpoint log of an in-flight cell
//	  jobs/<id>/cell-3.json   durable outcome of a completed cell
//	  jobs/<id>/result.json   final per-cell summaries of a finished job
package service

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"radcrit/internal/campaign"
	"radcrit/internal/sched"
	"radcrit/internal/store"
	"radcrit/internal/telemetry"
	"radcrit/internal/tenant"
)

// State is a job's lifecycle position.
type State string

const (
	// StateQueued covers both never-started jobs and jobs interrupted by
	// a daemon drain/crash: their checkpoint logs are on disk and the
	// next executor to pick them up resumes rather than restarts.
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final — the one lifecycle
// predicate, shared with the API layer (SSE stream end, client Wait).
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// CellStatus is one plan cell's live progress.
type CellStatus struct {
	// State is "pending", "running", "done" or "failed".
	State string `json:"state"`
	// Strikes is the number of strikes consumed so far (chunk-aligned).
	Strikes int `json:"strikes"`
	// Total is the cell's strike budget.
	Total int `json:"total"`
	// Cached marks a cell served from the content-addressed store.
	Cached bool `json:"cached,omitempty"`
	// Resumed marks a cell recovered from a checkpoint log.
	Resumed bool `json:"resumed,omitempty"`
	// Error is the cell's failure, if any.
	Error string `json:"error,omitempty"`
}

// Snapshot is a job's wire-facing status.
type Snapshot struct {
	ID           string       `json:"id"`
	Tenant       string       `json:"tenant,omitempty"`
	State        State        `json:"state"`
	Priority     int          `json:"priority"`
	Name         string       `json:"name,omitempty"`
	Cells        []CellStatus `json:"cells"`
	StrikesDone  int          `json:"strikes_done"`
	StrikesTotal int          `json:"strikes_total"`
	Error        string       `json:"error,omitempty"`
	Created      time.Time    `json:"created"`
	Started      *time.Time   `json:"started,omitempty"`
	Finished     *time.Time   `json:"finished,omitempty"`
}

// CellResult is one cell's completed outcome on the wire (and in the
// job's result.json / the store's entries). Summary floats survive the
// JSON round trip bit-exactly: encoding/json emits the shortest decimal
// that re-parses to the same float64.
type CellResult struct {
	Spec campaign.CellSpec `json:"spec"`
	// Key is the cell's content address (campaign.CellKey).
	Key string `json:"key,omitempty"`
	// Cached marks a summary served from the store instead of executed.
	Cached bool `json:"cached,omitempty"`
	// Resumed marks a summary completed from a checkpoint log after a
	// daemon restart.
	Resumed bool `json:"resumed,omitempty"`
	// Remote marks a summary computed by a fleet worker; Worker names it.
	// Observability only — remote summaries are byte-identical to local
	// ones, which is exactly what the chaos suite pins.
	Remote  bool                 `json:"remote,omitempty"`
	Worker  string               `json:"worker,omitempty"`
	Error   string               `json:"error,omitempty"`
	Info    *campaign.StreamInfo `json:"info,omitempty"`
	Summary *campaign.Summary    `json:"summary,omitempty"`
}

// JobResult is a finished job's record: one CellResult per completed
// cell, in plan order (a cancelled or failed job may hold fewer entries
// than the plan has cells).
type JobResult struct {
	ID         string       `json:"id"`
	State      State        `json:"state"`
	Name       string       `json:"name,omitempty"`
	Thresholds []float64    `json:"thresholds"`
	Cells      []CellResult `json:"cells"`
}

// ResultFromPlan renders an in-process PlanResult in the service's wire
// shape — the comparison form for "daemon result equals direct
// StreamRunner run" checks (CI's service smoke, the API's e2e suite).
func ResultFromPlan(id string, res *campaign.PlanResult) *JobResult {
	jr := &JobResult{
		ID:         id,
		State:      StateDone,
		Name:       res.Plan.Name,
		Thresholds: append([]float64(nil), res.Thresholds...),
	}
	for i, out := range res.Cells {
		cr := CellResult{Spec: out.Spec, Key: res.Plan.CellKey(i)}
		if out.Err != nil {
			cr.Error = out.Err.Error()
			jr.State = StateFailed
		}
		if out.Summary != nil {
			info := out.Info
			cr.Info = &info
			cr.Summary = out.Summary
		}
		jr.Cells = append(jr.Cells, cr)
	}
	return jr
}

// StoreRecord is the content-addressed store's entry payload.
type StoreRecord struct {
	Key     string               `json:"key"`
	Spec    campaign.CellSpec    `json:"spec"`
	Info    *campaign.StreamInfo `json:"info"`
	Summary *campaign.Summary    `json:"summary"`
}

// Event is one progress notification on a job's event stream.
type Event struct {
	// Type is "state" (job state change), "cell" (cell finished) or
	// "chunk" (strike progress within a cell).
	Type string `json:"type"`
	// Seq orders the job's events (1, 2, 3, ...). The SSE handler emits
	// it as the event id, and SubscribeFrom replays events after a given
	// seq from the job's ring buffer — the server half of Last-Event-ID
	// reconnect resume.
	Seq    uint64 `json:"seq,omitempty"`
	JobID  string `json:"job"`
	State  State  `json:"state,omitempty"`
	Cell   int    `json:"cell"`
	Done   int    `json:"done,omitempty"`
	Total  int    `json:"total,omitempty"`
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
}

// eventRingCap bounds the per-job replay ring behind Last-Event-ID
// resume. A reconnecting client further behind than this still gets the
// full status snapshot first, so nothing is ever wrong — only the replay
// is best-effort.
const eventRingCap = 512

// Job is the manager's record of one submitted plan. All mutable fields
// are guarded by the manager's mutex; handlers only ever see copies
// (Snapshot, JobResult).
type Job struct {
	ID       string
	Tenant   string
	Seq      uint64
	Priority int
	Plan     *campaign.Plan

	State    State
	Error    string
	Created  time.Time
	Started  *time.Time
	Finished *time.Time

	cells      []CellStatus
	outcomes   []CellResult
	result     *JobResult
	cancel     context.CancelFunc // non-nil while running
	userCancel bool
	eventSeq   uint64
	events     []Event // ring of the last eventRingCap published events
}

// jobRecord is job.json: what survives a restart.
type jobRecord struct {
	ID       string         `json:"id"`
	Tenant   string         `json:"tenant,omitempty"`
	Seq      uint64         `json:"seq"`
	Priority int            `json:"priority"`
	State    State          `json:"state"`
	Error    string         `json:"error,omitempty"`
	Created  time.Time      `json:"created"`
	Plan     *campaign.Plan `json:"plan"`
}

// Options configures a Manager.
type Options struct {
	// StateDir is the root of all persistent state (jobs + store).
	StateDir string
	// Executors bounds how many jobs run concurrently (default 2). Each
	// job's strike-level parallelism is its plan's Workers setting.
	Executors int
	// StoreCap is the content-addressed store's size cap in bytes; the
	// LRU GC runs after every store write. <= 0 disables eviction.
	StoreCap int64
	// MaxJobs bounds how many job records the manager retains. When a
	// submission would exceed it, the oldest *terminal* jobs are pruned —
	// in-memory record and jobs/<id>/ directory alike (their deduplicated
	// cell summaries live on in the store). Queued and running jobs are
	// never pruned. <= 0 selects the default of 1024.
	MaxJobs int
	// Backend overrides the content-addressed result store (nil opens the
	// disk store at StateDir/store). Keys written on behalf of non-default
	// tenants carry store.TenantPrefix, so tenants never share dedup hits.
	Backend store.Backend
	// Tenants is the registry consulted for scheduling weights and
	// admission quotas (nil builds an in-memory registry holding only the
	// unlimited default tenant — the pre-tenancy behaviour).
	Tenants *tenant.Registry
	// Remote, when non-nil, offers each cell to a remote executor (the
	// fleet coordinator) before running it locally. With a Remote set, a
	// job's cells are dispatched concurrently — sharded across whatever
	// workers the fleet has — while local fallback execution stays
	// serialised per job, so a fleetless manager behaves exactly like the
	// sequential one.
	Remote RemoteRunner
	// Metrics, when non-nil, instruments the manager on that registry:
	// job/cell transition counters, queue-depth and fairness-drift
	// collectors, store hit/miss metering (the backend is wrapped), and
	// per-chunk engine metering on locally executed cells. Nil runs
	// unmetered with zero overhead.
	Metrics *telemetry.Registry
}

// ErrNotFinished is returned by Result for a job still queued or running.
var ErrNotFinished = errors.New("service: job has not finished")

// ErrUnknownJob is returned for job IDs the manager has never seen.
var ErrUnknownJob = errors.New("service: unknown job")

// ErrDraining is returned by Submit once a drain has begun.
var ErrDraining = errors.New("service: manager is draining")

// ErrUnknownTenant is returned by SubmitAs for unregistered tenants.
var ErrUnknownTenant = errors.New("service: unknown tenant")

// QuotaError rejects a submission that would exceed the tenant's
// admission quotas. The API layer renders it as 429 with a Retry-After
// header; RetryAfter estimates when the tenant's backlog will have
// drained enough for the submission to fit, from the cost model's
// pricing of its outstanding work.
type QuotaError struct {
	Tenant     string
	Detail     string
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("service: tenant %q over quota: %s", e.Tenant, e.Detail)
}

// Manager owns the queue, the executor pool, the job table and the
// result store. Create with New, start executors with Start, stop with
// Drain — which checkpoints in-flight jobs so a successor Manager on the
// same state directory resumes them.
type Manager struct {
	opts    Options
	store   store.Backend
	tenants *tenant.Registry
	cost    sched.CostModel
	metrics *managerMetrics // nil when Options.Metrics is nil

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu     sync.Mutex
	cond   *sync.Cond
	jobs   map[string]*Job
	queue  *sched.Queue[*Job]
	seq    uint64
	closed bool
	subs   map[string]map[chan Event]bool
}

// New opens (or creates) the state directory, loads persisted jobs —
// re-queueing any that were queued or running when the previous process
// stopped — and opens the content-addressed store. Call Start to begin
// executing.
func New(opts Options) (*Manager, error) {
	if opts.StateDir == "" {
		return nil, fmt.Errorf("service: Options.StateDir is required")
	}
	if opts.Executors <= 0 {
		opts.Executors = 2
	}
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = 1024
	}
	backend := opts.Backend
	if backend == nil {
		st, err := store.Open(filepath.Join(opts.StateDir, "store"))
		if err != nil {
			return nil, err
		}
		backend = st
	}
	tenants := opts.Tenants
	if tenants == nil {
		tenants = tenant.NewRegistry()
	}
	if opts.Metrics != nil {
		backend = store.NewMetrics(opts.Metrics).Wrap(backend, backendName(backend))
	}
	if err := os.MkdirAll(filepath.Join(opts.StateDir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		opts:       opts,
		store:      backend,
		tenants:    tenants,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       map[string]*Job{},
		queue:      sched.NewQueue[*Job](),
		subs:       map[string]map[chan Event]bool{},
	}
	m.cond = sync.NewCond(&m.mu)
	if opts.Metrics != nil {
		m.metrics = newManagerMetrics(opts.Metrics, m)
	}
	if err := m.load(); err != nil {
		cancel()
		return nil, err
	}
	return m, nil
}

// Store exposes the result store backend (stats endpoints, tests).
func (m *Manager) Store() store.Backend { return m.store }

// Tenants exposes the tenant registry (API middleware, tests).
func (m *Manager) Tenants() *tenant.Registry { return m.tenants }

// load restores the job table from the state directory.
func (m *Manager) load() error {
	entries, err := os.ReadDir(filepath.Join(m.opts.StateDir, "jobs"))
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	var loaded []*Job
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(m.opts.StateDir, "jobs", e.Name(), "job.json"))
		if err != nil {
			continue // half-created job dir: ignore
		}
		var rec jobRecord
		if err := json.Unmarshal(data, &rec); err != nil || rec.ID == "" || rec.Plan == nil {
			continue
		}
		if err := rec.Plan.Validate(); err != nil {
			continue // a plan this build can no longer run (deregistered kernel)
		}
		j := &Job{
			ID:       rec.ID,
			Tenant:   rec.Tenant,
			Seq:      rec.Seq,
			Priority: rec.Priority,
			Plan:     rec.Plan,
			State:    rec.State,
			Error:    rec.Error,
			Created:  rec.Created,
		}
		if j.Tenant == "" {
			j.Tenant = tenant.Default // records from a pre-tenancy daemon
		}
		j.cells = newCellStatuses(rec.Plan)
		// A job that was mid-flight when the previous process stopped is
		// simply queued again: its completed cells reload from
		// cell-<i>.json and its in-flight cell resumes from its log.
		if j.State == StateRunning {
			j.State = StateQueued
		}
		m.markRestoredCells(j)
		loaded = append(loaded, j)
	}
	sort.Slice(loaded, func(i, k int) bool { return loaded[i].Seq < loaded[k].Seq })
	for _, j := range loaded {
		m.jobs[j.ID] = j
		if j.Seq >= m.seq {
			m.seq = j.Seq + 1
		}
		if j.State == StateQueued {
			m.enqueueLocked(j)
			m.persistJobLocked(j) // running -> queued transition
		}
	}
	m.pruneJobsLocked()
	return nil
}

// markRestoredCells fills a reloaded job's cell statuses from its durable
// per-cell outcomes, so status reads are accurate before re-execution.
func (m *Manager) markRestoredCells(j *Job) {
	for i := range j.cells {
		data, err := os.ReadFile(m.cellResultPath(j.ID, i))
		if err != nil {
			continue
		}
		var cr CellResult
		if json.Unmarshal(data, &cr) != nil {
			continue
		}
		if cr.Summary != nil || cr.Error != "" {
			j.cells[i] = cellStatusOf(&cr, j.cells[i].Total)
		}
	}
}

func newCellStatuses(p *campaign.Plan) []CellStatus {
	cells := make([]CellStatus, len(p.Cells))
	for i := range cells {
		cells[i] = CellStatus{State: "pending", Total: p.Strikes}
	}
	return cells
}

// Start launches the executor pool.
func (m *Manager) Start() {
	for i := 0; i < m.opts.Executors; i++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for {
				j := m.next()
				if j == nil {
					return
				}
				if m.metrics != nil {
					m.metrics.busy.Add(1)
				}
				m.runJob(m.baseCtx, j)
				if m.metrics != nil {
					m.metrics.busy.Add(-1)
				}
			}
		}()
	}
}

// next blocks until a job is available or the manager is draining.
func (m *Manager) next() *Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.queue.Len() == 0 && !m.closed {
		m.cond.Wait()
	}
	if m.closed {
		return nil
	}
	j, _ := m.queue.Pop()
	return j
}

// enqueueLocked pushes a queued job into the weighted-fair queue, pricing
// it with the cost model and the tenant's current weight.
func (m *Manager) enqueueLocked(j *Job) {
	m.queue.Push(j.Tenant, m.tenants.Weight(j.Tenant), j.Priority, j.Seq, m.jobCost(j.Plan), j)
}

// jobCost prices a whole plan: the sum of its cells' estimated execution
// charges. This is the charge the weighted-fair queue spends against the
// tenant's virtual time when the job is popped.
func (m *Manager) jobCost(p *campaign.Plan) uint64 {
	var total uint64
	for _, c := range p.Cells {
		total += m.cost.CellCost(c.Kernel, p.Strikes)
	}
	if total == 0 {
		total = 1
	}
	return total
}

// Drain stops the service gracefully: no new submissions, queued jobs
// stay queued, and running jobs are cancelled at their next chunk
// boundary — their checkpoint logs already cover everything before it —
// then persisted as queued so a successor Manager on the same state
// directory resumes them. Blocks until the executors have exited or ctx
// expires.
func (m *Manager) Drain(ctx context.Context) error {
	begin := time.Now()
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
	m.baseCancel()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		if m.metrics != nil {
			m.metrics.drain.Set(time.Since(begin).Seconds())
		}
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain: %w", ctx.Err())
	}
}

// Submit validates and enqueues a plan for the default tenant at the
// given priority (within a tenant, higher runs first and equal priorities
// run in submission order) and returns the new job's snapshot.
func (m *Manager) Submit(p *campaign.Plan, priority int) (Snapshot, error) {
	return m.SubmitAs(tenant.Default, p, priority)
}

// SubmitAs is Submit under a tenant namespace: the tenant must be
// registered, its admission quotas are checked against its outstanding
// work (a breach returns a *QuotaError carrying a Retry-After estimate),
// and the job is queued into the tenant's weighted-fair sub-queue.
func (m *Manager) SubmitAs(tenantName string, p *campaign.Plan, priority int) (Snapshot, error) {
	if err := p.Validate(); err != nil {
		return Snapshot{}, err
	}
	tn, ok := m.tenants.Get(tenantName)
	if !ok {
		return Snapshot{}, fmt.Errorf("%w: %q", ErrUnknownTenant, tenantName)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Snapshot{}, ErrDraining
	}
	if qerr := m.checkQuotasLocked(tn, p); qerr != nil {
		return Snapshot{}, qerr
	}
	id, err := m.newIDLocked()
	if err != nil {
		return Snapshot{}, err
	}
	j := &Job{
		ID:       id,
		Tenant:   tn.Name,
		Seq:      m.seq,
		Priority: priority,
		Plan:     p,
		State:    StateQueued,
		Created:  time.Now(),
		cells:    newCellStatuses(p),
	}
	m.seq++
	if err := os.MkdirAll(m.jobDir(id), 0o755); err != nil {
		return Snapshot{}, fmt.Errorf("service: %w", err)
	}
	if err := m.persistJobLocked(j); err != nil {
		return Snapshot{}, err
	}
	m.jobs[id] = j
	m.enqueueLocked(j)
	m.metrics.countState(j.Tenant, StateQueued)
	m.cond.Signal()
	m.pruneJobsLocked()
	return m.snapshotLocked(j), nil
}

// ReloadTenants re-reads tenants.json (tenant.Registry.Reload) and
// re-weights the scheduler's live sub-queues so new weights take effect
// on the very next Pop, not the next submission. Only tenants present in
// the reloaded registry are touched: a tenant deleted from the file
// keeps its last admitted weight until its queued jobs drain, which is
// exactly the "removed tenants drain under their old weight" contract.
// The SIGHUP handler and POST /v1/tenants/reload both land here.
func (m *Manager) ReloadTenants() error {
	if err := m.tenants.Reload(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, t := range m.tenants.All() {
		m.queue.SetWeight(t.Name, t.EffectiveWeight())
	}
	return nil
}

// tenantUsage aggregates one tenant's outstanding (non-terminal) work.
type tenantUsage struct {
	queuedJobs     int
	inflightCells  int
	plannedStrikes int
	outstandingNS  uint64
}

func (m *Manager) tenantUsageLocked(name string) tenantUsage {
	var u tenantUsage
	for _, j := range m.jobs {
		if j.Tenant != name || j.State.Terminal() {
			continue
		}
		if j.State == StateQueued {
			u.queuedJobs++
		}
		for _, c := range j.cells {
			if c.State != "done" && c.State != "failed" {
				u.inflightCells++
			}
		}
		u.plannedStrikes += j.Plan.Strikes * len(j.Plan.Cells)
		u.outstandingNS += m.jobCost(j.Plan)
	}
	return u
}

// checkQuotasLocked admits or rejects one submission against the
// tenant's quotas. The Retry-After estimate divides the tenant's
// outstanding priced work across the executor pool — deterministic, and
// honest enough to spread thundering-herd retries.
func (m *Manager) checkQuotasLocked(tn tenant.Tenant, p *campaign.Plan) error {
	q := tn.Quotas
	if q == (tenant.Quotas{}) {
		return nil
	}
	u := m.tenantUsageLocked(tn.Name)
	retryAfter := func() time.Duration {
		d := time.Duration(u.outstandingNS/uint64(m.opts.Executors)) * time.Nanosecond
		if d < time.Second {
			d = time.Second
		}
		if d > time.Minute {
			d = time.Minute
		}
		return d
	}
	if q.MaxQueuedJobs > 0 && u.queuedJobs+1 > q.MaxQueuedJobs {
		return &QuotaError{Tenant: tn.Name, RetryAfter: retryAfter(),
			Detail: fmt.Sprintf("queued jobs %d at limit %d", u.queuedJobs, q.MaxQueuedJobs)}
	}
	if q.MaxInflightCells > 0 && u.inflightCells+len(p.Cells) > q.MaxInflightCells {
		return &QuotaError{Tenant: tn.Name, RetryAfter: retryAfter(),
			Detail: fmt.Sprintf("in-flight cells %d + %d over limit %d", u.inflightCells, len(p.Cells), q.MaxInflightCells)}
	}
	add := p.Strikes * len(p.Cells)
	if q.MaxPlannedStrikes > 0 && u.plannedStrikes+add > q.MaxPlannedStrikes {
		return &QuotaError{Tenant: tn.Name, RetryAfter: retryAfter(),
			Detail: fmt.Sprintf("planned strikes %d + %d over limit %d", u.plannedStrikes, add, q.MaxPlannedStrikes)}
	}
	return nil
}

// pruneJobsLocked evicts the oldest terminal jobs once the table exceeds
// Options.MaxJobs, so a long-lived daemon's job state stays bounded the
// same way its result store does.
func (m *Manager) pruneJobsLocked() {
	excess := len(m.jobs) - m.opts.MaxJobs
	if excess <= 0 {
		return
	}
	var done []*Job
	for _, j := range m.jobs {
		if j.State.Terminal() {
			done = append(done, j)
		}
	}
	sort.Slice(done, func(i, k int) bool { return done[i].Seq < done[k].Seq })
	if excess > len(done) {
		excess = len(done)
	}
	for _, j := range done[:excess] {
		delete(m.jobs, j.ID)
		_ = os.RemoveAll(m.jobDir(j.ID))
		for ch := range m.subs[j.ID] {
			close(ch) // unsub tolerates this: it re-checks membership
		}
		delete(m.subs, j.ID)
	}
}

// newIDLocked draws a fresh random job ID.
func (m *Manager) newIDLocked() (string, error) {
	for range [8]int{} {
		var b [6]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "", fmt.Errorf("service: %w", err)
		}
		id := "j-" + hex.EncodeToString(b[:])
		if _, taken := m.jobs[id]; !taken {
			return id, nil
		}
	}
	return "", fmt.Errorf("service: could not allocate a job id")
}

// Job returns a job's snapshot.
func (m *Manager) Job(id string) (Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Snapshot{}, ErrUnknownJob
	}
	return m.snapshotLocked(j), nil
}

// Jobs lists every known job in submission order.
func (m *Manager) Jobs() []Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Snapshot, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, m.snapshotLocked(j))
	}
	sort.Slice(out, func(i, k int) bool {
		return out[i].Created.Before(out[k].Created) || (out[i].Created.Equal(out[k].Created) && out[i].ID < out[k].ID)
	})
	return out
}

// TenantStat is one tenant's live scheduling picture: weight, queue
// depth, per-state job counts and strike progress. The API surfaces it
// on /v1/tenants, the fleet health JSON and the jobs listing; radload
// samples it mid-drain to measure fairness while both tenants still
// have backlog.
type TenantStat struct {
	Tenant       string        `json:"tenant"`
	Weight       int           `json:"weight"`
	QueueDepth   int           `json:"queue_depth"`
	Jobs         map[State]int `json:"jobs,omitempty"`
	StrikesDone  int           `json:"strikes_done"`
	StrikesTotal int           `json:"strikes_total"`
}

// TenantStats reports every registered tenant (idle ones included) plus
// any tenant that still owns job records, sorted by name.
func (m *Manager) TenantStats() []TenantStat {
	m.mu.Lock()
	defer m.mu.Unlock()
	stats := map[string]*TenantStat{}
	get := func(name string) *TenantStat {
		ts, ok := stats[name]
		if !ok {
			ts = &TenantStat{Tenant: name, Weight: m.tenants.Weight(name), Jobs: map[State]int{}}
			stats[name] = ts
		}
		return ts
	}
	for _, t := range m.tenants.All() {
		get(t.Name)
	}
	for _, j := range m.jobs {
		ts := get(j.Tenant)
		ts.Jobs[j.State]++
		ts.StrikesTotal += j.Plan.Strikes * len(j.Plan.Cells)
		for _, c := range j.cells {
			ts.StrikesDone += c.Strikes
		}
	}
	for name, depth := range m.queue.Depths() {
		get(name).QueueDepth = depth
	}
	out := make([]TenantStat, 0, len(stats))
	for _, ts := range stats {
		out = append(out, *ts)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Tenant < out[k].Tenant })
	return out
}

// Result returns a finished job's per-cell summaries (ErrNotFinished
// while the job is queued or running).
func (m *Manager) Result(id string) (*JobResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	if !j.State.Terminal() {
		return nil, ErrNotFinished
	}
	if j.result == nil {
		data, err := os.ReadFile(m.resultPath(id))
		if err != nil {
			return nil, fmt.Errorf("service: job %s result: %w", id, err)
		}
		var jr JobResult
		if err := json.Unmarshal(data, &jr); err != nil {
			return nil, fmt.Errorf("service: job %s result: %w", id, err)
		}
		j.result = &jr
	}
	return j.result, nil
}

// Cancel stops a job: a queued job is cancelled immediately, a running
// one at its next chunk boundary. Terminal jobs are left as they are.
func (m *Manager) Cancel(id string) (Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Snapshot{}, ErrUnknownJob
	}
	switch {
	case j.State == StateQueued:
		m.queue.Remove(j.Tenant, j.Seq)
		j.State = StateCancelled
		m.metrics.countState(j.Tenant, StateCancelled)
		j.Error = "cancelled by client"
		now := time.Now()
		j.Finished = &now
		j.userCancel = true
		m.removeCellLogsLocked(j)
		m.writeResultLocked(j)
		m.persistJobLocked(j)
		m.publishLocked(Event{Type: "state", JobID: j.ID, State: j.State, Error: j.Error})
	case j.State == StateRunning:
		j.userCancel = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	return m.snapshotLocked(j), nil
}

// SubscribeFrom attaches an event channel to a job, with Last-Event-ID
// resume. Events are dropped, not blocked on, when the subscriber lags;
// the returned function detaches and closes the channel. Events already
// published with Seq > afterSeq are returned as a backlog (replayed from
// the job's bounded ring — a subscriber further behind than the ring
// reaches simply gets a shorter backlog, and should rely on a fresh
// status snapshot instead), and the channel carries everything after.
// afterSeq 0 asks for no replay.
func (m *Manager) SubscribeFrom(id string, afterSeq uint64) ([]Event, <-chan Event, func(), error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, nil, nil, ErrUnknownJob
	}
	var backlog []Event
	if afterSeq > 0 {
		for _, ev := range j.events {
			if ev.Seq > afterSeq {
				backlog = append(backlog, ev)
			}
		}
	}
	ch := make(chan Event, 256)
	if m.subs[id] == nil {
		m.subs[id] = map[chan Event]bool{}
	}
	m.subs[id][ch] = true
	unsub := func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.subs[id][ch] {
			delete(m.subs[id], ch)
			close(ch)
		}
	}
	return backlog, ch, unsub, nil
}

func (m *Manager) publishLocked(ev Event) {
	if j, ok := m.jobs[ev.JobID]; ok {
		j.eventSeq++
		ev.Seq = j.eventSeq
		j.events = append(j.events, ev)
		if len(j.events) > eventRingCap {
			j.events = j.events[len(j.events)-eventRingCap:]
		}
	}
	for ch := range m.subs[ev.JobID] {
		select {
		case ch <- ev:
		default:
			// Slow subscriber: drop rather than stall the engine. A
			// terminal state event must not vanish, though — the SSE
			// handler ends its stream on it — so a subscriber too far
			// behind to receive one has its channel closed instead, which
			// ends the stream just the same.
			if ev.Type == "state" && ev.State.Terminal() {
				delete(m.subs[ev.JobID], ch)
				close(ch)
			}
		}
	}
}

func (m *Manager) snapshotLocked(j *Job) Snapshot {
	s := Snapshot{
		ID:           j.ID,
		Tenant:       j.Tenant,
		State:        j.State,
		Priority:     j.Priority,
		Name:         j.Plan.Name,
		Cells:        append([]CellStatus(nil), j.cells...),
		StrikesTotal: j.Plan.Strikes * len(j.Plan.Cells),
		Error:        j.Error,
		Created:      j.Created,
		Started:      j.Started,
		Finished:     j.Finished,
	}
	for _, c := range j.cells {
		s.StrikesDone += c.Strikes
	}
	return s
}

// --- persistence paths ---

func (m *Manager) jobDir(id string) string {
	return filepath.Join(m.opts.StateDir, "jobs", id)
}
func (m *Manager) cellLogPath(id string, i int) string {
	return filepath.Join(m.jobDir(id), fmt.Sprintf("cell-%d.log", i))
}
func (m *Manager) cellResultPath(id string, i int) string {
	return filepath.Join(m.jobDir(id), fmt.Sprintf("cell-%d.json", i))
}
func (m *Manager) resultPath(id string) string {
	return filepath.Join(m.jobDir(id), "result.json")
}

// persistJobLocked writes job.json atomically.
func (m *Manager) persistJobLocked(j *Job) error {
	rec := jobRecord{
		ID:       j.ID,
		Tenant:   j.Tenant,
		Seq:      j.Seq,
		Priority: j.Priority,
		State:    j.State,
		Error:    j.Error,
		Created:  j.Created,
		Plan:     j.Plan,
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	return writeFileAtomic(filepath.Join(m.jobDir(j.ID), "job.json"), data)
}

// writeResultLocked materialises result.json from the in-memory outcomes.
func (m *Manager) writeResultLocked(j *Job) {
	jr := &JobResult{
		ID:         j.ID,
		State:      j.State,
		Name:       j.Plan.Name,
		Thresholds: j.Plan.EffectiveThresholds(),
		Cells:      append([]CellResult(nil), j.outcomes...),
	}
	j.result = jr
	if data, err := json.MarshalIndent(jr, "", "  "); err == nil {
		_ = writeFileAtomic(m.resultPath(j.ID), data)
	}
}

func (m *Manager) removeCellLogsLocked(j *Job) {
	for i := range j.Plan.Cells {
		_ = os.Remove(m.cellLogPath(j.ID, i))
	}
}

func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	return nil
}

// --- execution ---

// isCancellation mirrors the campaign engine's definition: the caller's
// context speaking, never a cell's own failure.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// runJob executes one job to completion, cancellation or interruption.
func (m *Manager) runJob(ctx context.Context, j *Job) {
	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	m.mu.Lock()
	if j.State.Terminal() {
		// A client cancelled the job in the window between the executor
		// popping it off the queue and this claim: the cancellation
		// already wrote its final state and result — do not resurrect it.
		m.mu.Unlock()
		return
	}
	j.State = StateRunning
	j.cancel = cancel
	now := time.Now()
	j.Started = &now
	_ = m.persistJobLocked(j)
	m.metrics.countState(j.Tenant, StateRunning)
	m.publishLocked(Event{Type: "state", JobID: j.ID, State: StateRunning})
	m.mu.Unlock()

	cfg := j.Plan.Config()
	ts := j.Plan.EffectiveThresholds()
	// One loop for both dispatch modes. Each cell builds its own kernel
	// (the golden simulations) only when it has to run, so cells served
	// from the job record or the store never pay for construction, and a
	// construction failure is that cell's error. Without a fleet the cells
	// run in plan order on this goroutine until the job is cancelled.
	// With one every cell is dispatched concurrently: remote execution
	// waits on its own lease, while local fallback work is serialised
	// through localMu so a degraded job loads the host exactly like the
	// sequential path. A cell that cancellation interrupted or never
	// started is absent from the outcomes (its durable record or
	// checkpoint log carries it across the requeue).
	n := len(j.Plan.Cells)
	results := make([]CellResult, n)
	errs := make([]error, n)
	var localMu sync.Mutex
	var wg sync.WaitGroup
	for i := range n {
		if m.opts.Remote != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i], errs[i] = m.runCell(jctx, j, i, &localMu, cfg, ts)
			}()
			continue
		}
		if errs[i] = jctx.Err(); errs[i] == nil {
			results[i], errs[i] = m.runCell(jctx, j, i, &localMu, cfg, ts)
		}
	}
	wg.Wait()
	var outcomes []CellResult
	var stop error
	for i := range n {
		if errs[i] != nil {
			if stop == nil {
				stop = errs[i]
			}
			continue
		}
		outcomes = append(outcomes, results[i])
	}
	m.finishJob(j, outcomes, stop)
}

// finishJob resolves the job's final (or re-queued) state.
func (m *Manager) finishJob(j *Job, outcomes []CellResult, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j.outcomes = outcomes
	j.cancel = nil
	switch {
	case err != nil && isCancellation(err) && j.userCancel:
		j.State = StateCancelled
		j.Error = "cancelled by client"
		m.removeCellLogsLocked(j)
	case err != nil && isCancellation(err):
		// Drain interruption: the job goes back to queued with its
		// checkpoint logs intact; the next incarnation of the manager
		// resumes it. (Executors are exiting — no local re-enqueue.)
		j.State = StateQueued
		j.Started = nil
	case err != nil:
		j.State = StateFailed
		j.Error = err.Error()
	default:
		j.State = StateDone
		for _, o := range outcomes {
			if o.Error != "" {
				j.State = StateFailed
				j.Error = "one or more cells failed"
				break
			}
		}
	}
	if j.State.Terminal() {
		now := time.Now()
		j.Finished = &now
		m.writeResultLocked(j)
	}
	m.metrics.countState(j.Tenant, j.State)
	_ = m.persistJobLocked(j)
	m.publishLocked(Event{Type: "state", JobID: j.ID, State: j.State, Error: j.Error})
}

// chunkProgress relays a cell's chunk boundary into live job status and
// the event stream.
func (m *Manager) chunkProgress(j *Job, cell, next int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j.cells[cell].Strikes = next
	m.publishLocked(Event{
		Type: "chunk", JobID: j.ID, Cell: cell,
		Done: next, Total: j.cells[cell].Total,
	})
}

// setCellState updates one cell's live status and emits a cell event for
// terminal cell states.
func (m *Manager) setCellState(j *Job, i int, cs CellStatus, emit bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j.cells[i] = cs
	if emit {
		m.publishLocked(Event{
			Type: "cell", JobID: j.ID, Cell: i,
			Done: cs.Strikes, Total: cs.Total,
			Cached: cs.Cached, Error: cs.Error,
		})
	}
}

// runCell produces one cell's outcome: from the job's own durable record
// (a previous incarnation finished it), from the content-addressed store
// (any job anywhere computed an identical cell), remotely through the
// fleet (when Options.Remote is set and has healthy workers), or locally
// under its checkpoint log — resuming whatever prefix an interrupted
// previous incarnation, local or remote, left there, or from strike 0
// when there is none. Local engine work is serialised through localMu so
// sharded dispatch never oversubscribes the host. Only cancellation is
// returned as an error; cell failures are recorded in the outcome.
func (m *Manager) runCell(jctx context.Context, j *Job, i int, localMu *sync.Mutex, cfg campaign.Config, ts []float64) (CellResult, error) {
	spec := j.Plan.Cells[i]
	total := cfg.Strikes
	cr := CellResult{Spec: spec, Key: campaign.CellKey(spec, cfg, ts)}
	// The wire-facing Key stays the canonical content address (identical
	// to a direct StreamRunner run's), but store accesses go through the
	// tenant-prefixed key so namespaces never share dedup hits. The
	// default tenant is unprefixed: pre-tenancy state directories keep
	// their entries.
	skey := store.TenantPrefix(j.Tenant) + cr.Key
	logPath := m.cellLogPath(j.ID, i)

	// A previous incarnation of this job already finished this cell.
	if data, err := os.ReadFile(m.cellResultPath(j.ID, i)); err == nil {
		var prev CellResult
		if json.Unmarshal(data, &prev) == nil && (prev.Summary != nil || prev.Error != "") {
			_ = os.Remove(logPath) // a stale checkpoint log has nothing left to resume
			m.setCellState(j, i, cellStatusOf(&prev, total), true)
			return prev, nil
		}
	}

	// Content-addressed store: identical cell already computed anywhere
	// in this tenant's namespace.
	if data, ok := m.store.Get(skey); ok {
		var rec StoreRecord
		if err := json.Unmarshal(data, &rec); err == nil && rec.Summary != nil {
			cr.Cached = true
			cr.Info = rec.Info
			cr.Summary = rec.Summary
			_ = os.Remove(logPath) // ditto: the store superseded the in-flight log
			m.finishCell(j, i, &cr, total)
			return cr, nil
		}
		_ = m.store.Delete(skey) // torn/alien entry: recompute
	}

	m.setCellState(j, i, CellStatus{State: "running", Total: total}, false)
	progress := func(next int) { m.chunkProgress(j, i, next) }
	// Local sinks: the progress relay plus, when metered, the strike
	// sink (children resolved once here, flushed at chunk boundaries).
	sinks := []campaign.Sink{campaign.FlushFunc(progress)}
	if ss := m.metrics.sink(spec.Kernel, spec.Device); ss != nil {
		sinks = append(sinks, ss)
	}

	var info campaign.StreamInfo
	var sum *campaign.Summary
	var runErr error
	resumed := false
	ran := false

	if m.opts.Remote != nil {
		prev, _ := os.ReadFile(logPath)
		res, rerr := m.opts.Remote.RunRemote(jctx, RemoteCell{
			JobID: j.ID, Cell: i, Spec: spec, Cfg: cfg, Thresholds: ts, Key: cr.Key,
			Tenant: j.Tenant, Weight: m.tenants.Weight(j.Tenant),
			CostNS:   m.cost.CellCost(spec.Kernel, cfg.Strikes),
			PrevLog:  prev,
			Progress: progress,
			SaveLog:  func(log []byte) { _ = writeFileAtomic(logPath, log) },
		})
		switch {
		case rerr == nil:
			info, sum = res.Info, res.Summary
			cr.Remote, cr.Worker = true, res.Worker
			resumed = len(prev) > 0
			ran = true
		case errors.Is(rerr, ErrRemoteUnavailable):
			// Degrade to local execution below. Any prefix a worker
			// streamed before the fleet gave up is in the cell log, so the
			// local run picks up from the last #CHK record.
		case isCancellation(rerr):
			runErr = rerr
			ran = true
		default:
			// A worker's authoritative cell failure (the engine is
			// deterministic — re-running elsewhere would fail identically).
			runErr = rerr
			ran = true
		}
	}

	if !ran {
		cell, cerr := campaign.BuildCell(spec)
		if cerr != nil {
			runErr = cerr // construction failure: recorded as the cell's error
		} else {
			localMu.Lock()
			prev, _ := os.ReadFile(logPath)
			resumed = len(prev) > 0
			info, sum, runErr = m.loggedCell(jctx, prev, logPath, cell, cfg, ts, sinks)
			if resumed && runErr != nil && !isCancellation(runErr) {
				// The log could not be resumed (damaged beyond salvage, or it
				// describes something else): discard it and run fresh rather
				// than wedging the job forever.
				_ = os.Remove(logPath)
				resumed = false
				info, sum, runErr = m.loggedCell(jctx, nil, logPath, cell, cfg, ts, sinks)
			}
			localMu.Unlock()
		}
	}
	cr.Resumed = resumed

	if runErr != nil {
		if isCancellation(runErr) {
			// Leave the checkpoint log for the next incarnation; the cell
			// returns to pending with its consumed-strike count intact.
			m.mu.Lock()
			j.cells[i].State = "pending"
			m.mu.Unlock()
			return cr, runErr
		}
		cr.Error = runErr.Error()
		_ = os.Remove(logPath)
		m.finishCell(j, i, &cr, total)
		return cr, nil
	}

	cr.Info = &info
	cr.Summary = sum
	if data, err := json.Marshal(StoreRecord{Key: cr.Key, Spec: spec, Info: cr.Info, Summary: sum}); err == nil {
		if m.store.Put(skey, data) == nil && m.opts.StoreCap > 0 {
			_, _, _ = m.store.GC(m.opts.StoreCap)
		}
	}
	m.finishCell(j, i, &cr, total)
	_ = os.Remove(logPath)
	return cr, nil
}

// finishCell persists a completed cell outcome and updates live status.
func (m *Manager) finishCell(j *Job, i int, cr *CellResult, total int) {
	m.metrics.countCell(j.Tenant, cr)
	if data, err := json.MarshalIndent(cr, "", "  "); err == nil {
		_ = writeFileAtomic(m.cellResultPath(j.ID, i), data)
	}
	m.setCellState(j, i, cellStatusOf(cr, total), true)
}

func cellStatusOf(cr *CellResult, total int) CellStatus {
	cs := CellStatus{Total: total, Cached: cr.Cached, Resumed: cr.Resumed}
	if cr.Error != "" {
		cs.State = "failed"
		cs.Error = cr.Error
	} else {
		cs.State = "done"
		// An adaptively stopped cell consumes fewer strikes than planned;
		// the recorded Info carries the true count. Total is the fallback
		// for records persisted before Info existed.
		cs.Strikes = total
		if cr.Info != nil {
			cs.Strikes = cr.Info.Strikes
		}
	}
	return cs
}

// loggedCell runs a cell under its checkpoint log, resuming from prev
// (empty: a fresh run). It only chooses the file: a fresh run streams
// straight into logPath; a resume writes logPath.resume and renames it
// over the old log on success or cancellation, so a failed resume never
// destroys the log it started from.
func (m *Manager) loggedCell(jctx context.Context, prev []byte, logPath string, cell campaign.Cell, cfg campaign.Config, ts []float64, sinks []campaign.Sink) (campaign.StreamInfo, *campaign.Summary, error) {
	target := logPath
	if len(prev) > 0 {
		target = logPath + ".resume"
	}
	f, err := os.Create(target)
	if err != nil {
		return campaign.StreamInfo{}, nil, fmt.Errorf("service: checkpoint log: %w", err)
	}
	info, sum, runErr := campaign.ResumePlanCell(jctx, bytes.NewReader(prev), f, cell, cfg, ts, sinks...)
	if cerr := f.Close(); runErr == nil {
		runErr = cerr
	}
	if target == logPath {
		// On cancellation the log has no #END trailer: it stays resumable
		// from its last flushed #CHK record.
		return info, sum, runErr
	}
	if runErr == nil || isCancellation(runErr) {
		// Keep the rewritten log: it covers at least as much as the old
		// one (replayed prefix plus any newly checkpointed tail).
		if rerr := os.Rename(target, logPath); rerr != nil && runErr == nil {
			runErr = fmt.Errorf("service: checkpoint log: %w", rerr)
		}
	} else {
		_ = os.Remove(target)
	}
	return info, sum, runErr
}

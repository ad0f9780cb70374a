package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"radcrit/internal/sched"
	"radcrit/internal/service"
	"radcrit/internal/tenant"
)

// Options tunes the coordinator's failure model. The zero value selects
// production-ish defaults; tests shrink everything.
type Options struct {
	// LeaseTTL is how long a lease survives without a heartbeat before it
	// expires and its cell is requeued (default 10s). A worker silent for
	// three LeaseTTLs is deregistered, and no longer counts as healthy for
	// the degrade-to-local decision.
	LeaseTTL time.Duration
	// Heartbeat is the interval workers are told to heartbeat at
	// (default LeaseTTL/4).
	Heartbeat time.Duration
	// Poll is the idle-worker poll interval workers are told to use
	// (default 500ms).
	Poll time.Duration
	// SpeculateAfter is the straggler threshold: an item leased for longer
	// than this may be speculatively re-dispatched to an idle worker
	// (work-stealing), first result wins. <= 0 selects the default 30s;
	// set very large to effectively disable.
	SpeculateAfter time.Duration
	// MaxAttempts bounds how many times an item is requeued after losing
	// all its leases before the coordinator gives up and hands the cell
	// back for local execution (default 5).
	MaxAttempts int
	// Logf receives coordinator lifecycle lines (nil = silent).
	Logf func(format string, args ...any)
}

func (o *Options) withDefaults() Options {
	opts := *o
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 10 * time.Second
	}
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = opts.LeaseTTL / 4
	}
	if opts.Poll <= 0 {
		opts.Poll = 500 * time.Millisecond
	}
	if opts.SpeculateAfter <= 0 {
		opts.SpeculateAfter = 30 * time.Second
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 5
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	return opts
}

// workerState is the coordinator's record of one registered worker.
type workerState struct {
	id        string
	name      string
	lastSeen  time.Time
	leases    int
	completed int
}

// lease is one grant of an item to a worker.
type lease struct {
	id       string
	item     *item
	worker   string
	started  time.Time
	deadline time.Time
	strikes  int
}

// item is one cell awaiting, or under, remote execution.
type item struct {
	id  string
	seq uint64 // weighted-fair queue submission sequence
	req service.RemoteCell

	leases        map[string]*lease
	queued        bool // currently on the pending queue
	attempts      int  // requeues consumed
	firstDispatch time.Time

	// bestStrikes/bestLog are the furthest checkpoint any lease has
	// streamed back — the seed for requeues and local fallback. bestLog
	// is never mutated in place, only replaced by a slice the coordinator
	// owns outright (RunRemote's PrevLog, a decoded heartbeat body), so
	// WorkItems and SaveLog share it without copying it under c.mu.
	bestStrikes int
	bestLog     []byte
	// delivered (guarded by cbMu, not the coordinator mutex) is the last
	// strike count handed to the manager's Progress/SaveLog callbacks;
	// it keeps delivery monotonic when heartbeats race.
	cbMu      sync.Mutex
	delivered int

	completed bool
	fallback  bool // completed by giving up: run locally instead
	res       *service.RemoteResult
	cellErr   error
	done      chan struct{}
}

// Coordinator owns the fleet: worker registry, pending queue, lease
// table, and the janitor that turns silence into requeues. It implements
// service.RemoteRunner; mount its HTTP surface with Routes.
type Coordinator struct {
	opts Options

	mu      sync.Mutex
	workers map[string]*workerState
	items   map[string]*item
	leases  map[string]*lease
	// pending is the dispatch queue: weighted-fair across the tenants of
	// the jobs that own the cells, so one tenant's wide job cannot starve
	// the fleet for everyone else. Within a tenant, requeued items re-enter
	// at a higher priority than fresh ones (the pre-WFQ requeue-at-front
	// behavior, now tenant-scoped).
	pending  *sched.Queue[*item]
	seq      uint64
	counters Counters

	stop     chan struct{}
	stopOnce sync.Once
	janitorW sync.WaitGroup
}

// NewCoordinator builds a coordinator and starts its janitor. Close it
// when the daemon shuts down.
func NewCoordinator(opts Options) *Coordinator {
	c := &Coordinator{
		opts:    opts.withDefaults(),
		workers: map[string]*workerState{},
		items:   map[string]*item{},
		leases:  map[string]*lease{},
		pending: sched.NewQueue[*item](),
		stop:    make(chan struct{}),
	}
	c.janitorW.Add(1)
	go c.janitor()
	return c
}

// Close stops the janitor. In-flight RunRemote calls are the manager's
// to cancel (they hold the job context).
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.janitorW.Wait()
}

func (c *Coordinator) nextIDLocked(prefix string) string {
	c.seq++
	return fmt.Sprintf("%s-%d", prefix, c.seq)
}

// healthyLocked reports whether any worker has been seen recently enough
// to be trusted with a lease.
func (c *Coordinator) healthyLocked(now time.Time) bool {
	for _, w := range c.workers {
		if now.Sub(w.lastSeen) <= 3*c.opts.LeaseTTL {
			return true
		}
	}
	return false
}

// --- service.RemoteRunner ---

// RunRemote queues one cell for the fleet and waits for its first
// result. It returns service.ErrRemoteUnavailable — telling the manager
// to run the cell locally from the streamed checkpoint — when no worker
// is healthy, immediately or at any later sweep that finds the item
// holding no lease, or after MaxAttempts lease losses.
func (c *Coordinator) RunRemote(ctx context.Context, req service.RemoteCell) (*service.RemoteResult, error) {
	now := time.Now()
	c.mu.Lock()
	if !c.healthyLocked(now) {
		c.counters.LocalFallbacks++
		c.mu.Unlock()
		return nil, service.ErrRemoteUnavailable
	}
	it := &item{
		id:          c.nextIDLocked("it"),
		req:         req,
		leases:      map[string]*lease{},
		bestStrikes: 0,
		bestLog:     req.PrevLog,
		done:        make(chan struct{}),
	}
	it.seq = c.seq
	c.items[it.id] = it
	c.enqueueLocked(it, 0)
	c.mu.Unlock()
	defer c.finishItem(it)

	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-it.done:
		switch {
		case it.fallback:
			return nil, service.ErrRemoteUnavailable
		case it.cellErr != nil:
			return nil, it.cellErr
		default:
			return it.res, nil
		}
	}
}

// finishItem removes an item and all its leases from the tables; any
// still-working speculative leaseholder gets 410 on its next heartbeat
// and abandons.
func (c *Coordinator) finishItem(it *item) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.items, it.id)
	c.removeFromPendingLocked(it)
	c.dropItemLeasesLocked(it)
}

// tenantOf names the namespace an item schedules under; pre-tenancy
// managers leave RemoteCell.Tenant empty.
func tenantOf(req service.RemoteCell) string {
	if req.Tenant == "" {
		return tenant.Default
	}
	return req.Tenant
}

// enqueueLocked puts an item on the weighted-fair dispatch queue.
// Requeued items (a lost lease's salvage) enter at priority 1, above
// fresh cells' priority 0, so a tenant's salvaged checkpoints resume
// before its untouched backlog — the old requeue-at-front behavior,
// scoped to the tenant.
func (c *Coordinator) enqueueLocked(it *item, priority int) {
	weight := it.req.Weight
	if weight < 1 {
		weight = 1
	}
	it.queued = true
	c.pending.Push(tenantOf(it.req), weight, priority, it.seq, it.req.CostNS, it)
}

func (c *Coordinator) removeFromPendingLocked(it *item) {
	if !it.queued {
		return
	}
	c.pending.Remove(tenantOf(it.req), it.seq)
	it.queued = false
}

func (c *Coordinator) dropItemLeasesLocked(it *item) {
	for id, l := range it.leases {
		if w := c.workers[l.worker]; w != nil {
			w.leases--
		}
		delete(c.leases, id)
		delete(it.leases, id)
	}
}

// requeueLocked puts an item that lost its last lease back at the front
// of the queue, seeded from its best streamed checkpoint — or gives up
// after MaxAttempts and hands the cell back for local execution.
func (c *Coordinator) requeueLocked(it *item) {
	if it.completed || it.queued {
		return
	}
	it.attempts++
	if it.attempts >= c.opts.MaxAttempts {
		it.completed, it.fallback = true, true
		c.counters.LocalFallbacks++
		c.opts.Logf("fleet: item %s (%s): %d lease losses, degrading to local execution", it.id, it.req.Key, it.attempts)
		close(it.done)
		return
	}
	c.counters.Requeues++
	c.counters.RequeuedStrikes += it.bestStrikes
	c.enqueueLocked(it, 1)
	c.opts.Logf("fleet: item %s (%s): requeued from strike %d (attempt %d)", it.id, it.req.Key, it.bestStrikes, it.attempts)
}

// deliver hands the item's best checkpoint to the manager's callbacks,
// monotonically: a stale heartbeat that lost the race never overwrites a
// newer log or walks progress backwards.
func (c *Coordinator) deliver(it *item) {
	it.cbMu.Lock()
	defer it.cbMu.Unlock()
	c.mu.Lock()
	strikes, log := it.bestStrikes, it.bestLog
	c.mu.Unlock()
	if strikes <= it.delivered {
		return
	}
	it.delivered = strikes
	if it.req.SaveLog != nil {
		it.req.SaveLog(log)
	}
	if it.req.Progress != nil {
		it.req.Progress(strikes)
	}
}

// --- janitor ---

func (c *Coordinator) janitor() {
	defer c.janitorW.Done()
	interval := c.opts.LeaseTTL / 4
	if interval > time.Second {
		interval = time.Second
	}
	if interval < 25*time.Millisecond {
		interval = 25 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.sweep(time.Now())
		}
	}
}

// sweep expires overdue leases (requeueing orphaned items), forgets
// long-silent workers, and hands every unleased item back for local
// execution once no worker is healthy.
func (c *Coordinator) sweep(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, l := range c.leases {
		if now.Before(l.deadline) {
			continue
		}
		c.counters.LeaseExpiries++
		c.opts.Logf("fleet: lease %s (worker %s, %s) expired at strike %d", id, l.worker, l.item.req.Key, l.strikes)
		if w := c.workers[l.worker]; w != nil {
			w.leases--
		}
		delete(c.leases, id)
		delete(l.item.leases, id)
		if !l.item.completed && len(l.item.leases) == 0 {
			c.requeueLocked(l.item)
		}
	}
	for id, w := range c.workers {
		if now.Sub(w.lastSeen) > 3*c.opts.LeaseTTL {
			c.counters.WorkersExpired++
			c.opts.Logf("fleet: worker %s (%s) silent for %v, deregistered", id, w.name, now.Sub(w.lastSeen).Round(time.Millisecond))
			delete(c.workers, id)
		}
	}
	if c.healthyLocked(now) {
		return
	}
	// The fleet emptied out while cells wait: degrade every unleased one
	// rather than wait for workers that may never come back.
	for _, it := range c.items {
		if !it.completed && len(it.leases) == 0 {
			it.completed, it.fallback = true, true
			c.counters.LocalFallbacks++
			close(it.done)
		}
	}
}

// --- dispatch ---

// dispatchLocked picks the next item for a polling worker: the queue
// head, or — when the queue is empty — a speculative duplicate lease on
// the longest-running straggler this worker is not already working on.
func (c *Coordinator) dispatchLocked(w *workerState, now time.Time) (*item, bool) {
	if it, ok := c.pending.Pop(); ok {
		it.queued = false
		return it, false
	}
	var best *item
	for _, it := range c.items {
		if it.completed || it.queued || len(it.leases) == 0 || len(it.leases) >= 2 {
			continue
		}
		held := false
		for _, l := range it.leases {
			if l.worker == w.id {
				held = true
				break
			}
		}
		if held || now.Sub(it.firstDispatch) < c.opts.SpeculateAfter {
			continue
		}
		if best == nil || it.firstDispatch.Before(best.firstDispatch) {
			best = it
		}
	}
	return best, best != nil
}

// grantLocked creates a lease of it for worker w and renders the wire
// payload.
func (c *Coordinator) grantLocked(w *workerState, it *item, now time.Time) WorkItem {
	l := &lease{
		id:       c.nextIDLocked("l"),
		item:     it,
		worker:   w.id,
		started:  now,
		deadline: now.Add(c.opts.LeaseTTL),
	}
	it.leases[l.id] = l
	c.leases[l.id] = l
	w.leases++
	if it.firstDispatch.IsZero() {
		it.firstDispatch = now
	}
	c.counters.LeasesDispatched++
	return WorkItem{
		Lease:           l.id,
		Key:             it.req.Key,
		Plan:            it.req.Plan,
		Log:             it.bestLog,
		LeaseTTLMillis:  c.opts.LeaseTTL.Milliseconds(),
		HeartbeatMillis: c.opts.Heartbeat.Milliseconds(),
	}
}

// --- HTTP surface ---

// Routes mounts the fleet API:
//
//	GET  /v1/fleet                          health: workers, leases, counters
//	POST /v1/fleet/workers                  register a worker
//	POST /v1/fleet/lease?worker=ID          poll for work (204 = none)
//	POST /v1/fleet/leases/{id}/heartbeat    refresh + stream checkpoints
//	POST /v1/fleet/leases/{id}/complete     report a cell's outcome
func (c *Coordinator) Routes(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/fleet", c.handleHealth)
	mux.HandleFunc("POST /v1/fleet/workers", c.handleRegister)
	mux.HandleFunc("POST /v1/fleet/lease", c.handleLease)
	mux.HandleFunc("POST /v1/fleet/leases/{id}/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /v1/fleet/leases/{id}/complete", c.handleComplete)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type fleetError struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, fleetError{Error: fmt.Sprintf(format, args...)})
}

// maxBodyBytes bounds fleet request bodies; checkpoint logs are the big
// payload and stay far under this for any realistic strike budget.
const maxBodyBytes = 64 << 20

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, "fleet: bad request body: %v", err)
		return false
	}
	return true
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decodeBody(w, r, &req) {
		return
	}
	c.mu.Lock()
	ws := &workerState{id: c.nextIDLocked("w"), name: req.Name, lastSeen: time.Now()}
	c.workers[ws.id] = ws
	c.counters.WorkersRegistered++
	c.mu.Unlock()
	c.opts.Logf("fleet: worker %s (%s) registered", ws.id, ws.name)
	writeJSON(w, http.StatusOK, RegisterResponse{
		Worker:          ws.id,
		LeaseTTLMillis:  c.opts.LeaseTTL.Milliseconds(),
		HeartbeatMillis: c.opts.Heartbeat.Milliseconds(),
		PollMillis:      c.opts.Poll.Milliseconds(),
	})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("worker")
	now := time.Now()
	c.mu.Lock()
	ws := c.workers[id]
	if ws == nil {
		c.mu.Unlock()
		writeErr(w, http.StatusNotFound, "fleet: unknown worker %q (re-register)", id)
		return
	}
	ws.lastSeen = now
	it, stolen := c.dispatchLocked(ws, now)
	if it == nil {
		c.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
		return
	}
	if stolen {
		c.counters.Steals++
		c.opts.Logf("fleet: worker %s steals straggler %s (%s)", ws.id, it.id, it.req.Key)
	}
	payload := c.grantLocked(ws, it, now)
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, payload)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeBody(w, r, &req) {
		return
	}
	id := r.PathValue("id")
	now := time.Now()
	c.mu.Lock()
	l := c.leases[id]
	if l == nil {
		c.mu.Unlock()
		writeErr(w, http.StatusGone, "fleet: lease %q is gone", id)
		return
	}
	it := l.item
	l.deadline = now.Add(c.opts.LeaseTTL)
	if req.Strikes > l.strikes {
		l.strikes = req.Strikes
	}
	if ws := c.workers[l.worker]; ws != nil {
		ws.lastSeen = now
	}
	improved := req.Strikes > it.bestStrikes && len(req.Log) > 0
	if improved {
		it.bestStrikes = req.Strikes
		it.bestLog = req.Log
	}
	if req.Abandon {
		c.counters.Abandons++
		if ws := c.workers[l.worker]; ws != nil {
			ws.leases--
		}
		delete(c.leases, id)
		delete(it.leases, id)
		if !it.completed && len(it.leases) == 0 {
			c.requeueLocked(it)
		}
	}
	c.mu.Unlock()
	if improved {
		c.deliver(it)
	}
	writeJSON(w, http.StatusOK, HeartbeatResponse{OK: true})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decodeBody(w, r, &req) {
		return
	}
	id := r.PathValue("id")
	c.mu.Lock()
	l := c.leases[id]
	if l == nil {
		// Expired, superseded by a faster speculative twin, or the item's
		// RunRemote already returned: the result is simply dropped —
		// first result wins, and the store dedups identical content anyway.
		c.counters.DuplicateResults++
		c.mu.Unlock()
		writeErr(w, http.StatusGone, "fleet: lease %q is gone", id)
		return
	}
	it := l.item
	workerName := l.worker
	if ws := c.workers[l.worker]; ws != nil {
		ws.lastSeen = time.Now()
		ws.completed++
		if ws.name != "" {
			workerName = ws.name
		}
	}
	c.dropItemLeasesLocked(it)
	c.removeFromPendingLocked(it)
	it.completed = true
	if req.Error != "" {
		c.counters.CellErrors++
		it.cellErr = fmt.Errorf("fleet: worker %s: %s", workerName, req.Error)
	} else if req.Info == nil || req.Summary == nil {
		c.counters.CellErrors++
		it.cellErr = fmt.Errorf("fleet: worker %s returned an empty result", workerName)
	} else {
		c.counters.Completions++
		it.res = &service.RemoteResult{Info: *req.Info, Summary: req.Summary, Worker: workerName}
	}
	close(it.done)
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, HeartbeatResponse{OK: true})
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, c.Health())
}

// Health snapshots the fleet for GET /v1/fleet and tests.
func (c *Coordinator) Health() Health {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	h := Health{
		Healthy:     c.healthyLocked(now),
		QueueDepth:  c.pending.Len(),
		TenantDepth: c.pending.Depths(),
		ActiveItems: len(c.items),
		Counters:    c.counters,
		// Empty slices, not nil: the JSON body always has "workers" and
		// "leases" arrays, so clients (and jq one-liners) can iterate
		// without a null guard.
		Workers: []WorkerHealth{},
		Leases:  []LeaseHealth{},
	}
	for _, ws := range c.workers {
		h.Workers = append(h.Workers, WorkerHealth{
			ID:           ws.id,
			Name:         ws.name,
			LastSeenMS:   now.Sub(ws.lastSeen).Milliseconds(),
			ActiveLeases: ws.leases,
			Completed:    ws.completed,
		})
	}
	sort.Slice(h.Workers, func(i, k int) bool { return h.Workers[i].ID < h.Workers[k].ID })
	for id, l := range c.leases {
		h.Leases = append(h.Leases, LeaseHealth{
			Lease:   id,
			Worker:  l.worker,
			Key:     l.item.req.Key,
			Tenant:  tenantOf(l.item.req),
			AgeMS:   now.Sub(l.started).Milliseconds(),
			Strikes: l.strikes,
			Total:   l.item.req.Plan.Strikes,
		})
	}
	sort.Slice(h.Leases, func(i, k int) bool { return h.Leases[i].Lease < h.Leases[k].Lease })
	return h
}

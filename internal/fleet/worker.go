package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"radcrit/internal/campaign"
	"radcrit/internal/service"
)

// WorkerOptions configures one worker process (radcritd -worker).
type WorkerOptions struct {
	// Base is the coordinator's base URL, e.g. "http://127.0.0.1:8347".
	Base string
	// Name labels the worker in the coordinator's health output.
	Name string
	// Client is the HTTP client to use (nil = a default with a sane
	// per-request timeout).
	Client *http.Client
	// Logf receives worker lifecycle lines (nil = silent).
	Logf func(format string, args ...any)
	// Metrics, when non-nil, meters every executed cell's strike stream
	// (radcrit_strikes_total, radcrit_chunk_seconds) — the worker half of
	// the engine telemetry; serve it with -metrics-addr.
	Metrics *service.EngineMetrics
	// ThrottleChunk inserts a pause after every flushed chunk; cancelling
	// the cell (lease lost, worker shutting down) ends the pause early.
	// Production leaves it zero; the chaos harness uses it to hold a cell
	// in flight long enough to kill the worker mid-cell deterministically.
	ThrottleChunk time.Duration
	// JitterSeed seeds the worker's private backoff-jitter stream. Zero
	// (the production default) derives a seed from the worker name and
	// the clock, so same-named workers still desynchronise; tests set it
	// for reproducible backoff schedules.
	JitterSeed uint64
}

// Worker pulls leases from a coordinator and executes cells through the
// same campaign primitives the daemon uses locally, heartbeating each
// cell's checkpoint log back so a crash never costs more than one chunk.
type Worker struct {
	opts   WorkerOptions
	client *http.Client
	logf   func(string, ...any)
	// rng drives backoff jitter. It is private to the worker and only
	// touched from Run's goroutine, so no lock — and no contention on
	// (or pollution of) the process-global math/rand state, which the
	// engine's determinism story must never depend on.
	rng *rand.Rand

	id        string
	lease     time.Duration
	heartbeat time.Duration
	poll      time.Duration
}

// NewWorker builds a worker; Run drives it.
func NewWorker(opts WorkerOptions) *Worker {
	w := &Worker{opts: opts, client: opts.Client, logf: opts.Logf}
	if w.client == nil {
		w.client = &http.Client{Timeout: 30 * time.Second}
	}
	if w.logf == nil {
		w.logf = func(string, ...any) {}
	}
	seed := opts.JitterSeed
	if seed == 0 {
		h := fnv.New64a()
		_, _ = h.Write([]byte(opts.Name))
		seed = h.Sum64() ^ uint64(time.Now().UnixNano())
	}
	w.rng = rand.New(rand.NewSource(int64(seed)))
	return w
}

// Run registers with the coordinator and processes leases until ctx is
// cancelled. Transport failures — including a coordinator restart that
// forgets the worker — are retried with jittered exponential backoff;
// the only non-nil return is ctx's error.
func (w *Worker) Run(ctx context.Context) error {
	backoff := 250 * time.Millisecond
	const maxBackoff = 5 * time.Second
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if w.id == "" {
			if err := w.register(ctx); err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				w.logf("fleet worker: register: %v (retrying in %v)", err, backoff)
				if !sleepCtx(ctx, w.jitter(backoff)) {
					return ctx.Err()
				}
				backoff = min(backoff*2, maxBackoff)
				continue
			}
			backoff = 250 * time.Millisecond
		}
		item, status, err := w.pollLease(ctx)
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.logf("fleet worker %s: lease poll: %v (retrying in %v)", w.id, err, backoff)
			if !sleepCtx(ctx, w.jitter(backoff)) {
				return ctx.Err()
			}
			backoff = min(backoff*2, maxBackoff)
		case status == http.StatusNotFound:
			// Coordinator restarted and forgot us: re-register.
			w.logf("fleet worker %s: unknown to coordinator, re-registering", w.id)
			w.id = ""
		case item != nil:
			backoff = 250 * time.Millisecond
			w.runItem(ctx, item)
		case status == http.StatusNoContent:
			backoff = 250 * time.Millisecond
			if !sleepCtx(ctx, w.jitter(w.poll)) {
				return ctx.Err()
			}
		default:
			// An unexpected status (a proxy-injected 5xx, a draining
			// coordinator): transient, poll again after a backoff.
			w.logf("fleet worker %s: lease poll: HTTP %d (retrying in %v)", w.id, status, backoff)
			if !sleepCtx(ctx, w.jitter(backoff)) {
				return ctx.Err()
			}
			backoff = min(backoff*2, maxBackoff)
		}
	}
}

func (w *Worker) register(ctx context.Context) error {
	var resp RegisterResponse
	status, err := w.postJSON(ctx, "/v1/fleet/workers", RegisterRequest{Name: w.opts.Name}, &resp)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("fleet: register: HTTP %d", status)
	}
	w.id = resp.Worker
	w.lease = time.Duration(resp.LeaseTTLMillis) * time.Millisecond
	w.heartbeat = time.Duration(resp.HeartbeatMillis) * time.Millisecond
	w.poll = time.Duration(resp.PollMillis) * time.Millisecond
	if w.heartbeat <= 0 {
		w.heartbeat = time.Second
	}
	if w.poll <= 0 {
		w.poll = 500 * time.Millisecond
	}
	w.logf("fleet worker %s: registered with %s (lease %v, heartbeat %v)", w.id, w.opts.Base, w.lease, w.heartbeat)
	return nil
}

func (w *Worker) pollLease(ctx context.Context) (*WorkItem, int, error) {
	var item WorkItem
	status, err := w.postJSON(ctx, "/v1/fleet/lease?worker="+w.id, struct{}{}, &item)
	if err != nil {
		return nil, 0, err
	}
	if status == http.StatusOK {
		return &item, status, nil
	}
	return nil, status, nil
}

// runItem executes one leased cell: resume from the item's checkpoint
// log when present, heartbeat the growing log back on the coordinator's
// cadence, and report the terminal outcome. A 410 from any heartbeat
// means the lease is gone (expired, or a speculative twin finished
// first) — the cell's context is cancelled and the result dropped.
func (w *Worker) runItem(ctx context.Context, item *WorkItem) {
	w.logf("fleet worker %s: lease %s: cell %.12s from strike log of %d bytes",
		w.id, item.Lease, item.Key, len(item.Log))

	cellCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	buf := &logBuffer{}
	// The tracker records each flushed strike count for the heartbeat and
	// applies the chunk throttle, which the cell's cancellation cuts short.
	tracker := campaign.FlushFunc(func(next int) {
		buf.setFlushed(next)
		sleepCtx(cellCtx, w.opts.ThrottleChunk)
	})

	hb := time.Duration(item.HeartbeatMillis) * time.Millisecond
	if hb <= 0 {
		hb = w.heartbeat
	}
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	leaseLost := false
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(hb)
		defer t.Stop()
		// The log rides along only when a new chunk has flushed since the
		// last acknowledged send: refreshes in between are a few bytes, so
		// a fat checkpoint log can never crowd out the keep-alive cadence.
		sent := 0
		for {
			select {
			case <-cellCtx.Done():
				return
			case <-t.C:
				strikes, log := buf.snapshot(sent)
				req := HeartbeatRequest{Strikes: strikes, Log: log}
				var resp HeartbeatResponse
				status, err := w.postJSON(cellCtx, "/v1/fleet/leases/"+item.Lease+"/heartbeat", req, &resp)
				switch {
				case err != nil:
					// Transient: the next tick retries; if the lease expires
					// meanwhile the coordinator answers 410 below.
				case status == http.StatusGone:
					w.logf("fleet worker %s: lease %s gone, stopping cell", w.id, item.Lease)
					leaseLost = true
					cancel()
					return
				case status == http.StatusOK && req.Log != nil:
					sent = strikes
				}
			}
		}
	}()

	info, sum, runErr := w.executeCell(cellCtx, item, buf, tracker)
	cancel()
	hbWG.Wait()

	switch {
	case leaseLost:
		return
	case ctx.Err() != nil:
		// Worker is shutting down mid-cell: hand the lease back with the
		// best log so the cell requeues immediately instead of waiting out
		// the lease TTL. Best effort — a SIGKILLed worker never gets here,
		// and the TTL covers that.
		strikes, log := buf.snapshot(-1)
		abandonCtx, acancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer acancel()
		var resp HeartbeatResponse
		_, _ = w.postJSON(abandonCtx, "/v1/fleet/leases/"+item.Lease+"/heartbeat",
			HeartbeatRequest{Strikes: strikes, Log: log, Abandon: true}, &resp)
		return
	}

	req := CompleteRequest{}
	if runErr != nil {
		req.Error = runErr.Error()
	} else {
		req.Info, req.Summary = &info, sum
	}
	w.complete(ctx, item, req)
}

// executeCell runs the leased cell under its checkpoint log, resuming
// from the item's log (empty: from strike 0). The leased plan is checked
// first: a plan that does not validate, or holds other than one cell,
// fails the cell with an error the coordinator records, never a panic.
// The campaign core attaches its checkpoint sink ahead of the tracker,
// so a chunk's #CHK record is in buf before the tracker counts that
// chunk: a heartbeat snapshot never claims strikes its log does not
// cover. A log that cannot be resumed (damaged beyond salvage, or
// describing another cell or seed) is discarded and the cell runs from
// strike 0, as the daemon does locally; the core rejects such a log
// before writing anything to buf.
func (w *Worker) executeCell(ctx context.Context, item *WorkItem, buf *logBuffer, tracker campaign.FlushFunc) (campaign.StreamInfo, *campaign.Summary, error) {
	plan := item.Plan
	if err := plan.Validate(); err != nil {
		return campaign.StreamInfo{}, nil, fmt.Errorf("fleet: leased plan: %w", err)
	}
	if len(plan.Cells) != 1 {
		return campaign.StreamInfo{}, nil, fmt.Errorf("fleet: leased plan holds %d cells, want 1", len(plan.Cells))
	}
	spec := plan.Cells[0]
	cell, err := campaign.BuildCell(spec)
	if err != nil {
		return campaign.StreamInfo{}, nil, err
	}
	cfg, ts := plan.Config(), plan.EffectiveThresholds()
	sinks := []campaign.Sink{tracker}
	if w.opts.Metrics != nil {
		sinks = append(sinks, w.opts.Metrics.Sink(spec.Kernel, spec.Device))
	}
	info, sum, err := campaign.ResumePlanCell(ctx, bytes.NewReader(item.Log), buf, cell, cfg, ts, sinks...)
	if err == nil || len(item.Log) == 0 || ctx.Err() != nil {
		return info, sum, err
	}
	w.logf("fleet worker %s: lease %s: discarding unresumable log (%v), running from strike 0", w.id, item.Lease, err)
	return campaign.ResumePlanCell(ctx, bytes.NewReader(nil), buf, cell, cfg, ts, sinks...)
}

// complete reports the cell's outcome, retrying transient transport
// failures; a 410 means a twin's result already won and ours is dropped.
func (w *Worker) complete(ctx context.Context, item *WorkItem, req CompleteRequest) {
	backoff := 200 * time.Millisecond
	for attempt := 0; attempt < 5; attempt++ {
		var resp HeartbeatResponse
		status, err := w.postJSON(ctx, "/v1/fleet/leases/"+item.Lease+"/complete", req, &resp)
		switch {
		case err == nil && status == http.StatusOK:
			w.logf("fleet worker %s: lease %s complete", w.id, item.Lease)
			return
		case err == nil && status == http.StatusGone:
			w.logf("fleet worker %s: lease %s superseded, result dropped", w.id, item.Lease)
			return
		case ctx.Err() != nil:
			return
		}
		if !sleepCtx(ctx, w.jitter(backoff)) {
			return
		}
		backoff *= 2
	}
	w.logf("fleet worker %s: lease %s: could not deliver result", w.id, item.Lease)
}

// postJSON is the worker's single HTTP primitive: POST in, decode out,
// return the status code. Non-2xx statuses are returned, not errors —
// the caller distinguishes protocol answers (204/404/410) from
// transport failure.
func (w *Worker) postJSON(ctx context.Context, path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, strings.TrimRight(w.opts.Base, "/")+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(io.LimitReader(resp.Body, maxBodyBytes)).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("fleet: decoding %s response: %w", path, err)
		}
		return resp.StatusCode, nil
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	return resp.StatusCode, nil
}

// logBlockSize is the size of one logBuffer block. A large cell's log
// runs to tens of MiB, so blocks are big enough that the block list stays
// short and small enough that the last, partly filled one wastes little.
const logBlockSize = 1 << 20

// logBuffer accumulates the cell's checkpoint log under a mutex so the
// heartbeat goroutine can snapshot a consistent (strikes, log) pair
// while the engine's consume loop appends.
//
// The log is held as a list of fixed-size blocks: each written byte is
// copied once, into the last block, and nothing written is ever moved,
// so appending never copies the log so far. It runs to tens of MiB and
// is read only when a heartbeat or the abandon path sends it.
type logBuffer struct {
	mu      sync.Mutex
	blocks  [][]byte // every block but the last is full
	size    int
	flushed int
}

// Write implements io.Writer for the checkpoint stream.
func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	n := len(p)
	b.size += n
	for len(p) > 0 {
		last := len(b.blocks) - 1
		if last < 0 || len(b.blocks[last]) == logBlockSize {
			b.blocks = append(b.blocks, make([]byte, 0, logBlockSize))
			last++
		}
		k := min(len(p), logBlockSize-len(b.blocks[last]))
		b.blocks[last] = append(b.blocks[last], p[:k]...)
		p = p[k:]
	}
	b.mu.Unlock()
	return n, nil
}

func (b *logBuffer) setFlushed(n int) {
	b.mu.Lock()
	if n > b.flushed {
		b.flushed = n
	}
	b.mu.Unlock()
}

// snapshot returns the flushed strike count and, only when it exceeds
// after, the log concatenated into one slice the caller owns. The log
// grows to tens of MiB on a large cell, so a heartbeat tick with no new
// chunk since the last acknowledged send (after) must not pay for a copy
// it would discard; -1 always copies.
func (b *logBuffer) snapshot(after int) (int, []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.flushed <= after || b.size == 0 {
		return b.flushed, nil
	}
	log := make([]byte, 0, b.size)
	for _, blk := range b.blocks {
		log = append(log, blk...)
	}
	return b.flushed, log
}

// jitter spreads a backoff delay over [d/2, d] so synchronised workers
// desynchronise instead of thundering together. It draws from the
// worker's private stream: the old process-global math/rand source made
// every co-resident worker (and anything else in the process calling
// math/rand) share one lock and one schedule.
func (w *Worker) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d/2 + time.Duration(w.rng.Int63n(int64(d/2)+1))
}

// sleepCtx sleeps for d or until ctx is done; it reports whether the
// full sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

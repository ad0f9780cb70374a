package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"radcrit/internal/api"
	"radcrit/internal/campaign"
	"radcrit/internal/cli"
	"radcrit/internal/fleet"
	"radcrit/internal/scratch"
	"radcrit/internal/service"
	"radcrit/internal/store"
	"radcrit/internal/telemetry"
	"radcrit/internal/tenant"
)

// stack is one in-process daemon wired as radcritd wires it, optionally
// with a fleet coordinator and two in-process workers. With a tracer it
// also carries the timing wrappers: a store backend, a remote runner and
// each worker's HTTP transport.
type stack struct {
	dir    string
	m      *service.Manager
	srv    *http.Server
	coord  *fleet.Coordinator
	cli    *api.Client
	tr     *tracer
	offers *offers

	stopWorkers context.CancelFunc
	workers     sync.WaitGroup
}

// On the 2-vCPU VM the benchmark was calibrated on, deleting files that
// were seconds old or older slowed its disk for about a minute after:
// daemon-cached ran at 250 to 930 jobs/s for the same code, depending on
// what had been deleted before and during the run. Two settings keep such
// deletions out of the measurements:
//
//   - maxJobs is the daemon's job-record cap (radcritd's default is 1024).
//     Past the cap every submission deletes the oldest finished job's
//     directory; with 64 that directory is under a second old on the
//     daemon workloads, which cost little, and the job table stays the
//     same size whatever the throughput.
//   - A stack leaves its state directory in place when it closes, under
//     <workdir>/state. Each daemon run leaves a few MB there.
const maxJobs = 64

func startStack(ctx context.Context, workdir string, withFleet bool, tr *tracer) (*stack, error) {
	parent := filepath.Join(workdir, "state")
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(parent, "daemon-")
	if err != nil {
		return nil, err
	}
	s := &stack{dir: dir, tr: tr, offers: &offers{pending: map[string]offer{}}, stopWorkers: func() {}}
	if err := s.start(ctx, withFleet); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *stack) start(ctx context.Context, withFleet bool) error {
	reg := telemetry.NewRegistry()
	telemetry.RegisterBuildInfo(reg, "radcrit_build_info", cli.Version())
	scratch.RegisterMetrics(reg)
	tenants, err := tenant.Load(filepath.Join(s.dir, "tenants.json"))
	if err != nil {
		return err
	}
	opts := service.Options{StateDir: s.dir, Executors: 2, MaxJobs: maxJobs, Metrics: reg, Tenants: tenants}
	if s.tr != nil {
		st, err := store.Open(filepath.Join(s.dir, "store"))
		if err != nil {
			return err
		}
		opts.Backend = &timedStore{Backend: st, tr: s.tr}
	}
	if withFleet {
		s.coord = fleet.NewCoordinator(fleet.Options{LeaseTTL: 10 * time.Second, SpeculateAfter: 30 * time.Second})
		s.coord.RegisterMetrics(reg)
		opts.Remote = s.coord
		if s.tr != nil {
			opts.Remote = &timedRemote{r: s.coord, tr: s.tr, offers: s.offers}
		}
	}
	if s.m, err = service.New(opts); err != nil {
		return err
	}
	s.m.Start()
	mux := http.NewServeMux()
	mux.Handle("/", api.New(s.m, cli.Version(),
		api.WithRequestTimeout(30*time.Second),
		api.WithMetrics(reg)))
	if s.coord != nil {
		s.coord.Routes(mux)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	go func() { _ = s.srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	s.cli = api.NewClient(base)
	if withFleet {
		return s.startWorkers(ctx, base)
	}
	return nil
}

// startWorkers runs two fleet workers with fixed jitter seeds and waits
// until the coordinator's health lists both.
func (s *stack) startWorkers(ctx context.Context, base string) error {
	wctx, cancel := context.WithCancel(context.Background())
	s.stopWorkers = cancel
	for i := 1; i <= 2; i++ {
		opts := fleet.WorkerOptions{Base: base, Name: fmt.Sprintf("bench-w%d", i), JitterSeed: uint64(i)}
		if s.tr != nil {
			opts.Client = &http.Client{Timeout: 30 * time.Second,
				Transport: &timedTransport{base: http.DefaultTransport, tr: s.tr, offers: s.offers, worker: opts.Name}}
		}
		w := fleet.NewWorker(opts)
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			_ = w.Run(wctx)
		}()
	}
	for len(s.coord.Health().Workers) < 2 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
	return nil
}

// close stops the workers, the listener, the manager and the coordinator,
// in that order. The state directory stays (see maxJobs).
func (s *stack) close() {
	s.stopWorkers()
	s.workers.Wait()
	if s.tr != nil && s.coord != nil {
		c := s.coord.Health().Counters
		s.tr.count("fleet.leases", int64(c.LeasesDispatched))
		s.tr.count("fleet.local_fallbacks", int64(c.LocalFallbacks))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if s.srv != nil {
		if err := s.srv.Shutdown(ctx); err != nil {
			_ = s.srv.Close()
		}
	}
	if s.m != nil {
		if err := s.m.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "radbench: %v\n", err)
		}
	}
	if s.coord != nil {
		s.coord.Close()
	}
}

// jobRun is one daemon job as a client saw it.
type jobRun struct {
	id      string
	res     *service.JobResult
	digest  [32]byte
	latency time.Duration
	end     time.Time
}

// runJob is one closed-loop job: Submit, follow the event stream until
// its terminal frame, then fetch the Result. Latency runs from the Submit
// call until the result body is received. With a tracer it records the
// job's spans, including queue wait and run time from the manager's
// snapshot.
func (s *stack) runJob(ctx context.Context, p *campaign.Plan, trace string) (jobRun, error) {
	var root traceRef
	rootID := 0
	if s.tr != nil {
		rootID = s.tr.newID()
		root = traceRef{trace: trace, parent: rootID}
		for i := range p.Cells {
			s.tr.own(p.CellKey(i), root)
		}
	}
	t0 := time.Now()
	snap, err := s.cli.Submit(ctx, p, 0)
	if err != nil {
		return jobRun{}, err
	}
	t1 := time.Now()
	var terminal time.Time
	if err := s.cli.Events(ctx, snap.ID, func(api.ClientEvent) { terminal = time.Now() }); err != nil {
		return jobRun{}, err
	}
	t2 := time.Now()
	res, err := s.cli.Result(ctx, snap.ID)
	if err != nil {
		return jobRun{}, err
	}
	t3 := time.Now()
	run := jobRun{id: snap.ID, res: res, latency: t3.Sub(t0), end: t3}
	if s.tr != nil {
		s.tr.add(rootID, "api.job", traceRef{trace: trace}, t0, t3, int64(len(p.Cells)))
		s.tr.add(0, "api.submit", root, t0, t1, 0)
		s.tr.add(0, "api.result", root, t2, t3, 0)
		if js, err := s.m.Job(snap.ID); err == nil && js.Started != nil && js.Finished != nil {
			s.tr.add(0, "service.queue", root, js.Created, *js.Started, 0)
			s.tr.add(0, "service.run", root, *js.Started, *js.Finished, 0)
			s.tr.add(0, "service.notify", root, *js.Finished, terminal, 0)
		}
	}
	run.digest, err = resultDigest(res)
	return run, err
}

// cellRecord is the part of a cell's result that must be bit-identical
// however the cell was produced: fresh, cached, remote or recomputed.
type cellRecord struct {
	Spec    campaign.CellSpec    `json:"spec"`
	Key     string               `json:"key"`
	Info    *campaign.StreamInfo `json:"info"`
	Summary *campaign.Summary    `json:"summary"`
}

func resultDigest(res *service.JobResult) ([32]byte, error) {
	recs := make([]cellRecord, len(res.Cells))
	for i, c := range res.Cells {
		recs[i] = cellRecord{Spec: c.Spec, Key: c.Key, Info: c.Info, Summary: c.Summary}
	}
	return recordsDigest(recs)
}

func recordsDigest(recs []cellRecord) ([32]byte, error) {
	data, err := json.Marshal(recs)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(data), nil
}

// recompute runs every cell of p directly through campaign.RunPlanCell
// and returns the digest the daemon's result must match.
func recompute(ctx context.Context, p *campaign.Plan) ([32]byte, error) {
	cfg, ts := p.Config(), p.EffectiveThresholds()
	recs := make([]cellRecord, len(p.Cells))
	for i, spec := range p.Cells {
		cell, err := campaign.BuildCell(spec)
		if err != nil {
			return [32]byte{}, err
		}
		info, sum, err := campaign.RunPlanCell(ctx, cell, cfg, ts)
		if err != nil {
			return [32]byte{}, err
		}
		recs[i] = cellRecord{Spec: spec, Key: p.CellKey(i), Info: &info, Summary: sum}
	}
	return recordsDigest(recs)
}

// timedStore records a span around every Put and Get of the result store.
// N is the bytes moved; a Get that returns no bytes is a miss.
type timedStore struct {
	store.Backend
	tr *tracer
}

func (s *timedStore) Put(key string, data []byte) error {
	t0 := time.Now()
	err := s.Backend.Put(key, data)
	s.tr.add(0, "store.put", s.tr.ownerOf(key), t0, time.Now(), int64(len(data)))
	return err
}

func (s *timedStore) Get(key string) ([]byte, bool) {
	t0 := time.Now()
	data, ok := s.Backend.Get(key)
	s.tr.add(0, "store.get", s.tr.ownerOf(key), t0, time.Now(), int64(len(data)))
	return data, ok
}

// offers remembers when each cell was offered to the fleet, until a
// worker's lease carries it: the dispatch wait.
type offers struct {
	mu      sync.Mutex
	pending map[string]offer // cell key -> open offer
}

type offer struct {
	id    int // the fleet.remote span
	trace string
	start time.Time
}

func (o *offers) put(key string, of offer) {
	o.mu.Lock()
	o.pending[key] = of
	o.mu.Unlock()
}

func (o *offers) take(key string) (offer, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	of, ok := o.pending[key]
	delete(o.pending, key)
	return of, ok
}

// timedRemote records a span around every RunRemote call. The cell's
// store accesses and worker spans hang under it.
type timedRemote struct {
	r      service.RemoteRunner
	tr     *tracer
	offers *offers
}

func (t *timedRemote) RunRemote(ctx context.Context, req service.RemoteCell) (*service.RemoteResult, error) {
	ref := t.tr.ownerOf(req.Key)
	of := offer{id: t.tr.newID(), trace: ref.trace, start: time.Now()}
	t.tr.own(req.Key, traceRef{trace: ref.trace, parent: of.id})
	t.offers.put(req.Key, of)
	res, err := t.r.RunRemote(ctx, req)
	n := int64(0)
	if err == nil {
		n = 1
	}
	t.tr.add(of.id, "fleet.remote", ref, of.start, time.Now(), n)
	return res, err
}

// timedTransport is a fleet worker's HTTP transport with a span per
// request. A lease poll's span records whether it carried work (N=1); a
// heartbeat's N is its request bytes. It also closes the dispatch-wait
// span (offer to lease) and records a worker-cell span from each lease
// grant to that worker's next complete request.
type timedTransport struct {
	base   http.RoundTripper
	tr     *tracer
	offers *offers
	worker string

	mu       sync.Mutex
	leaseKey string
	leasedAt time.Time
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	path := req.URL.Path
	if strings.HasSuffix(path, "/complete") {
		t.mu.Lock()
		key, at := t.leaseKey, t.leasedAt
		t.leaseKey = ""
		t.mu.Unlock()
		if key != "" {
			t.tr.add(0, "fleet.worker_cell", t.tr.ownerOf(key), at, t0, 0)
		}
	}
	resp, err := t.base.RoundTrip(req)
	t1 := time.Now()
	ref := traceRef{trace: t.worker}
	switch {
	case path == "/v1/fleet/lease":
		granted := int64(0)
		if err == nil && resp.StatusCode == http.StatusOK {
			granted = 1
			key := leasedKey(resp)
			if of, ok := t.offers.take(key); ok {
				t.tr.add(0, "fleet.dispatch", traceRef{trace: of.trace, parent: of.id}, of.start, t1, 0)
			}
			t.mu.Lock()
			t.leaseKey, t.leasedAt = key, t1
			t.mu.Unlock()
		}
		t.tr.add(0, "fleet.poll", ref, t0, t1, granted)
	case strings.HasSuffix(path, "/heartbeat"):
		t.tr.add(0, "fleet.heartbeat", ref, t0, t1, req.ContentLength)
	case strings.HasSuffix(path, "/complete"):
		t.tr.add(0, "fleet.complete", ref, t0, t1, 0)
	default:
		t.tr.add(0, "fleet.register", ref, t0, t1, 0)
	}
	return resp, err
}

// leasedKey reads the granted cell key from a lease response and
// restores the body for the worker.
func leasedKey(resp *http.Response) string {
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(data))
	if err != nil {
		return ""
	}
	var item fleet.WorkItem
	if json.Unmarshal(data, &item) != nil {
		return ""
	}
	return item.Key
}

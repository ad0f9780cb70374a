package fleet_test

import (
	"context"
	"encoding/json"
	"errors"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"radcrit/internal/api"
	"radcrit/internal/campaign"
	"radcrit/internal/fleet"
	"radcrit/internal/fleet/chaostest"
	"radcrit/internal/logdata"
	"radcrit/internal/service"
	"radcrit/internal/tenant"
)

// TestMain doubles as the chaos suite's worker entry point: when the
// chaos env vars are set the process becomes a fleet worker and never
// runs any tests (see chaostest.SpawnWorker).
func TestMain(m *testing.M) {
	chaostest.WorkerMain()
	os.Exit(m.Run())
}

// smokePlan mirrors the service suite's fast plan; cells lists the
// (device, kernel) pairs so sharding tests can use several cells.
func smokePlan(strikes int, cells ...string) *campaign.Plan {
	p := campaign.NewPlan(42, strikes).
		Named("fleet-test").
		WithThresholds(0, 2).
		WithWorkers(1).
		WithStreamChunk(32)
	for _, c := range cells {
		dev, kern, _ := strings.Cut(c, "/")
		p = p.WithCell(dev, kern)
	}
	return p
}

// testFleet is one coordinator+manager+HTTP stack on a fresh state dir.
type testFleet struct {
	m     *service.Manager
	coord *fleet.Coordinator
	srv   *httptest.Server
}

func startFleet(t *testing.T, fo fleet.Options) *testFleet {
	t.Helper()
	if fo.Logf == nil && testing.Verbose() {
		fo.Logf = t.Logf
	}
	coord := fleet.NewCoordinator(fo)
	m, err := service.New(service.Options{StateDir: t.TempDir(), Executors: 2, Remote: coord})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	root := http.NewServeMux()
	root.Handle("/", api.New(m, "test"))
	coord.Routes(root)
	srv := httptest.NewServer(root)
	// LIFO: drain the manager while workers can still talk to the
	// coordinator, then stop the janitor, then the listener.
	t.Cleanup(srv.Close)
	t.Cleanup(coord.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := m.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return &testFleet{m: m, coord: coord, srv: srv}
}

// startCoordinator serves a bare coordinator, with no manager behind it,
// until the test ends.
func startCoordinator(t *testing.T, fo fleet.Options) (*fleet.Coordinator, *httptest.Server) {
	t.Helper()
	coord := fleet.NewCoordinator(fo)
	mux := http.NewServeMux()
	coord.Routes(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	t.Cleanup(coord.Close)
	return coord, srv
}

// startWorker runs an in-process worker against base until the test ends
// (or the returned stop func is called).
func startWorker(t *testing.T, base, name string, throttle time.Duration, client *http.Client) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var logf func(string, ...any)
	if testing.Verbose() {
		logf = t.Logf
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	w := fleet.NewWorker(fleet.WorkerOptions{
		Base: base, Name: name, Client: client, Logf: logf, ThrottleChunk: throttle,
		JitterSeed: h.Sum64() | 1,
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = w.Run(ctx)
	}()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			cancel()
			wg.Wait()
		})
	}
	t.Cleanup(stop)
	return stop
}

// waitDone polls a job to StateDone and returns its result.
func waitDone(t *testing.T, m *service.Manager, id string, deadline time.Duration) *service.JobResult {
	t.Helper()
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		s, err := m.Job(id)
		if err != nil {
			t.Fatalf("Job(%s): %v", id, err)
		}
		if s.State == service.StateDone {
			jr, err := m.Result(id)
			if err != nil {
				t.Fatalf("Result(%s): %v", id, err)
			}
			return jr
		}
		if s.State.Terminal() {
			t.Fatalf("job %s reached %s (err %q), want done", id, s.State, s.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return nil
}

// summariesJSON renders the per-cell summaries — the byte-comparison
// form of the bit-identity contract (same shape as the service suite's).
func summariesJSON(t *testing.T, jr *service.JobResult) string {
	t.Helper()
	type cell struct {
		Spec    campaign.CellSpec    `json:"spec"`
		Info    *campaign.StreamInfo `json:"info"`
		Summary *campaign.Summary    `json:"summary"`
	}
	var cells []cell
	for _, c := range jr.Cells {
		cells = append(cells, cell{Spec: c.Spec, Info: c.Info, Summary: c.Summary})
	}
	data, err := json.Marshal(cells)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func directSummaries(t *testing.T, p *campaign.Plan) string {
	t.Helper()
	res, err := (&campaign.StreamRunner{}).Run(context.Background(), p)
	if err != nil {
		t.Fatalf("direct StreamRunner: %v", err)
	}
	return summariesJSON(t, service.ResultFromPlan("direct", res))
}

// waitWorkers polls fleet health until n workers are registered —
// submitting before that races the register round-trip and the
// coordinator would (correctly) degrade the job to local execution.
func waitWorkers(t *testing.T, coord *fleet.Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if len(coord.Health().Workers) >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("never saw %d registered workers", n)
}

// waitLeaseStrikes polls fleet health until some lease reports at least
// want flushed strikes, returning that lease.
func waitLeaseStrikes(t *testing.T, coord *fleet.Coordinator, want int, deadline time.Duration) fleet.LeaseHealth {
	t.Helper()
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		for _, l := range coord.Health().Leases {
			if l.Strikes >= want {
				return l
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no lease reached %d strikes", want)
	return fleet.LeaseHealth{}
}

// TestFleetShardedBitIdentityAndDedup is the tentpole's happy path: two
// workers execute a two-cell job's leases, the summaries are
// byte-identical to a direct in-process run, and a second submission of
// the same plan is served from the content-addressed store — still
// byte-identical — without new fleet work.
func TestFleetShardedBitIdentityAndDedup(t *testing.T) {
	tf := startFleet(t, fleet.Options{
		LeaseTTL: 2 * time.Second, Poll: 20 * time.Millisecond, SpeculateAfter: time.Hour,
	})
	startWorker(t, tf.srv.URL, "w1", 0, nil)
	startWorker(t, tf.srv.URL, "w2", 0, nil)
	waitWorkers(t, tf.coord, 2)

	plan := smokePlan(60, "k40/dgemm:128", "phi/dgemm:128")
	want := directSummaries(t, plan)

	snap, err := tf.m.SubmitAs(tenant.Default, plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	jr := waitDone(t, tf.m, snap.ID, 60*time.Second)
	if got := summariesJSON(t, jr); got != want {
		t.Fatalf("fleet summaries differ from direct run:\n got %s\nwant %s", got, want)
	}
	remotes := 0
	for _, c := range jr.Cells {
		if c.Remote {
			remotes++
			if c.Worker == "" {
				t.Errorf("cell %v: Remote set but no Worker recorded", c.Spec)
			}
		}
	}
	if remotes != len(jr.Cells) {
		t.Fatalf("want all %d cells remote, got %d", len(jr.Cells), remotes)
	}
	h := tf.coord.Health()
	if h.Counters.Completions < len(jr.Cells) {
		t.Fatalf("completions = %d, want >= %d", h.Counters.Completions, len(jr.Cells))
	}

	// Warm path: a second job over the same plan is pure store dedup.
	snap2, err := tf.m.SubmitAs(tenant.Default, smokePlan(60, "k40/dgemm:128", "phi/dgemm:128"), 0)
	if err != nil {
		t.Fatal(err)
	}
	jr2 := waitDone(t, tf.m, snap2.ID, 60*time.Second)
	if got := summariesJSON(t, jr2); got != want {
		t.Fatalf("warm summaries differ from direct run:\n got %s\nwant %s", got, want)
	}
	for _, c := range jr2.Cells {
		if c.Remote {
			t.Errorf("warm cell %v re-ran remotely instead of dedup from store", c.Spec)
		}
	}

	// The health endpoint serves the same snapshot over HTTP.
	resp, err := http.Get(tf.srv.URL + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hh fleet.Health
	if err := json.NewDecoder(resp.Body).Decode(&hh); err != nil {
		t.Fatal(err)
	}
	if !hh.Healthy || len(hh.Workers) != 2 {
		t.Fatalf("health = healthy:%v workers:%d, want healthy with 2 workers", hh.Healthy, len(hh.Workers))
	}
}

// cutTransport is a transport with a kill switch: once cut, every
// request fails — the network face of a crashed worker host.
type cutTransport struct{ dead atomic.Bool }

func (c *cutTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if c.dead.Load() {
		return nil, errors.New("cut: network unreachable")
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestFleetLeaseExpiryRequeueFromCheckpoint crashes a worker mid-cell
// (its network is severed, so no abandon is sent — exactly a SIGKILL's
// signature from the coordinator's side), waits for the lease to expire,
// and asserts the cell is requeued seeded from the worker's last
// streamed checkpoint and finished elsewhere with a byte-identical
// summary.
func TestFleetLeaseExpiryRequeueFromCheckpoint(t *testing.T) {
	tf := startFleet(t, fleet.Options{
		LeaseTTL: 500 * time.Millisecond, Heartbeat: 100 * time.Millisecond,
		Poll: 20 * time.Millisecond, SpeculateAfter: time.Hour, MaxAttempts: 10,
	})
	ct := &cutTransport{}
	// The doomed worker pauses after every chunk for longer than the test
	// runs; it heartbeats every 100ms regardless. It therefore cannot
	// finish the cell before a log-bearing heartbeat lands (hundreds of ms
	// under -race on a loaded host) and the network is cut. The pause
	// waits on the cell's context, so teardown's cancel releases it.
	startWorker(t, tf.srv.URL, "doomed", time.Hour, &http.Client{Transport: ct})
	waitWorkers(t, tf.coord, 1)

	plan := smokePlan(96, "k40/dgemm:128")
	want := directSummaries(t, plan)
	snap, err := tf.m.SubmitAs(tenant.Default, plan, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Wait until at least one chunk's checkpoint has been streamed back,
	// then sever the worker's network.
	l := waitLeaseStrikes(t, tf.coord, 32, 30*time.Second)
	ct.dead.Store(true)
	t.Logf("cut worker at lease %s, %d/%d strikes", l.Lease, l.Strikes, l.Total)

	// A healthy worker picks up the requeued item.
	startWorker(t, tf.srv.URL, "rescue", 0, nil)

	jr := waitDone(t, tf.m, snap.ID, 60*time.Second)
	if got := summariesJSON(t, jr); got != want {
		t.Fatalf("post-crash summaries differ from direct run:\n got %s\nwant %s", got, want)
	}
	h := tf.coord.Health()
	if h.Counters.LeaseExpiries < 1 {
		t.Errorf("lease expiries = %d, want >= 1", h.Counters.LeaseExpiries)
	}
	if h.Counters.Requeues < 1 {
		t.Errorf("requeues = %d, want >= 1", h.Counters.Requeues)
	}
	if h.Counters.RequeuedStrikes < 32 {
		t.Errorf("requeued strikes = %d, want >= 32 (resume from checkpoint, not scratch)", h.Counters.RequeuedStrikes)
	}
}

// TestFleetDegradeToLocal: with zero workers the coordinator refuses
// every cell and the manager runs them locally — the job completes with
// byte-identical summaries instead of stalling.
func TestFleetDegradeToLocal(t *testing.T) {
	tf := startFleet(t, fleet.Options{LeaseTTL: time.Second})
	plan := smokePlan(60, "k40/dgemm:128", "phi/dgemm:128")
	want := directSummaries(t, plan)
	snap, err := tf.m.SubmitAs(tenant.Default, plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	jr := waitDone(t, tf.m, snap.ID, 60*time.Second)
	if got := summariesJSON(t, jr); got != want {
		t.Fatalf("degraded summaries differ from direct run:\n got %s\nwant %s", got, want)
	}
	for _, c := range jr.Cells {
		if c.Remote {
			t.Errorf("cell %v claims remote execution with no workers", c.Spec)
		}
	}
	if got := tf.coord.Health().Counters.LocalFallbacks; got != len(jr.Cells) {
		t.Errorf("local fallbacks = %d, want %d", got, len(jr.Cells))
	}
}

// TestFleetWorkerDiscardsUnresumableLog: a leased cell whose checkpoint
// log cannot be resumed runs from strike 0 on the worker, exactly as the
// daemon handles such a log locally, instead of failing the cell.
func TestFleetWorkerDiscardsUnresumableLog(t *testing.T) {
	tf := startFleet(t, fleet.Options{LeaseTTL: 5 * time.Second, Poll: 20 * time.Millisecond})
	startWorker(t, tf.srv.URL, "w1", 0, nil)
	waitWorkers(t, tf.coord, 1)

	plan := smokePlan(64, "k40/dgemm:128")
	cfg, ts := plan.Config(), plan.EffectiveThresholds()
	cell, err := campaign.BuildCell(plan.Cells[0])
	if err != nil {
		t.Fatal(err)
	}
	wantInfo, wantSum, err := campaign.RunPlanCell(context.Background(), cell, cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	if _, _, err := campaign.ResumePlanCell(context.Background(), strings.NewReader(""), &log, cell, cfg, ts); err != nil {
		t.Fatal(err)
	}
	// Lose the first #SDC line: its #ERR lines are orphaned.
	full := log.String()
	at := strings.Index(full, "#SDC ")
	if at < 0 {
		t.Fatal("cell log holds no SDC; pick a cell that has one")
	}
	damaged := full[:at] + full[at+strings.IndexByte(full[at:], '\n')+1:]
	if _, err := logdata.ParseResume(strings.NewReader(damaged)); err == nil || !strings.Contains(err.Error(), "#ERR outside #SDC") {
		t.Fatalf("damaged log parses with %v, want #ERR outside #SDC", err)
	}

	res, err := tf.coord.RunRemote(context.Background(), service.RemoteCell{
		JobID: "j1", Cell: 0, Plan: plan.CellPlan(0),
		Key: plan.CellKey(0), PrevLog: []byte(damaged),
	})
	if err != nil {
		t.Fatalf("RunRemote with a damaged log: %v", err)
	}
	got, err := json.Marshal([]any{res.Info, res.Summary})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal([]any{wantInfo, wantSum})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("remote result differs from a direct RunPlanCell:\n got %s\nwant %s", got, want)
	}
}

// TestFleetSpeculativeSteal: a straggling leaseholder keeps its lease
// alive with heartbeats but crawls; past SpeculateAfter an idle worker
// is handed a duplicate lease and its faster result wins.
func TestFleetSpeculativeSteal(t *testing.T) {
	tf := startFleet(t, fleet.Options{
		LeaseTTL: 5 * time.Second, Heartbeat: 100 * time.Millisecond,
		Poll: 20 * time.Millisecond, SpeculateAfter: 300 * time.Millisecond,
	})
	// The straggler: ~500ms per chunk, 3 chunks — alive but slow.
	startWorker(t, tf.srv.URL, "straggler", 500*time.Millisecond, nil)
	waitWorkers(t, tf.coord, 1)

	plan := smokePlan(96, "k40/dgemm:128")
	want := directSummaries(t, plan)
	snap, err := tf.m.SubmitAs(tenant.Default, plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Ensure the straggler owns the lease before the thief shows up.
	waitLeaseStrikes(t, tf.coord, 0, 30*time.Second)
	startWorker(t, tf.srv.URL, "thief", 0, nil)

	jr := waitDone(t, tf.m, snap.ID, 60*time.Second)
	if got := summariesJSON(t, jr); got != want {
		t.Fatalf("speculative summaries differ from direct run:\n got %s\nwant %s", got, want)
	}
	if got := tf.coord.Health().Counters.Steals; got < 1 {
		t.Errorf("steals = %d, want >= 1", got)
	}
}

// TestCoordinatorProtocol unit-tests the HTTP protocol edges without a
// manager: unavailable with no workers, worker-reported cell errors
// propagating out of RunRemote, first-result-wins 410s, and 410 on
// heartbeats for dead leases.
func TestCoordinatorProtocol(t *testing.T) {
	coord, srv := startCoordinator(t, fleet.Options{LeaseTTL: time.Second, Poll: 10 * time.Millisecond})

	plan := smokePlan(8, "k40/dgemm:128")
	req := service.RemoteCell{
		JobID: "j1", Cell: 0, Plan: plan.CellPlan(0), Key: plan.CellKey(0),
	}

	// No workers: immediately unavailable.
	if _, err := coord.RunRemote(context.Background(), req); !errors.Is(err, service.ErrRemoteUnavailable) {
		t.Fatalf("RunRemote with no workers = %v, want ErrRemoteUnavailable", err)
	}

	post := func(path string, in, out any) int {
		t.Helper()
		body, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if out != nil && resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}

	var reg fleet.RegisterResponse
	if code := post("/v1/fleet/workers", fleet.RegisterRequest{Name: "manual"}, &reg); code != http.StatusOK {
		t.Fatalf("register: HTTP %d", code)
	}

	// A worker-reported cell failure propagates out of RunRemote.
	errc := make(chan error, 1)
	go func() {
		_, err := coord.RunRemote(context.Background(), req)
		errc <- err
	}()
	var item fleet.WorkItem
	lease := func() fleet.WorkItem {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			var it fleet.WorkItem
			if code := post("/v1/fleet/lease?worker="+reg.Worker, struct{}{}, &it); code == http.StatusOK {
				return it
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatal("never leased an item")
		return fleet.WorkItem{}
	}
	item = lease()
	if item.Key != req.Key {
		t.Fatalf("leased key %s, want %s", item.Key, req.Key)
	}
	if code := post("/v1/fleet/leases/"+item.Lease+"/complete", fleet.CompleteRequest{Error: "boom"}, nil); code != http.StatusOK {
		t.Fatalf("complete: HTTP %d", code)
	}
	if err := <-errc; err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("RunRemote = %v, want worker error containing %q", err, "boom")
	}
	// The lease died with the item: a duplicate completion answers 410.
	if code := post("/v1/fleet/leases/"+item.Lease+"/complete", fleet.CompleteRequest{Error: "boom"}, nil); code != http.StatusGone {
		t.Fatalf("dup complete: HTTP %d, want 410", code)
	}
	if code := post("/v1/fleet/leases/"+item.Lease+"/heartbeat", fleet.HeartbeatRequest{Strikes: 1}, nil); code != http.StatusGone {
		t.Fatalf("dead-lease heartbeat: HTTP %d, want 410", code)
	}
	if got := coord.Health().Counters.DuplicateResults; got < 1 {
		t.Errorf("duplicate results = %d, want >= 1", got)
	}

	// Abandoning a lease requeues its item for the next poll.
	go func() {
		_, err := coord.RunRemote(context.Background(), req)
		errc <- err
	}()
	item = lease()
	if code := post("/v1/fleet/leases/"+item.Lease+"/heartbeat", fleet.HeartbeatRequest{Abandon: true}, nil); code != http.StatusOK {
		t.Fatalf("abandon: HTTP %d", code)
	}
	item = lease()
	info := campaign.StreamInfo{Device: "k40", Kernel: "dgemm", Input: "128"}
	if code := post("/v1/fleet/leases/"+item.Lease+"/complete",
		fleet.CompleteRequest{Info: &info, Summary: &campaign.Summary{}}, nil); code != http.StatusOK {
		t.Fatalf("complete: HTTP %d", code)
	}
	if err := <-errc; err != nil {
		t.Fatalf("RunRemote after abandon+complete = %v", err)
	}
	h := coord.Health()
	if h.Counters.Abandons != 1 {
		t.Errorf("abandons = %d, want 1", h.Counters.Abandons)
	}
	if h.Counters.Completions != 1 {
		t.Errorf("completions = %d, want 1", h.Counters.Completions)
	}
}

// TestFleetBadLeasedPlanIsCellError: a worker checks the plan it leases
// before building anything. A plan with two cells, an unknown kernel or
// zero strikes ends as that cell's error, reported through the lease's
// completion, and the worker goes on serving.
func TestFleetBadLeasedPlanIsCellError(t *testing.T) {
	coord, srv := startCoordinator(t, fleet.Options{LeaseTTL: 5 * time.Second, Poll: 10 * time.Millisecond})
	startWorker(t, srv.URL, "w1", 0, nil)
	waitWorkers(t, coord, 1)

	cases := []struct {
		name string
		plan *campaign.Plan
		want string
	}{
		{"two cells", smokePlan(8, "k40/dgemm:128", "phi/dgemm:128"), "holds 2 cells"},
		{"unknown kernel", smokePlan(8, "k40/sgemm:128"), "unknown kernel"},
		{"zero strikes", smokePlan(0, "k40/dgemm:128"), "strikes must be positive"},
	}
	for i, c := range cases {
		_, err := coord.RunRemote(context.Background(), service.RemoteCell{
			JobID: "j1", Cell: i, Plan: c.plan, Key: c.name,
		})
		if err == nil || errors.Is(err, service.ErrRemoteUnavailable) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: RunRemote = %v, want a cell error containing %q", c.name, err, c.want)
		}
	}
	if got := coord.Health().Counters.CellErrors; got != len(cases) {
		t.Errorf("cell errors = %d, want %d", got, len(cases))
	}
}

// TestFleetSilentWorkerFallsBackToLocal: a worker that registers and then
// goes silent leaves a waiting cell unleased. Once it has been silent for
// three lease TTLs the janitor deregisters it, finds no healthy worker,
// and hands the cell back for local execution.
func TestFleetSilentWorkerFallsBackToLocal(t *testing.T) {
	const ttl = 100 * time.Millisecond
	coord, srv := startCoordinator(t, fleet.Options{LeaseTTL: ttl})

	resp, err := http.Post(srv.URL+"/v1/fleet/workers", "application/json", strings.NewReader(`{"name":"silent"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: HTTP %d", resp.StatusCode)
	}

	plan := smokePlan(8, "k40/dgemm:128")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	_, err = coord.RunRemote(ctx, service.RemoteCell{JobID: "j1", Plan: plan.CellPlan(0), Key: plan.CellKey(0)})
	if !errors.Is(err, service.ErrRemoteUnavailable) {
		t.Fatalf("RunRemote = %v, want ErrRemoteUnavailable", err)
	}
	if waited := time.Since(start); waited < 2*ttl {
		t.Errorf("fell back after %v, before the worker could have gone silent", waited)
	}
	h := coord.Health()
	if h.Counters.LocalFallbacks != 1 || h.Counters.WorkersExpired != 1 || h.Counters.LeasesDispatched != 0 {
		t.Errorf("counters = %+v, want 1 local fallback, 1 expired worker, no lease", h.Counters)
	}
}

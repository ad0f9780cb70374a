package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"radcrit/internal/campaign"
	"radcrit/internal/service"
	"radcrit/internal/xrand"
)

// Every input of a run derives from -seed and one of these streams.
const (
	streamJobs  = 1 // the measured jobs (and the ladder's cells)
	streamSetup = 2 // set-up jobs and campaign-mix's warm-up
	streamPool  = 3 // daemon-cached's pool of plans
)

func planSeed(seed, stream uint64, i int) uint64 {
	return xrand.New(seed).Split(stream).Split(uint64(i) + 1).Uint64()
}

// shape is the plan a workload's jobs submit, up to the seed: every
// kernel on both devices.
type shape struct {
	kernels []string
	strikes int
	chunk   int
	workers int
}

func (s shape) plan(seed uint64) *campaign.Plan {
	p := campaign.NewPlan(seed, s.strikes).
		WithWorkers(s.workers).
		WithStreamChunk(s.chunk).
		WithThresholds(0, 2)
	for _, k := range s.kernels {
		p.WithKernelOnDevices(k, "k40", "phi")
	}
	return p
}

func (s shape) withStrikes(n int) shape {
	s.strikes = n
	return s
}

// sizes holds every size a run uses, so that the test can run each
// workload small.
type sizes struct {
	setupReps    int
	mix          shape // campaign-mix's job
	mixWarm      int   // campaign-mix warm-up strikes per cell
	job          shape // daemon-fresh's and daemon-cached's job
	fleet        shape // fleet-jobs' job
	setupJobs    int   // daemon-fresh's set-up jobs; fleet-jobs runs one
	pool         int   // daemon-cached's plans
	rechecks     int   // jobs recomputed after timing stops
	ladder       int   // strikes per cell the ladder replays
	probe        time.Duration
	probeStrikes int // cap on a probe job's strikes per cell
}

var mixKernels = []string{"dgemm:256", "lavamd:4", "hotspot:64x80", "clamr:48x60"}

var fullSizes = sizes{
	setupReps:    5,
	mix:          shape{kernels: mixKernels, strikes: 400, workers: 2},
	mixWarm:      512,
	job:          shape{kernels: []string{"dgemm:128"}, strikes: 20, chunk: 5, workers: 2},
	fleet:        shape{kernels: []string{"dgemm:128"}, strikes: 1000, chunk: 250, workers: 1},
	setupJobs:    16,
	pool:         32,
	rechecks:     8,
	ladder:       512,
	probe:        2 * time.Second,
	probeStrikes: 64,
}

// run is one invocation's configuration.
type run struct {
	seed    uint64
	sz      sizes
	workdir string
	// digest is the pinned sha256 of checkPlan's result.
	digest string
	logf   func(format string, args ...any)
}

// Workload modes: how a workload's jobs run.
const (
	modeMix    = iota // in-process plans, no daemon
	modeFresh         // unique seeds through the daemon: every cell runs
	modeCached        // resubmitted pool plans: every cell is a store hit
	modeFleet         // unique seeds, run by the daemon's fleet workers
)

// workload is one named traffic mix.
type workload struct {
	name    string
	clients int
	mode    int
	shape   func(sizes) shape
}

// daemon and fleet say whether the workload's own jobs pass through the
// daemon layers (api, service, store) and the fleet layer.
func (w workload) daemon() bool { return w.mode != modeMix }
func (w workload) fleet() bool  { return w.mode == modeFleet }

// setup builds what the workload's jobs run against.
func (w workload) setup(ctx context.Context, r *run, tr *tracer) (env, error) {
	if w.mode == modeMix {
		return setupMix(ctx, r, tr)
	}
	return setupDaemon(ctx, r, tr, w.mode, w.shape(r.sz))
}

var workloads = []workload{
	{name: "campaign-mix", clients: 1, mode: modeMix, shape: func(sz sizes) shape { return sz.mix }},
	{name: "daemon-fresh", clients: 2, mode: modeFresh, shape: func(sz sizes) shape { return sz.job }},
	{name: "daemon-cached", clients: 2, mode: modeCached, shape: func(sz sizes) shape { return sz.job }},
	{name: "fleet-jobs", clients: 2, mode: modeFleet, shape: func(sz sizes) shape { return sz.fleet }},
}

func workloadNamed(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// probeWorkload runs w's job shape (strikes capped) through a daemon, or
// through a daemon with a fleet, for a traced run that must report layers
// w's own jobs never reach.
func probeWorkload(w workload, withFleet bool) workload {
	p := workload{name: "probe-daemon", clients: 2, mode: modeFresh, shape: func(sz sizes) shape {
		s := w.shape(sz)
		return s.withStrikes(min(s.strikes, sz.probeStrikes))
	}}
	if withFleet {
		p.name, p.mode = "probe-fleet", modeFleet
	}
	return p
}

// probeRun is r with the probe's sizes: one set-up with one job, and
// two jobs recomputed.
func (r *run) probeRun() *run {
	p := *r
	p.sz.setupReps, p.sz.setupJobs, p.sz.rechecks = 1, 1, min(r.sz.rechecks, 2)
	return &p
}

// --- campaign-mix ---

// checkPlan is the fixed plan whose result digest is pinned: the
// campaign-mix cells at 64 strikes each under seed 1.
func checkPlan() *campaign.Plan {
	return shape{kernels: mixKernels, strikes: 64, workers: 2}.plan(1)
}

// checkDigest is the sha256 of checkPlan's canonical result JSON at the
// commit that defined the benchmark. A change that alters it changes what
// the engine computes.
const checkDigest = "6f40d84c56231c73347084963356655b4d2294dca9ace4afd965c5798da2955c"

type mixEnv struct {
	r  *run
	tr *tracer
}

// setupMix runs the warm-up plan: it builds every cell's golden state
// once, which fills the registry's HotSpot and CLAMR instance memos.
func setupMix(ctx context.Context, r *run, tr *tracer) (env, error) {
	p := r.sz.mix.withStrikes(r.sz.mixWarm).plan(planSeed(r.seed, streamSetup, 0))
	if _, err := (&campaign.StreamRunner{}).Run(ctx, p); err != nil {
		return nil, err
	}
	return &mixEnv{r: r, tr: tr}, nil
}

// op runs one plan in-process, as beamsim, figures and radcritd -oneshot
// do, and checks that every cell's tally covers its strikes.
func (e *mixEnv) op(ctx context.Context, i int) opStat {
	p := e.r.sz.mix.plan(planSeed(e.r.seed, streamJobs, i))
	runner := &campaign.StreamRunner{}
	var root traceRef
	rootID := 0
	var last time.Time
	if e.tr != nil {
		rootID = e.tr.newID()
		root = traceRef{trace: fmt.Sprintf("plan-%d", i), parent: rootID}
		runner.Progress.OnCell = func(int, *campaign.CellOutcome) {
			now := time.Now()
			e.tr.add(0, "campaign.run_cell", root, last, now, int64(p.Strikes))
			last = now
		}
	}
	t0 := time.Now()
	last = t0
	res, err := runner.Run(ctx, p)
	t1 := time.Now()
	st := opStat{i: i, lat: t1.Sub(t0), end: t1, ok: err == nil}
	if e.tr != nil {
		e.tr.add(rootID, "campaign.run", traceRef{trace: root.trace}, t0, t1, int64(p.Strikes*len(p.Cells)))
	}
	if err != nil {
		e.r.logf("campaign-mix job %d: %v", i, err)
		return st
	}
	for _, c := range res.Cells {
		if c.Summary == nil || c.Info.Strikes != p.Strikes || c.Summary.Tally.Count() != p.Strikes {
			st.ok = false
		}
		st.strikes += c.Info.Strikes
	}
	return st
}

// check runs checkPlan and compares its digest with the pinned one. A
// mismatch means the engine computes something else than it did when the
// benchmark was defined, so no job's output can be trusted.
func (e *mixEnv) check(ctx context.Context, ops []opStat) error {
	res, err := (&campaign.StreamRunner{}).Run(ctx, checkPlan())
	if err != nil {
		return err
	}
	data, err := json.Marshal(service.ResultFromPlan("radbench-check", res))
	if err != nil {
		return err
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != e.r.digest {
		e.r.logf("campaign-mix: check plan digest %s, pinned %s", got, e.r.digest)
		for i := range ops {
			ops[i].ok = false
		}
	}
	return nil
}

func (e *mixEnv) close() {}

// --- daemon workloads ---

type daemonEnv struct {
	r    *run
	mode int
	sh   shape
	st   *stack

	pool    []*campaign.Plan
	poolSum [][32]byte
}

// setupDaemon starts the stack and runs the mode's set-up jobs: a few
// fresh jobs, or the whole pool that daemon-cached resubmits.
func setupDaemon(ctx context.Context, r *run, tr *tracer, mode int, sh shape) (env, error) {
	st, err := startStack(ctx, r.workdir, mode == modeFleet, tr)
	if err != nil {
		return nil, err
	}
	e := &daemonEnv{r: r, mode: mode, sh: sh, st: st}
	n, stream := r.sz.setupJobs, uint64(streamSetup)
	switch mode {
	case modeCached:
		n, stream = r.sz.pool, streamPool
	case modeFleet:
		n = 1
	}
	for i := 0; i < n; i++ {
		p := sh.plan(planSeed(r.seed, stream, i))
		run, err := st.runJob(ctx, p, fmt.Sprintf("setup-%d", i))
		if err == nil {
			err = jobError(run, p, false)
		}
		if err != nil {
			st.close()
			return nil, fmt.Errorf("set-up job %d: %w", i, err)
		}
		if mode == modeCached {
			e.pool = append(e.pool, p)
			e.poolSum = append(e.poolSum, run.digest)
		}
	}
	return e, nil
}

func (e *daemonEnv) plan(i int) *campaign.Plan {
	if e.mode == modeCached {
		return e.pool[i%len(e.pool)]
	}
	return e.sh.plan(planSeed(e.r.seed, streamJobs, i))
}

func (e *daemonEnv) op(ctx context.Context, i int) opStat {
	p := e.plan(i)
	t0 := time.Now()
	run, err := e.st.runJob(ctx, p, fmt.Sprintf("job-%d", i))
	if err == nil {
		err = jobError(run, p, e.mode == modeCached)
	}
	if err == nil && e.mode == modeCached && run.digest != e.poolSum[i%len(e.pool)] {
		err = fmt.Errorf("cached summaries differ from the pool's")
	}
	st := opStat{i: i, lat: run.latency, end: run.end, digest: run.digest,
		strikes: p.Strikes * len(p.Cells), ok: err == nil}
	if err != nil {
		// A failed job counts against latency with the time it took.
		st.end = time.Now()
		st.lat = st.end.Sub(t0)
		e.r.logf("job %d: %v", i, err)
	}
	return st
}

// jobError checks what a client can see of one finished job: it is done,
// holds every cell, and each cell was (or, fresh, was not) a store hit.
func jobError(run jobRun, p *campaign.Plan, cached bool) error {
	if run.res.State != service.StateDone {
		return fmt.Errorf("job %s ended %s", run.id, run.res.State)
	}
	if len(run.res.Cells) != len(p.Cells) {
		return fmt.Errorf("job %s returned %d of %d cells", run.id, len(run.res.Cells), len(p.Cells))
	}
	for i, c := range run.res.Cells {
		if c.Error != "" || c.Summary == nil {
			return fmt.Errorf("job %s cell %d failed: %s", run.id, i, c.Error)
		}
		if c.Cached != cached {
			return fmt.Errorf("job %s cell %d: cached=%v, want %v", run.id, i, c.Cached, cached)
		}
	}
	return nil
}

// check recomputes evenly spaced jobs' cells with campaign.RunPlanCell
// and compares them byte for byte. daemon-cached jobs were compared with
// the pool as they finished.
func (e *daemonEnv) check(ctx context.Context, ops []opStat) error {
	if e.mode == modeCached || len(ops) == 0 {
		return nil
	}
	n := min(e.r.sz.rechecks, len(ops))
	for k := 0; k < n; k++ {
		o := &ops[k*len(ops)/n]
		if !o.ok {
			continue
		}
		want, err := recompute(ctx, e.plan(o.i))
		if err != nil {
			return err
		}
		if want != o.digest {
			e.r.logf("job %d: summaries differ from a direct RunPlanCell", o.i)
			o.ok = false
		}
	}
	return nil
}

func (e *daemonEnv) close() { e.st.close() }

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "radbench: "+format+"\n", args...)
}

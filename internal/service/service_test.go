package service

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"radcrit/internal/campaign"
	"radcrit/internal/sched"
	"radcrit/internal/tenant"
)

// TestQueuePriorityFIFO pins the scheduler's single-tenant pop order:
// higher priority first, FIFO within a priority — the pre-tenancy
// contract, which the weighted-fair queue degenerates to when only the
// default tenant submits.
func TestQueuePriorityFIFO(t *testing.T) {
	q := sched.NewQueue[*Job]()
	push := func(id string, prio int, seq uint64) {
		q.Push(tenant.Default, 1, prio, seq, 100, &Job{ID: id, Priority: prio, Seq: seq})
	}
	push("a", 0, 1)
	push("b", 0, 2)
	push("hot", 5, 3)
	push("c", 0, 4)
	push("warm", 2, 5)
	var got []string
	for {
		j, ok := q.Pop()
		if !ok {
			break
		}
		got = append(got, j.ID)
	}
	want := []string{"hot", "warm", "a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

// smokePlan is a fast single-device plan for lifecycle tests.
func smokePlan(strikes int) *campaign.Plan {
	return campaign.NewPlan(42, strikes).
		Named("svc-test").
		WithCell("k40", "dgemm:128").
		WithThresholds(0, 2).
		WithWorkers(1).
		WithStreamChunk(32)
}

func newManager(t *testing.T, dir string) *Manager {
	t.Helper()
	m, err := New(Options{StateDir: dir, Executors: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func drain(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// waitState polls until the job reaches a wanted state (or fails the test).
func waitState(t *testing.T, m *Manager, id string, want State) Snapshot {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		s, err := m.Job(id)
		if err != nil {
			t.Fatalf("Job(%s): %v", id, err)
		}
		if s.State == want {
			return s
		}
		if s.State.Terminal() && s.State != want {
			t.Fatalf("job %s reached %s (err %q), want %s", id, s.State, s.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return Snapshot{}
}

// summariesJSON renders just the per-cell summaries of a result, the
// byte-comparison form of the bit-identity contract.
func summariesJSON(t *testing.T, jr *JobResult) string {
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

// directSummaries runs the plan in-process through StreamRunner — the
// reference the daemon must match byte for byte.
func directSummaries(t *testing.T, p *campaign.Plan) string {
	t.Helper()
	res, err := (&campaign.StreamRunner{}).Run(context.Background(), p)
	if err != nil {
		t.Fatalf("direct StreamRunner: %v", err)
	}
	return summariesJSON(t, ResultFromPlan("direct", res))
}

// TestJobLifecycleAndStoreDedup submits the same plan twice: the first
// job computes and populates the content-addressed store, the second is
// served entirely from it, and both return summaries byte-identical to a
// direct in-process StreamRunner run.
func TestJobLifecycleAndStoreDedup(t *testing.T) {
	dir := t.TempDir()
	m := newManager(t, dir)
	m.Start()
	defer drain(t, m)

	want := directSummaries(t, smokePlan(120))

	s1, err := m.SubmitAs(tenant.Default, smokePlan(120), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, s1.ID, StateDone)
	r1, err := m.Result(s1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Cells) != 1 || r1.Cells[0].Cached {
		t.Fatalf("first job: %d cells, cached=%v; want 1 uncached", len(r1.Cells), r1.Cells[0].Cached)
	}
	if got := summariesJSON(t, r1); got != want {
		t.Errorf("cold-store summaries differ from direct StreamRunner run")
	}

	s2, err := m.SubmitAs(tenant.Default, smokePlan(120), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, s2.ID, StateDone)
	r2, err := m.Result(s2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cells[0].Cached {
		t.Errorf("second job was not served from the store")
	}
	if got := summariesJSON(t, r2); got != want {
		t.Errorf("warm-store summaries differ from direct StreamRunner run")
	}

	// Unfinished jobs refuse to produce a result; unknown jobs error.
	if _, err := m.Result("j-000000000000"); err != ErrUnknownJob {
		t.Errorf("Result(unknown) = %v, want ErrUnknownJob", err)
	}
}

// TestDrainResumeBitIdentical is the crash-resume contract end to end:
// a job is interrupted mid-campaign at a checkpoint boundary by a drain,
// a second Manager incarnation on the same state directory picks it up,
// resumes the in-flight cell from its last #CHK record, and the final
// summaries are byte-identical to an uninterrupted in-process run.
func TestDrainResumeBitIdentical(t *testing.T) {
	dir := t.TempDir()
	plan := campaign.NewPlan(42, 300).
		Named("resume-test").
		WithCell("k40", "dgemm:128").
		WithCell("phi", "dgemm:128").
		WithThresholds(0, 2).
		WithWorkers(1).
		WithStreamChunk(32)
	want := directSummaries(t, plan)

	m1 := newManager(t, dir)
	s, err := m1.SubmitAs(tenant.Default, plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Subscribe before starting the executors so no chunk event is missed.
	_, events, unsub, err := m1.SubscribeFrom(s.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()
	m1.Start()

	// Wait until cell 0 has consumed at least two chunks, then drain:
	// the executor cancels at the next chunk boundary, checkpointing the
	// in-flight cell.
	progressed := false
	timeout := time.After(60 * time.Second)
	for !progressed {
		select {
		case ev := <-events:
			if ev.Type == "chunk" && ev.Cell == 0 && ev.Done >= 64 {
				progressed = true
			}
		case <-timeout:
			t.Fatal("no chunk progress observed")
		}
	}
	drain(t, m1)

	snap, err := m1.Job(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateQueued {
		t.Fatalf("drained job state = %s, want queued", snap.State)
	}
	logPath := m1.cellLogPath(s.ID, 0)
	if _, err := os.Stat(logPath); err != nil {
		t.Fatalf("no checkpoint log survived the drain: %v", err)
	}

	// Second incarnation on the same state dir: the job is re-queued and
	// resumed to completion. Before anything runs, the drained in-flight
	// cell reads back as pending: it left a log, not an outcome.
	m2 := newManager(t, dir)
	restored, err := m2.Job(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	if c := restored.Cells[0]; c.State != "pending" {
		t.Errorf("restored in-flight cell status %+v, want pending", c)
	}
	m2.Start()
	defer drain(t, m2)
	final := waitState(t, m2, s.ID, StateDone)
	jr, err := m2.Result(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(jr.Cells) != 2 {
		t.Fatalf("resumed job has %d cells, want 2", len(jr.Cells))
	}
	if !jr.Cells[0].Resumed {
		t.Errorf("cell 0 was not resumed from its checkpoint log")
	}
	if got := summariesJSON(t, jr); got != want {
		t.Errorf("resumed summaries differ from the uninterrupted run")
	}
	if _, err := os.Stat(logPath); !os.IsNotExist(err) {
		t.Errorf("checkpoint log not cleaned up after completion")
	}

	// A third incarnation restores every cell's status from its durable
	// outcome, resumed flag included, exactly as the live run left it.
	drain(t, m2)
	restored, err = newManager(t, dir).Job(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.Cells, final.Cells) {
		t.Errorf("restored cell statuses %+v, want %+v", restored.Cells, final.Cells)
	}
}

// TestTornLogRestart simulates a hard crash: after a drain, the
// in-flight cell's checkpoint log is truncated mid-record (a torn write)
// before the restart. ParseResume salvages up to the last complete #CHK
// and the summary still comes out bit-identical.
func TestTornLogRestart(t *testing.T) {
	dir := t.TempDir()
	plan := smokePlan(300)
	want := directSummaries(t, plan)

	m1 := newManager(t, dir)
	s, err := m1.SubmitAs(tenant.Default, plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, events, unsub, err := m1.SubscribeFrom(s.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()
	m1.Start()
	timeout := time.After(60 * time.Second)
	for progressed := false; !progressed; {
		select {
		case ev := <-events:
			if ev.Type == "chunk" && ev.Done >= 64 {
				progressed = true
			}
		case <-timeout:
			t.Fatal("no chunk progress observed")
		}
	}
	drain(t, m1)

	logPath := m1.cellLogPath(s.ID, 0)
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatalf("checkpoint log: %v", err)
	}
	if err := os.WriteFile(logPath, data[:len(data)-len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := newManager(t, dir)
	m2.Start()
	defer drain(t, m2)
	waitState(t, m2, s.ID, StateDone)
	jr, err := m2.Result(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := summariesJSON(t, jr); got != want {
		t.Errorf("torn-log resumed summaries differ from the uninterrupted run")
	}
}

// TestAdaptiveJob submits a plan with an early-stopping spec: the job
// completes with the cell's recorded strike count at the measured stop
// point (100 of 300), the summary is byte-identical to a direct
// RunPlanCell run of the same cell, and a resubmission is served from
// the content-addressed store (the adaptive spec is key material).
func TestAdaptiveJob(t *testing.T) {
	adaptive := func() *campaign.Plan {
		return campaign.NewPlan(42, 300).
			Named("svc-adaptive").
			WithCell("k40", "lavamd:4").
			WithThresholds(0, 2).
			WithWorkers(1).
			WithAdaptive(campaign.AdaptiveSpec{TargetHalfWidth: 0.1, MinStrikes: 100, CheckEvery: 50})
	}
	plan := adaptive()
	cells, err := plan.Build()
	if err != nil {
		t.Fatal(err)
	}
	wantInfo, wantSum, err := campaign.RunPlanCell(context.Background(), cells[0], plan.Config(), plan.EffectiveThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if wantInfo.Strikes != 100 {
		t.Fatalf("reference run stopped at %d strikes, expected 100", wantInfo.Strikes)
	}

	m := newManager(t, t.TempDir())
	m.Start()
	defer drain(t, m)
	s, err := m.SubmitAs(tenant.Default, adaptive(), 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := waitState(t, m, s.ID, StateDone)
	if cs := snap.Cells[0]; cs.Strikes != 100 || cs.Total != 300 {
		t.Fatalf("cell status %d/%d strikes, want 100/300", cs.Strikes, cs.Total)
	}
	jr, err := m.Result(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(struct {
		Info    *campaign.StreamInfo
		Summary *campaign.Summary
	}{jr.Cells[0].Info, jr.Cells[0].Summary})
	wantJSON, _ := json.Marshal(struct {
		Info    *campaign.StreamInfo
		Summary *campaign.Summary
	}{&wantInfo, wantSum})
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("adaptive job summary differs from direct run:\n%s\nvs\n%s", gotJSON, wantJSON)
	}

	s2, err := m.SubmitAs(tenant.Default, adaptive(), 0)
	if err != nil {
		t.Fatal(err)
	}
	snap2 := waitState(t, m, s2.ID, StateDone)
	jr2, err := m.Result(s2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !jr2.Cells[0].Cached {
		t.Errorf("identical adaptive plan was not served from the store")
	}
	if cs := snap2.Cells[0]; cs.Strikes != 100 {
		t.Errorf("cached adaptive cell status shows %d strikes, want 100", cs.Strikes)
	}
}

// TestCancelRunning cancels a job mid-flight: it lands in cancelled with
// its checkpoint logs removed, and a result document listing what
// completed.
func TestCancelRunning(t *testing.T) {
	dir := t.TempDir()
	m := newManager(t, dir)
	s, err := m.SubmitAs(tenant.Default, smokePlan(100_000), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, events, unsub, err := m.SubscribeFrom(s.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()
	m.Start()
	defer drain(t, m)
	timeout := time.After(60 * time.Second)
	for progressed := false; !progressed; {
		select {
		case ev := <-events:
			if ev.Type == "chunk" {
				progressed = true
			}
		case <-timeout:
			t.Fatal("no chunk progress observed")
		}
	}
	if _, err := m.Cancel(s.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, s.ID, StateCancelled)
	if _, err := os.Stat(m.cellLogPath(s.ID, 0)); !os.IsNotExist(err) {
		t.Errorf("cancelled job kept its checkpoint log")
	}
	if jr, err := m.Result(s.ID); err != nil || jr.State != StateCancelled {
		t.Errorf("Result of cancelled job = %v, %v", jr, err)
	}
	// Cancelling a terminal job is a no-op.
	if snap, err := m.Cancel(s.ID); err != nil || snap.State != StateCancelled {
		t.Errorf("re-cancel = %v, %v", snap, err)
	}
}

// TestPriorityScheduling submits before Start so the queue orders the
// whole batch: the high-priority job must run first.
func TestPriorityScheduling(t *testing.T) {
	dir := t.TempDir()
	m := newManager(t, dir)
	low1, err := m.SubmitAs(tenant.Default, smokePlan(60), 0)
	if err != nil {
		t.Fatal(err)
	}
	low2, err := m.SubmitAs(tenant.Default, smokePlan(90), 0)
	if err != nil {
		t.Fatal(err)
	}
	high, err := m.SubmitAs(tenant.Default, smokePlan(120), 7)
	if err != nil {
		t.Fatal(err)
	}
	// Pop order (white box): high first, then FIFO among equals.
	m.mu.Lock()
	var order []string
	for m.queue.Len() > 0 {
		j, _ := m.queue.Pop()
		order = append(order, j.ID)
	}
	for _, id := range order { // restore
		m.enqueueLocked(m.jobs[id])
	}
	m.mu.Unlock()
	want := []string{high.ID, low1.ID, low2.ID}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("scheduling order %v, want %v", order, want)
		}
	}
	m.Start()
	defer drain(t, m)
	waitState(t, m, high.ID, StateDone)
	waitState(t, m, low1.ID, StateDone)
	waitState(t, m, low2.ID, StateDone)
}

// TestSubmitValidation rejects invalid plans up front.
func TestSubmitValidation(t *testing.T) {
	m := newManager(t, t.TempDir())
	if _, err := m.SubmitAs(tenant.Default, campaign.NewPlan(1, 0).WithCell("k40", "dgemm:128"), 0); err == nil {
		t.Errorf("zero-strike plan accepted")
	}
	if _, err := m.SubmitAs(tenant.Default, campaign.NewPlan(1, 10).WithCell("nope", "dgemm:128"), 0); err == nil {
		t.Errorf("unknown-device plan accepted")
	}
	drain(t, m)
	if _, err := m.SubmitAs(tenant.Default, smokePlan(10), 0); err != ErrDraining {
		t.Errorf("Submit after drain = %v, want ErrDraining", err)
	}
}

// TestJobRetention pins the MaxJobs prune: oldest terminal jobs (record
// and state directory) are evicted once the table exceeds the cap, while
// live jobs are untouched.
func TestJobRetention(t *testing.T) {
	dir := t.TempDir()
	m, err := New(Options{StateDir: dir, Executors: 1, MaxJobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer drain(t, m)
	var ids []string
	for i := 0; i < 4; i++ {
		s, err := m.SubmitAs(tenant.Default, smokePlan(60+i), 0)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, s.ID, StateDone)
		ids = append(ids, s.ID)
	}
	// The last submission prunes down to MaxJobs: only the newest two
	// survive.
	for i, id := range ids {
		_, err := m.Job(id)
		if i < 2 {
			if err != ErrUnknownJob {
				t.Errorf("job %d (%s) not pruned: %v", i, id, err)
			}
			if _, serr := os.Stat(m.jobDir(id)); !os.IsNotExist(serr) {
				t.Errorf("job %d (%s) directory not removed", i, id)
			}
		} else if err != nil {
			t.Errorf("job %d (%s) wrongly pruned: %v", i, id, err)
		}
	}
}

// TestCancelBetweenPopAndClaim pins the pop/claim race fix: a job
// cancelled in the instant after an executor dequeues it but before
// runJob claims it must stay cancelled, not resurrect and run.
func TestCancelBetweenPopAndClaim(t *testing.T) {
	m := newManager(t, t.TempDir())
	s, err := m.SubmitAs(tenant.Default, smokePlan(100_000), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the race deterministically: pop the job (no executors are
	// running), cancel it, then hand it to runJob as an executor would.
	j := m.next()
	if j == nil || j.ID != s.ID {
		t.Fatalf("next() = %v", j)
	}
	if _, err := m.Cancel(s.ID); err != nil {
		t.Fatal(err)
	}
	m.runJob(m.baseCtx, j)
	snap, err := m.Job(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateCancelled {
		t.Errorf("job state after pop-race cancel = %s, want cancelled", snap.State)
	}
	drain(t, m)
}

// TestTerminalEventClosesSlowSubscriber pins the event-stream exit
// guarantee: a subscriber too far behind to receive the terminal state
// event has its channel closed instead, so an SSE stream can never hang
// on a finished job.
func TestTerminalEventClosesSlowSubscriber(t *testing.T) {
	m := newManager(t, t.TempDir())
	s, err := m.SubmitAs(tenant.Default, smokePlan(10), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, ch, unsub, err := m.SubscribeFrom(s.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()
	m.mu.Lock()
	for i := 0; i < 400; i++ { // overflow the 256-slot buffer
		m.publishLocked(Event{Type: "chunk", JobID: s.ID, Cell: 0, Done: i})
	}
	m.publishLocked(Event{Type: "state", JobID: s.ID, State: StateDone})
	m.mu.Unlock()
	n := 0
	for range ch { // terminates only if the channel was closed
		n++
		if n > 500 {
			t.Fatal("channel never closed")
		}
	}
	if n != 256 {
		t.Errorf("drained %d buffered events, want 256", n)
	}
	drain(t, m)
}

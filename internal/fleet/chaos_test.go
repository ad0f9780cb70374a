package fleet_test

import (
	"os"
	"testing"
	"time"

	"radcrit/internal/fleet"
	"radcrit/internal/fleet/chaostest"
	"radcrit/internal/tenant"
)

// TestChaosFlakyNetworkConvergence routes all worker↔coordinator
// traffic through a seeded flaky proxy injecting drops, delays, 503s
// and mid-response kills, and asserts the job still converges to
// summaries byte-identical to a direct in-process run. Every fleet
// failure path can fire here — lost leases (a killed lease response
// orphans the grant), duplicate completions, heartbeat gaps — and none
// of them may perturb a single bit of the result.
func TestChaosFlakyNetworkConvergence(t *testing.T) {
	tf := startFleet(t, fleet.Options{
		LeaseTTL: time.Second, Heartbeat: 150 * time.Millisecond,
		Poll: 30 * time.Millisecond, SpeculateAfter: time.Hour, MaxAttempts: 50,
	})
	var logf func(string, ...any)
	if testing.Verbose() {
		logf = t.Logf
	}
	proxy, err := chaostest.NewProxy(chaostest.ProxyOptions{
		Target: tf.srv.URL,
		Seed:   1,
		// Roughly one request in three suffers *something*.
		DropOneIn: 8, ErrorOneIn: 8, KillOneIn: 10, DelayOneIn: 6,
		Delay: 30 * time.Millisecond,
		Logf:  logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	startWorker(t, proxy.Addr(), "flaky-1", 0, nil)
	startWorker(t, proxy.Addr(), "flaky-2", 0, nil)
	waitWorkers(t, tf.coord, 2)

	plan := smokePlan(96, "k40/dgemm:128", "phi/dgemm:128")
	want := directSummaries(t, plan)
	snap, err := tf.m.SubmitAs(tenant.Default, plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	jr := waitDone(t, tf.m, snap.ID, 120*time.Second)
	if got := summariesJSON(t, jr); got != want {
		t.Fatalf("summaries through flaky network differ from direct run:\n got %s\nwant %s", got, want)
	}

	pc := proxy.Counters()
	t.Logf("proxy: %+v", pc)
	t.Logf("fleet: %+v", tf.coord.Health().Counters)
	if pc.Drops+pc.Errors+pc.Kills+pc.Delays == 0 {
		t.Fatal("the chaos proxy injected no faults; the test proved nothing")
	}
}

// TestChaosWorkerSIGKILLMidCell runs a real worker subprocess (the test
// binary re-exec'd; see TestMain), SIGKILLs it after it has streamed at
// least one chunk's checkpoint, and asserts the cell is finished by a
// rescue worker with byte-identical summaries — re-running only the
// strikes after the victim's last #CHK record, as witnessed by the
// requeued-strikes counter.
func TestChaosWorkerSIGKILLMidCell(t *testing.T) {
	tf := startFleet(t, fleet.Options{
		// Generous enough that a race-instrumented worker's multi-MB
		// checkpoint heartbeats always land well inside the TTL.
		LeaseTTL: 2 * time.Second, Heartbeat: 200 * time.Millisecond,
		Poll: 30 * time.Millisecond, SpeculateAfter: time.Hour, MaxAttempts: 20,
	})

	victim, err := chaostest.SpawnWorker(tf.srv.URL, "victim", 400*time.Millisecond, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = victim.Process.Kill()
		_, _ = victim.Process.Wait()
	}()
	waitWorkers(t, tf.coord, 1)

	plan := smokePlan(96, "k40/dgemm:128")
	want := directSummaries(t, plan)
	snap, err := tf.m.SubmitAs(tenant.Default, plan, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Wait for a heartbeat proving the victim is mid-cell with at least
	// one chunk checkpointed, then SIGKILL it — no abandon, no cleanup.
	l := waitLeaseStrikes(t, tf.coord, 32, 30*time.Second)
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = victim.Process.Wait()
	t.Logf("SIGKILLed victim holding lease %s at %d/%d strikes", l.Lease, l.Strikes, l.Total)

	rescue, err := chaostest.SpawnWorker(tf.srv.URL, "rescue", 0, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = rescue.Process.Kill()
		_, _ = rescue.Process.Wait()
	}()

	jr := waitDone(t, tf.m, snap.ID, 120*time.Second)
	if got := summariesJSON(t, jr); got != want {
		t.Fatalf("post-SIGKILL summaries differ from direct run:\n got %s\nwant %s", got, want)
	}
	h := tf.coord.Health()
	t.Logf("fleet: %+v", h.Counters)
	if h.Counters.LeaseExpiries < 1 {
		t.Errorf("lease expiries = %d, want >= 1 (the victim's lease must time out)", h.Counters.LeaseExpiries)
	}
	if h.Counters.RequeuedStrikes < 32 {
		t.Errorf("requeued strikes = %d, want >= 32 (rescue must resume from the victim's checkpoint)", h.Counters.RequeuedStrikes)
	}
	for _, c := range jr.Cells {
		if !c.Remote {
			t.Errorf("cell %v fell back to local execution; want remote completion by the rescue worker", c.Spec)
		}
	}
}

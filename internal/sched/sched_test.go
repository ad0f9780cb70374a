package sched

import (
	"math/rand"
	"testing"
)

func TestCostModelCalibration(t *testing.T) {
	var m CostModel
	// Reference dims reproduce the BENCH_campaign.json baselines exactly.
	refs := map[string]uint64{
		"dgemm:256":     43_559,
		"lavamd:5":      5_441_730,
		"hotspot:64x80": 86_537,
		"clamr:48x60":   487_984,
	}
	for spec, want := range refs {
		if got := m.StrikeCost(spec); got != want {
			t.Errorf("StrikeCost(%q) = %d, want %d", spec, got, want)
		}
	}
	// The relative ordering the scheduler exists to exploit: LavaMD
	// strikes dwarf DGEMM strikes.
	if m.StrikeCost("lavamd:5") < 50*m.StrikeCost("dgemm:256") {
		t.Error("lavamd should price far above dgemm")
	}
	// Scaling laws: quadratic in dgemm N, cubic in lavamd G, linear in
	// hotspot iterations.
	if got, want := m.StrikeCost("dgemm:512"), uint64(4*43_559); got != want {
		t.Errorf("dgemm:512 = %d, want %d (4x reference)", got, want)
	}
	if got, want := m.StrikeCost("lavamd:10"), uint64(8*5_441_730); got != want {
		t.Errorf("lavamd:10 = %d, want %d (8x reference)", got, want)
	}
	if got, want := m.StrikeCost("hotspot:64x160"), uint64(2*86_537); got != want {
		t.Errorf("hotspot:64x160 = %d, want %d (2x reference)", got, want)
	}
	// Unknown kernels price at the default; malformed params fall back to
	// reference dims instead of failing.
	if got := m.StrikeCost("bfs:1000"); got != DefaultStrikeNS {
		t.Errorf("unknown kernel = %d, want %d", got, DefaultStrikeNS)
	}
	if got := m.StrikeCost("dgemm:not-a-number"); got != refs["dgemm:256"] {
		t.Errorf("malformed params = %d, want reference %d", got, refs["dgemm:256"])
	}
	if got, want := m.CellCost("dgemm:256", 100), uint64(100*43_559); got != want {
		t.Errorf("CellCost = %d, want %d", got, want)
	}
	custom := CostModel{DefaultNS: 7}
	if got := custom.StrikeCost("bfs"); got != 7 {
		t.Errorf("custom default = %d, want 7", got)
	}
}

// TestSingleTenantPriorityFIFO pins the intra-tenant contract — the
// pre-tenancy scheduler's order: priority desc, then submission seq.
func TestSingleTenantPriorityFIFO(t *testing.T) {
	q := NewQueue[string]()
	push := func(id string, prio int, seq uint64) {
		q.Push("default", 1, prio, seq, 100, id)
	}
	push("a", 0, 1)
	push("b", 0, 2)
	push("hot", 5, 3)
	push("c", 0, 4)
	push("warm", 2, 5)
	want := []string{"hot", "warm", "a", "b", "c"}
	for _, w := range want {
		got, ok := q.Pop()
		if !ok || got != w {
			t.Fatalf("pop = %q ok=%v, want %q", got, ok, w)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty queue succeeded")
	}
}

// TestEqualWeightFairness is the fairness property test: two equal-weight
// tenants under saturation split popped cost within 10% of 50/50, at
// every prefix past a short warmup — even with randomised item costs.
// Each popped value carries [tenantIndex, cost] so the drain can track
// cumulative cost per tenant.
func TestEqualWeightFairness(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		q := NewQueue[[2]uint64]()
		rng := rand.New(rand.NewSource(int64(trial)*7919 + 1))
		var seq uint64
		for i := 0; i < 200; i++ {
			ti := i % 2
			c := uint64(1_000 + rng.Intn(100_000))
			seq++
			q.Push([]string{"a", "b"}[ti], 1, 0, seq, c, [2]uint64{uint64(ti), c})
		}
		var totals [2]float64
		for n := 1; ; n++ {
			v, ok := q.Pop()
			if !ok {
				break
			}
			totals[v[0]] += float64(v[1])
			if n >= 20 { // warmup: a few items of lead are inherent
				share := totals[0] / (totals[0] + totals[1])
				if share < 0.4 || share > 0.6 {
					t.Fatalf("trial %d: after %d pops share(a) = %.3f, want within 10%% of 0.5", trial, n, share)
				}
			}
		}
	}
}

// TestWeightedShares pins the 3:1 contract the acceptance criteria use:
// a weight-3 tenant receives 3x the popped cost of a weight-1 tenant
// under saturation, within 10%.
func TestWeightedShares(t *testing.T) {
	q := NewQueue[string]()
	var seq uint64
	const itemCost = 50_000
	for i := 0; i < 400; i++ {
		seq++
		q.Push("heavy", 3, 0, seq, itemCost, "heavy")
		seq++
		q.Push("light", 1, 0, seq, itemCost, "light")
	}
	counts := map[string]int{}
	// Sample mid-drain: both tenants still have backlog for the first 400
	// pops (heavy drains its 400 items by pop ~533).
	for i := 0; i < 400; i++ {
		v, ok := q.Pop()
		if !ok {
			t.Fatal("queue drained early")
		}
		counts[v]++
	}
	ratio := float64(counts["heavy"]) / float64(counts["light"])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("heavy:light pop ratio = %.2f (%d:%d), want 3.0 ±10%%", ratio, counts["heavy"], counts["light"])
	}
}

// TestCostAwareFairness pins the point of pricing: a tenant submitting
// expensive items gets proportionally fewer of them, so equal weights
// still split cost — not item count — evenly.
func TestCostAwareFairness(t *testing.T) {
	q := NewQueue[string]()
	var seq uint64
	for i := 0; i < 300; i++ {
		seq++
		q.Push("slow", 1, 0, seq, 500_000, "slow") // LavaMD-ish
		seq++
		q.Push("fast", 1, 0, seq, 50_000, "fast") // DGEMM-ish
	}
	var slowCost, fastCost float64
	counts := map[string]int{}
	for i := 0; i < 300; i++ { // mid-drain: fast still has backlog
		v, _ := q.Pop()
		counts[v]++
		if v == "slow" {
			slowCost += 500_000
		} else {
			fastCost += 50_000
		}
	}
	share := slowCost / (slowCost + fastCost)
	if share < 0.4 || share > 0.6 {
		t.Fatalf("slow tenant's cost share = %.3f, want ~0.5", share)
	}
	if counts["fast"] < 5*counts["slow"] {
		t.Errorf("fast tenant popped %d items vs slow's %d; expected ~10x more", counts["fast"], counts["slow"])
	}
}

// TestIdleTenantEarnsNoCredit: a tenant idle while another works cannot
// monopolise the queue when it returns.
func TestIdleTenantEarnsNoCredit(t *testing.T) {
	q := NewQueue[string]()
	var seq uint64
	push := func(tenant string, n int) {
		for i := 0; i < n; i++ {
			seq++
			q.Push(tenant, 1, 0, seq, 1000, tenant)
		}
	}
	push("worker", 100)
	for i := 0; i < 100; i++ {
		q.Pop() // worker runs alone; virtual time advances far
	}
	// Latecomer arrives; both submit equally from here on.
	push("worker", 50)
	push("late", 50)
	counts := map[string]int{}
	for i := 0; i < 50; i++ {
		v, _ := q.Pop()
		counts[v]++
	}
	// Interleaved, not 50 lates in a row.
	if counts["late"] > 30 || counts["worker"] > 30 {
		t.Fatalf("post-idle pops = %v, want interleaved ~25/25", counts)
	}
}

func TestRemoveAndDepths(t *testing.T) {
	q := NewQueue[int]()
	q.Push("a", 1, 0, 1, 10, 101)
	q.Push("a", 1, 0, 2, 10, 102)
	q.Push("b", 2, 0, 3, 10, 103)
	d := q.Depths()
	if q.Len() != 3 || d["a"] != 2 || d["b"] != 1 || len(d) != 2 {
		t.Fatalf("Len=%d Depths()=%v", q.Len(), d)
	}
	if v, ok := q.Remove("a", 1); !ok || v != 101 {
		t.Fatalf("Remove = %d ok=%v", v, ok)
	}
	if _, ok := q.Remove("a", 99); ok {
		t.Fatal("Remove of unknown seq succeeded")
	}
	if _, ok := q.Remove("zzz", 1); ok {
		t.Fatal("Remove of unknown tenant succeeded")
	}
	if q.Len() != 2 {
		t.Fatalf("Len after remove = %d", q.Len())
	}
	// Remaining items still pop, in order.
	if v, _ := q.Pop(); v != 102 && v != 103 {
		t.Fatalf("unexpected pop %d", v)
	}
}

// TestDeterministicOrder: identical pushes yield identical pop order.
func TestDeterministicOrder(t *testing.T) {
	build := func() *Queue[int] {
		q := NewQueue[int]()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 100; i++ {
			tenant := []string{"a", "b", "c"}[rng.Intn(3)]
			q.Push(tenant, 1+rng.Intn(3), rng.Intn(2), uint64(i), uint64(1+rng.Intn(10000)), i)
		}
		return q
	}
	q1, q2 := build(), build()
	for {
		v1, ok1 := q1.Pop()
		v2, ok2 := q2.Pop()
		if ok1 != ok2 || v1 != v2 {
			t.Fatalf("pop order diverged: %d/%v vs %d/%v", v1, ok1, v2, ok2)
		}
		if !ok1 {
			return
		}
	}
}

// TestSetWeightEffectiveNextPop pins the hot-reload contract: a weight
// changed via SetWeight reshapes the drain of an ALREADY-queued backlog
// starting with the very next Pop — no re-Push needed.
func TestSetWeightEffectiveNextPop(t *testing.T) {
	q := NewQueue[string]()
	var seq uint64
	const itemCost = 50_000
	for i := 0; i < 400; i++ {
		seq++
		q.Push("a", 1, 0, seq, itemCost, "a")
		seq++
		q.Push("b", 1, 0, seq, itemCost, "b")
	}
	// Reload: tenant a is now weight 3. Every subsequent pop must price
	// a's items at cost/3.
	q.SetWeight("a", 3)
	counts := map[string]int{}
	for i := 0; i < 400; i++ {
		v, ok := q.Pop()
		if !ok {
			t.Fatal("queue drained early")
		}
		counts[v]++
	}
	ratio := float64(counts["a"]) / float64(counts["b"])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("a:b pop ratio after SetWeight = %.2f (%d:%d), want 3.0 ±10%%", ratio, counts["a"], counts["b"])
	}
	// Unknown tenants are a no-op (removed tenants keep their old weight).
	q.SetWeight("ghost", 9)
	if _, ok := q.tenants["ghost"]; ok {
		t.Fatal("SetWeight invented a tenant")
	}
}

// TestLags: backlogged tenants report vfinish - vtime; under equal
// weights and equal costs the lags stay within one item's virtual cost
// of zero, and idle tenants are absent.
func TestLags(t *testing.T) {
	q := NewQueue[string]()
	var seq uint64
	for i := 0; i < 10; i++ {
		seq++
		q.Push("a", 1, 0, seq, 1000, "a")
		seq++
		q.Push("b", 1, 0, seq, 1000, "b")
	}
	for i := 0; i < 10; i++ {
		q.Pop()
	}
	lags := q.Lags()
	if len(lags) != 2 {
		t.Fatalf("lags = %v, want both tenants backlogged", lags)
	}
	for name, lag := range lags {
		if lag < -1000 || lag > 1000 {
			t.Errorf("tenant %s lag = %v, want within one item cost of 0", name, lag)
		}
	}
	// Drain a's backlog: it must vanish from the lag map.
	for {
		v, ok := q.Pop()
		if !ok {
			break
		}
		_ = v
	}
	if lags := q.Lags(); len(lags) != 0 {
		t.Fatalf("drained queue lags = %v, want empty", lags)
	}
}

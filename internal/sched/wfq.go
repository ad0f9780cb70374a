package sched

import (
	"container/heap"
	"sort"
)

// Queue is a weighted-fair queue over per-tenant sub-queues, scheduled by
// virtual time (start-time fair queueing): every pop charges the popped
// item's cost to its tenant's virtual clock, divided by the tenant's
// weight, and the next pop goes to the tenant whose head item finishes
// earliest in virtual time. Under saturation each tenant's share of
// popped cost converges to weight/Σweights; an idle tenant's clock is
// clamped to the global virtual time when it becomes active again, so
// idleness earns no banked credit (and bursts after idleness cannot
// starve the tenants that kept working).
//
// Within a tenant, items pop by priority (higher first), then submission
// sequence — the pre-tenancy scheduler's contract, now scoped to one
// tenant's own jobs so priority games cannot cross namespaces.
//
// Not safe for concurrent use; callers hold their own lock (the service
// manager's mutex, the fleet coordinator's mutex).
type Queue[T any] struct {
	tenants map[string]*tenantState[T]
	vtime   float64
	length  int
}

type entry[T any] struct {
	priority int
	seq      uint64
	cost     uint64
	value    T
}

// subQueue orders one tenant's items: priority desc, then seq asc.
type subQueue[T any] []*entry[T]

func (q subQueue[T]) Len() int { return len(q) }
func (q subQueue[T]) Less(i, j int) bool {
	if q[i].priority != q[j].priority {
		return q[i].priority > q[j].priority
	}
	return q[i].seq < q[j].seq
}
func (q subQueue[T]) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *subQueue[T]) Push(x any)   { *q = append(*q, x.(*entry[T])) }
func (q *subQueue[T]) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

type tenantState[T any] struct {
	weight  float64
	vfinish float64
	h       subQueue[T]
}

// NewQueue builds an empty weighted-fair queue.
func NewQueue[T any]() *Queue[T] {
	return &Queue[T]{tenants: map[string]*tenantState[T]{}}
}

// Push enqueues an item for tenant with the given weight (>= 1; lower is
// clamped), cost (0 is clamped to 1 so virtual time always advances),
// intra-tenant priority and submission sequence. Pushing refreshes the
// tenant's weight, so a reconfigured weight takes effect on the next
// submission without draining the queue.
func (q *Queue[T]) Push(tenant string, weight int, priority int, seq uint64, cost uint64, v T) {
	ts := q.tenants[tenant]
	if ts == nil {
		ts = &tenantState[T]{}
		q.tenants[tenant] = ts
	}
	if weight < 1 {
		weight = 1
	}
	ts.weight = float64(weight)
	if len(ts.h) == 0 && ts.vfinish < q.vtime {
		// Reactivating after idleness: no banked credit.
		ts.vfinish = q.vtime
	}
	if cost == 0 {
		cost = 1
	}
	heap.Push(&ts.h, &entry[T]{priority: priority, seq: seq, cost: cost, value: v})
	q.length++
}

// Pop removes and returns the item that finishes earliest in virtual
// time. The boolean is false when the queue is empty.
func (q *Queue[T]) Pop() (T, bool) {
	var zero T
	if q.length == 0 {
		return zero, false
	}
	// Deterministic selection: visit active tenants in name order.
	names := make([]string, 0, len(q.tenants))
	for name, ts := range q.tenants {
		if len(ts.h) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var (
		selName   string
		selStart  float64
		selFinish float64
		selSeq    uint64
	)
	for _, name := range names {
		ts := q.tenants[name]
		head := ts.h[0]
		// A backlogged tenant's start tag is its own virtual finish — it
		// must NOT be re-clamped to the advancing global clock here, or
		// tenants waiting behind a cheaper competitor are dragged forward
		// forever and starve. The clamp happens once, at reactivation
		// (Push on an empty sub-queue).
		start := ts.vfinish
		finish := start + float64(head.cost)/ts.weight
		if selName == "" || finish < selFinish ||
			(finish == selFinish && head.seq < selSeq) {
			selName, selStart, selFinish, selSeq = name, start, finish, head.seq
		}
	}
	ts := q.tenants[selName]
	e := heap.Pop(&ts.h).(*entry[T])
	if selStart > q.vtime {
		q.vtime = selStart // monotone: never rewind for late-served tenants
	}
	ts.vfinish = selFinish
	q.length--
	return e.value, true
}

// Remove deletes the queued item with the given submission sequence from
// tenant's sub-queue (a cancelled queued job). The boolean is false when
// no such item is queued. Virtual time is not refunded: a cancelled item
// was never popped, so it was never charged.
func (q *Queue[T]) Remove(tenant string, seq uint64) (T, bool) {
	var zero T
	ts := q.tenants[tenant]
	if ts == nil {
		return zero, false
	}
	for i, e := range ts.h {
		if e.seq == seq {
			v := e.value
			heap.Remove(&ts.h, i)
			q.length--
			return v, true
		}
	}
	return zero, false
}

// SetWeight updates a tenant's weight in place (>= 1; lower is clamped),
// taking effect on the next Pop — the hot-reload path, where waiting for
// the tenant's next Push would leave an already-queued backlog draining
// under the stale weight. Unknown tenants are a no-op: a tenant removed
// from the registry is deliberately never re-weighted, so its queued
// jobs drain under the last weight they were admitted with.
func (q *Queue[T]) SetWeight(tenant string, weight int) {
	ts := q.tenants[tenant]
	if ts == nil {
		return
	}
	if weight < 1 {
		weight = 1
	}
	ts.weight = float64(weight)
}

// Lags maps every backlogged tenant to its virtual-time lag: the
// tenant's virtual finish minus the global virtual clock. Around zero
// the tenant is receiving exactly its weighted share; persistently
// positive means it has been served ahead of the clock, persistently
// negative means it is starved — the fairness-drift signal the
// telemetry layer exports.
func (q *Queue[T]) Lags() map[string]float64 {
	out := map[string]float64{}
	for name, ts := range q.tenants {
		if len(ts.h) > 0 {
			out[name] = ts.vfinish - q.vtime
		}
	}
	return out
}

// Len is the total number of queued items.
func (q *Queue[T]) Len() int { return q.length }

// Depths maps every tenant with queued items to its depth.
func (q *Queue[T]) Depths() map[string]int {
	out := map[string]int{}
	for name, ts := range q.tenants {
		if len(ts.h) > 0 {
			out[name] = len(ts.h)
		}
	}
	return out
}

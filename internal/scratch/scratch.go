// Package scratch provides the pooled, reusable working-set primitives of
// the zero-allocation strike hot path (DESIGN.md §8):
//
//   - Pool[T]: a typed sync.Pool-backed borrow/release API, safe under the
//     campaign worker pool, used by the kernels to recycle their per-strike
//     scratch (dense difference grids, sparse corrupted-cell maps).
//   - IndexMap[V]: an epoch-stamped sparse int->V map whose Clear is O(1)
//     — bump the epoch instead of reallocating or zeroing — so a strike's
//     corrupted-cell working set costs memory proportional to the
//     *perturbed* region, not the kernel's domain, and recycling it across
//     strikes costs nothing.
//   - ZeroBox: row-major bounding-box zeroing, restoring the all-zero pool
//     invariant of a dense scratch grid by touching only the cells a
//     strike actually dirtied.
//
// None of these primitives affect results: pooled and unpooled executions
// are bit-identical (pinned by the kernels' property suites), because a
// borrowed object always observes the same logical state a fresh
// allocation would.
package scratch

import (
	"sort"
	"sync"
)

// Pool is a typed sync.Pool: Get borrows a T (constructing one on a cold
// pool), Put returns it for reuse. All methods are safe for concurrent
// use. Invariants on the pooled value's state (e.g. "grid is all-zero")
// are the caller's contract: establish them before Put, rely on them after
// Get.
//
// Pools come from NewNamedPool (metrics.go), which meters their traffic.
type Pool[T any] struct {
	pool  sync.Pool
	stats *PoolStats
}

// Get borrows a value from the pool.
func (p *Pool[T]) Get() T {
	p.stats.gets.Add(1)
	return p.pool.Get().(T)
}

// Put returns a value to the pool. The caller must not use v afterwards.
func (p *Pool[T]) Put(v T) { p.pool.Put(v) }

// IndexMap is a sparse map from non-negative int keys to values of type V,
// built for reuse across many small working sets over a huge key domain
// (e.g. corrupted cells of an 8192x8192 matrix). It is an open-addressing
// hash table whose slots are epoch-stamped: Clear bumps the epoch and
// truncates the insertion log, invalidating every slot in O(1) without
// touching them. Capacity grows to the largest working set ever held and
// is then reused allocation-free.
//
// The zero value is ready to use. IndexMap is not safe for concurrent use;
// pool one per worker via Pool.
type IndexMap[V any] struct {
	slots []mapSlot[V]
	keys  []int // insertion log of the live epoch's keys
	epoch uint32
	shift uint // 64 - log2(len(slots))
}

type mapSlot[V any] struct {
	key   int
	stamp uint32
	val   V
}

// minMapCap is the initial slot-table size (a power of two).
const minMapCap = 64

// hashIndex spreads a key over the slot table (Fibonacci hashing).
func (m *IndexMap[V]) hashIndex(key int) int {
	return int((uint64(key) * 0x9E3779B97F4A7C15) >> m.shift)
}

// Clear drops every entry in O(1) by advancing the epoch. On the (rare)
// epoch wrap it eagerly zeroes the stamps so stale slots from 2^32 clears
// ago cannot resurrect.
func (m *IndexMap[V]) Clear() {
	m.keys = m.keys[:0]
	m.epoch++
	if m.epoch == 0 { // wrapped: stale stamps would alias the new epoch
		for i := range m.slots {
			m.slots[i].stamp = 0
		}
		m.epoch = 1
	}
}

// init readies the zero value: epoch 1 (so zeroed slots are never live)
// and the minimum slot table.
func (m *IndexMap[V]) lazyInit() {
	if m.epoch == 0 {
		m.epoch = 1
	}
	if len(m.slots) == 0 {
		m.slots = make([]mapSlot[V], minMapCap)
		m.shift = 64 - 6 // log2(minMapCap)
	}
}

// findSlot returns the slot index holding key, or the insertion point for
// it (the first dead slot of its probe chain).
func (m *IndexMap[V]) findSlot(key int) int {
	i := m.hashIndex(key)
	mask := len(m.slots) - 1
	for {
		s := &m.slots[i]
		if s.stamp != m.epoch || s.key == key {
			return i
		}
		i = (i + 1) & mask
	}
}

// Get returns the value stored under key.
func (m *IndexMap[V]) Get(key int) (V, bool) {
	if len(m.slots) == 0 || len(m.keys) == 0 {
		var zero V
		return zero, false
	}
	s := &m.slots[m.findSlot(key)]
	if s.stamp == m.epoch && s.key == key {
		return s.val, true
	}
	var zero V
	return zero, false
}

// Ref returns a pointer to key's value slot, inserting a zero V when the
// key is absent (reported by fresh). The pointer is invalidated by the
// next insertion of a *different* key (the table may grow); use it
// immediately, before any other map call.
func (m *IndexMap[V]) Ref(key int) (ref *V, fresh bool) {
	m.lazyInit()
	i := m.findSlot(key)
	s := &m.slots[i]
	if s.stamp == m.epoch && s.key == key {
		return &s.val, false
	}
	if m.overloaded() {
		m.grow()
		i = m.findSlot(key)
		s = &m.slots[i]
	}
	var zero V
	s.key, s.stamp, s.val = key, m.epoch, zero
	m.keys = append(m.keys, key)
	return &s.val, true
}

// Set stores val under key, overwriting any previous value.
func (m *IndexMap[V]) Set(key int, val V) {
	ref, _ := m.Ref(key)
	*ref = val
}

// overloaded reports whether the next insertion should grow the table
// (load factor 3/4).
func (m *IndexMap[V]) overloaded() bool {
	return (len(m.keys)+1)*4 > len(m.slots)*3
}

// grow doubles the slot table and reinserts the live entries from the
// insertion log.
func (m *IndexMap[V]) grow() {
	old := m.slots
	oldEpoch := m.epoch
	m.slots = make([]mapSlot[V], 2*len(old))
	m.shift--
	for _, s := range old {
		if s.stamp != oldEpoch {
			continue
		}
		i := m.findSlot(s.key)
		m.slots[i] = mapSlot[V]{key: s.key, stamp: m.epoch, val: s.val}
	}
}

// SortedKeys sorts the live keys ascending in place and returns them —
// the deterministic emission order of the kernels' mismatch reports,
// replacing the map-iteration sort they used to pay an allocation for.
// The slice is valid until the next Clear.
func (m *IndexMap[V]) SortedKeys() []int {
	sort.Ints(m.keys)
	return m.keys
}

// ZeroBox zeroes the closed box [x0,x1] x [y0,y1] of a row-major grid with
// the given stride, restoring a dense scratch grid's all-zero pool
// invariant while touching only the strike's dirty region. Out-of-range
// or empty boxes are no-ops.
func ZeroBox[T any](buf []T, stride, x0, y0, x1, y1 int) {
	if stride <= 0 || x1 < x0 || y1 < y0 {
		return
	}
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 >= stride {
		x1 = stride - 1
	}
	for y := y0; y <= y1; y++ {
		row := y * stride
		if row+x0 >= len(buf) {
			return
		}
		end := row + x1 + 1
		if end > len(buf) {
			end = len(buf)
		}
		clear(buf[row+x0 : end])
	}
}

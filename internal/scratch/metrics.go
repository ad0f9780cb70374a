package scratch

import (
	"sync"
	"sync/atomic"

	"radcrit/internal/telemetry"
)

// PoolStats counts one named pool's traffic: Gets, and the subset that
// missed (cold pool — the sync.Pool constructed a fresh value). The hit
// rate is (gets - misses) / gets. Both are plain atomic adds, within the
// hot path's single-atomic budget (DESIGN.md §14).
type PoolStats struct {
	gets   atomic.Uint64
	misses atomic.Uint64
}

// Gets returns the total borrow count.
func (s *PoolStats) Gets() uint64 { return s.gets.Load() }

// Misses returns the cold-construction count.
func (s *PoolStats) Misses() uint64 { return s.misses.Load() }

// statsByName dedups stats across pool instances: the kernels construct
// one Pool per kernel instance, but every "lavamd.grid" pool shares one
// stats row — the per-name aggregate is what the hit-rate metric wants.
var (
	statsMu     sync.Mutex
	statsByName = map[string]*PoolStats{}
)

// statsFor returns (creating once) the shared stats row for name.
func statsFor(name string) *PoolStats {
	statsMu.Lock()
	defer statsMu.Unlock()
	s, ok := statsByName[name]
	if !ok {
		s = &PoolStats{}
		statsByName[name] = s
	}
	return s
}

// NewNamedPool returns a pool whose cold Gets construct values with
// newFn, with shared per-name traffic accounting exported by
// RegisterMetrics. Pools of the same name — across kernel
// instances and goroutines — aggregate into one stats row.
func NewNamedPool[T any](name string, newFn func() T) *Pool[T] {
	s := statsFor(name)
	p := &Pool[T]{stats: s}
	p.pool.New = func() any {
		s.misses.Add(1)
		return newFn()
	}
	return p
}

// RegisterMetrics exports every named pool's traffic on reg as
// scrape-time counters (hit rate = 1 - misses/gets).
func RegisterMetrics(reg *telemetry.Registry) {
	collect := func(read func(*PoolStats) uint64) func(emit func([]string, float64)) {
		return func(emit func([]string, float64)) {
			statsMu.Lock()
			type row struct {
				name string
				s    *PoolStats
			}
			rows := make([]row, 0, len(statsByName))
			for name, s := range statsByName {
				rows = append(rows, row{name, s})
			}
			statsMu.Unlock()
			for _, r := range rows {
				emit([]string{r.name}, float64(read(r.s)))
			}
		}
	}
	reg.CounterVecFunc("radcrit_scratch_pool_gets_total",
		"Borrows from each named scratch pool.",
		[]string{"pool"}, collect((*PoolStats).Gets))
	reg.CounterVecFunc("radcrit_scratch_pool_misses_total",
		"Cold constructions in each named scratch pool (hit rate = 1 - misses/gets).",
		[]string{"pool"}, collect((*PoolStats).Misses))
}

// Package dgemm implements the paper's Matrix Multiplication benchmark: a
// Dense Linear Algebra kernel, CPU-bound, balanced, with a regular access
// pattern (Table I), O(N^3) compute over O(N^2) space. DGEMM is "a
// cornerstone code for several applications and performance evaluation
// tools", including Linpack.
//
// Faulty executions use exact delta propagation: C = A x B is linear in
// every input element, so corrupting a_ik changes row i of C by
// delta*b_k· and nothing else. Only reachable outputs are recomputed and
// golden values are evaluated lazily, which keeps paper-scale inputs
// (up to 8192x8192) tractable inside multi-thousand-run campaigns while
// remaining bit-identical to a full faulty re-execution.
package dgemm

import (
	"fmt"
	"math"
	"sync"

	"radcrit/internal/arch"
	"radcrit/internal/grid"
	"radcrit/internal/kernels"
	"radcrit/internal/metrics"
	"radcrit/internal/scratch"
	"radcrit/internal/xrand"
)

// TileSize is the block tile edge: each work block computes a
// TileSize x TileSize tile of C.
const TileSize = 64

// Kernel is a DGEMM instance of one input size.
type Kernel struct {
	n     int
	seedA uint64
	seedB uint64

	goldenOnce sync.Once
	golden     *goldenProduct
}

var _ kernels.Kernel = (*Kernel)(nil)

// Check reports whether n is a valid DGEMM input size without building
// anything: the non-panicking face of New's precondition, used by plan
// validation.
func Check(n int) error {
	if n <= 0 || n%TileSize != 0 {
		return fmt.Errorf("dgemm: size %d not a positive multiple of %d", n, TileSize)
	}
	return nil
}

// New returns an n x n DGEMM kernel. n must be a positive multiple of
// TileSize (the paper sweeps powers of two from 1024 to 8192).
func New(n int) *Kernel {
	if err := Check(n); err != nil {
		panic(err.Error())
	}
	return &Kernel{n: n, seedA: 0xA0A0 + uint64(n), seedB: 0xB0B0 + uint64(n)}
}

// Name implements kernels.Kernel.
func (k *Kernel) Name() string { return "DGEMM" }

// Domain implements kernels.Kernel (Table II).
func (k *Kernel) Domain() string { return "Linear algebra" }

// InputLabel implements kernels.Kernel.
func (k *Kernel) InputLabel() string { return fmt.Sprintf("%dx%d", k.n, k.n) }

// Class implements kernels.Kernel (Table I).
func (k *Kernel) Class() kernels.Class {
	return kernels.Class{BoundBy: "CPU", LoadBalance: "Balanced", MemoryAccess: "Regular"}
}

// A returns input element a_{i,k}. Values sit in [0.5, 2): big enough to be
// representative, small enough to avoid overflow, and bounded away from
// zero so relative errors are well defined (paper §IV-D).
func (k *Kernel) A(i, kk int) float64 {
	return kernels.ValueAt(k.seedA, i, kk, 0.5, 2.0)
}

// B returns input element b_{k,j}.
func (k *Kernel) B(kk, j int) float64 {
	return kernels.ValueAt(k.seedB, kk, j, 0.5, 2.0)
}

// Profile implements kernels.Kernel. Thread counts follow Table II
// (side^2/16 threads); blocks compute TileSize^2 output tiles.
func (k *Kernel) Profile(dev arch.Device) arch.Profile {
	m := dev.Model()
	p := arch.Profile{
		Kernel:           "DGEMM",
		InputLabel:       k.InputLabel(),
		OutputDims:       grid.Dims{X: k.n, Y: k.n, Z: 1},
		Threads:          k.n * k.n / 16,
		Blocks:           (k.n / TileSize) * (k.n / TileSize),
		CacheFootprintKB: 3 * float64(k.n) * float64(k.n) * 8 / 1024,
		ControlShare:     0.04,
		MemoryBound:      false,
		Irregular:        false,
		RelRuntime:       math.Pow(float64(k.n)/1024, 3),
	}
	if m.SharedMemKBPerCore > 0 {
		// GPU-style staging of A/B tiles in shared memory.
		p.LocalMemPerBlockKB = 8
	}
	if m.VectorWidthBits > 0 {
		p.VectorShare = 0.80
		p.FPUShare = 0.30
	} else {
		p.FPUShare = 0.85
	}
	return p
}

// goldenProduct is DGEMM's golden-state handle: rows and columns of the
// fault-free product C, materialised on demand and shared by every strike
// of a campaign. Entries are pure functions of the kernel, so concurrent
// strikes may race to compute the same row — both arrive at bit-identical
// values and LoadOrStore keeps exactly one. Cached slices are read-only.
// Memory grows with the set of distinct rows/columns touched, bounded by
// the full product (2*N^2 floats); campaign strikes revisit rows heavily,
// which is precisely why sharing beats per-run caches.
type goldenProduct struct {
	k    *Kernel
	rows sync.Map // int -> []float64
	cols sync.Map // int -> []float64
	scr  *scratch.Pool[*runScratch]
}

// runScratch is one borrowable strike working set: the epoch-stamped
// corrupted-cell map (cleared in O(1) between strikes) plus the small
// per-line delta buffers the cache-line and shared-tile injections used
// to allocate fresh.
type runScratch struct {
	cells  scratch.IndexMap[faultyCell]
	deltas []float64
	ks     []int
	tile   [TileSize]float64
}

// Golden implements kernels.Kernel. The handle is device-independent:
// DGEMM's golden product depends only on the input matrices.
func (k *Kernel) Golden(dev arch.Device) kernels.GoldenState {
	k.goldenOnce.Do(func() {
		k.golden = &goldenProduct{
			k:   k,
			scr: scratch.NewNamedPool("dgemm.run", func() *runScratch { return &runScratch{} }),
		}
	})
	return k.golden
}

// row returns golden row i of C, computing and caching it on demand.
func (g *goldenProduct) row(i int) []float64 {
	if row, ok := g.rows.Load(i); ok {
		return row.([]float64)
	}
	n := g.k.n
	row := make([]float64, n)
	// k-outer loop: stream B rows for locality.
	for kk := 0; kk < n; kk++ {
		a := g.k.A(i, kk)
		for j := 0; j < n; j++ {
			row[j] += a * g.k.B(kk, j)
		}
	}
	v, _ := g.rows.LoadOrStore(i, row)
	return v.([]float64)
}

// col returns golden column j of C, computing and caching on demand.
func (g *goldenProduct) col(j int) []float64 {
	if col, ok := g.cols.Load(j); ok {
		return col.([]float64)
	}
	n := g.k.n
	col := make([]float64, n)
	for kk := 0; kk < n; kk++ {
		b := g.k.B(kk, j)
		for i := 0; i < n; i++ {
			col[i] += g.k.A(i, kk) * b
		}
	}
	v, _ := g.cols.LoadOrStore(j, col)
	return v.([]float64)
}

// run carries one execution's corrupted state on top of the shared golden
// product.
type run struct {
	k      *Kernel
	golden *goldenProduct
	sc     *runScratch
	rep    *metrics.Report
}

// faultyCell pairs a corrupted value with its golden counterpart so the
// final report never has to re-derive golden rows.
type faultyCell struct {
	read, expected float64
}

func (k *Kernel) newRun(g *goldenProduct, sc *runScratch, reports *metrics.ReportPool) run {
	sc.cells.Clear()
	return run{
		k:      k,
		golden: g,
		sc:     sc,
		rep:    reports.Get(grid.Dims{X: k.n, Y: k.n, Z: 1}, k.n*k.n),
	}
}

// goldenRow returns golden row i of C from the shared handle.
func (r *run) goldenRow(i int) []float64 { return r.golden.row(i) }

// goldenCol returns golden column j of C from the shared handle.
func (r *run) goldenCol(j int) []float64 { return r.golden.col(j) }

// recordWith stores a corrupted value against a caller-supplied golden
// value (already known from a cached row or column; recomputing it here
// would materialise whole golden rows). Deltas below one ulp vanish in
// the addition, which is exactly the logical masking a real device would
// exhibit. Overlapping corruptions of the same element keep the last
// value, like overlapping stores would; an element whose last write
// restored the golden value is skipped at emission, which is the same
// report the old delete-on-equal map produced.
func (r *run) recordWith(i, j int, faulty, golden float64) {
	r.sc.cells.Set(i*r.k.n+j, faultyCell{read: faulty, expected: golden})
}

// record stores a corrupted value, deriving golden from the row cache.
func (r *run) record(i, j int, faulty float64) {
	r.recordWith(i, j, faulty, r.goldenRow(i)[j])
}

// finish converts stored corrupted values into the mismatch report.
// Mismatches are emitted in ascending flat-index (row-major) order so the
// report is a deterministic function of the corrupted set, exactly as the
// pre-pooling sort emitted them. The scratch stays with the caller, so a
// batch of strikes can reuse it back to back.
func (r *run) finish() *metrics.Report {
	n := r.k.n
	keys := r.sc.cells.SortedKeys()
	// Size the pooled report once for the corrupted-cell count instead of
	// doubling inside the loop.
	r.rep.Reserve(len(keys))
	for _, key := range keys {
		c, _ := r.sc.cells.Get(key)
		if c.read == c.expected {
			continue // last write restored the golden value
		}
		i, j := key/n, key%n
		r.rep.Mismatches = append(r.rep.Mismatches, metrics.Mismatch{
			Coord:     grid.Coord{X: j, Y: i},
			Read:      c.read,
			Expected:  c.expected,
			RelErrPct: metrics.RelativeErrorPct(c.read, c.expected),
		})
	}
	return r.rep
}

// RunInjectedPooled implements kernels.Kernel: the corrupted-cell map and
// delta buffers come from the handle's scratch pool, the report from the
// session pool.
func (k *Kernel) RunInjectedPooled(g kernels.GoldenState, inj arch.Injection, rng *xrand.RNG, reports *metrics.ReportPool) *metrics.Report {
	gp := g.(*goldenProduct)
	sc := gp.scr.Get()
	rep := k.runInjectedWith(gp, sc, inj, rng, reports)
	gp.scr.Put(sc)
	return rep
}

// RunInjectedBatch implements kernels.Kernel: the whole batch shares
// one borrowed scratch working set, keeping the corrupted-cell map and the
// golden rows it touches cache-hot across strikes.
func (k *Kernel) RunInjectedBatch(gs kernels.GoldenState, batch []kernels.BatchStrike, reports *metrics.ReportPool) {
	gp := gs.(*goldenProduct)
	sc := gp.scr.Get()
	for i := range batch {
		batch[i].Report = k.runInjectedWith(gp, sc, batch[i].Inj, batch[i].RNG, reports)
	}
	gp.scr.Put(sc)
}

// runInjectedWith executes one injection against externally owned scratch.
func (k *Kernel) runInjectedWith(gp *goldenProduct, sc *runScratch, inj arch.Injection, rng *xrand.RNG, reports *metrics.ReportPool) *metrics.Report {
	rv := k.newRun(gp, sc, reports)
	r := &rv
	n := k.n

	switch inj.Scope {
	case arch.ScopeAccumTerm, arch.ScopeInputWord:
		// One term of one dot product transits the corrupted datapath.
		i, j, kk := rng.Intn(n), rng.Intn(n), rng.Intn(n)
		t := k.A(i, kk) * k.B(kk, j)
		tf := inj.Flip.Apply(t, rng)
		r.record(i, j, r.goldenRow(i)[j]+(tf-t))

	case arch.ScopeOutputWord:
		i, j := rng.Intn(n), rng.Intn(n)
		g := r.goldenRow(i)[j]
		r.record(i, j, inj.Flip.Apply(g, rng))

	case arch.ScopeVectorLanes:
		// One SIMD register of already-computed C values is corrupted on
		// its way to memory: adjacent elements of one row.
		i := rng.Intn(n)
		j0 := kernels.AlignedStart(rng, n, inj.Words)
		row := r.goldenRow(i)
		for w := 0; w < inj.Words && j0+w < n; w++ {
			r.record(i, j0+w, inj.Flip.Apply(row[j0+w], rng))
		}

	case arch.ScopeCacheLine:
		k.injectCacheLines(r, inj, rng)

	case arch.ScopeSharedTile:
		k.injectSharedTile(r, inj, rng)

	case arch.ScopeTaskSet:
		k.injectTaskSet(r, inj, rng)
	}

	return r.finish()
}

// injectCacheLines corrupts inj.Lines distinct cache lines. A line holds
// either output data (a run of already-computed C elements, undiluted
// flips) or input data (a run of A or B, whose corruption propagates
// through the remaining real multiply-accumulates).
func (k *Kernel) injectCacheLines(r *run, inj arch.Injection, rng *xrand.RNG) {
	n := k.n
	for line := 0; line < inj.Lines; line++ {
		if rng.Bool(inj.OutputBias) {
			// Output-side: flip computed C words directly.
			i := rng.Intn(n)
			j0 := kernels.AlignedStart(rng, n, inj.Words)
			row := r.goldenRow(i)
			for w := 0; w < inj.Words && j0+w < n; w++ {
				r.record(i, j0+w, inj.Flip.Apply(row[j0+w], rng))
			}
			continue
		}
		// Input-side: the line is only harmful if it is still to be
		// consumed when the strike lands.
		if rng.Float64() < inj.When {
			continue // already consumed: logically masked
		}
		if rng.Bool(0.5) {
			// A row fragment: poisons row i of C.
			i := rng.Intn(n)
			k0 := kernels.AlignedStart(rng, n, inj.Words)
			row := r.goldenRow(i)
			deltas := r.sc.deltas[:0]
			ks := r.sc.ks[:0]
			for w := 0; w < inj.Words && k0+w < n; w++ {
				a := k.A(i, k0+w)
				deltas = append(deltas, inj.Flip.Apply(a, rng)-a)
				ks = append(ks, k0+w)
			}
			r.sc.deltas, r.sc.ks = deltas, ks // keep grown capacity pooled
			for j := 0; j < n; j++ {
				d := 0.0
				for t, kk := range ks {
					d += deltas[t] * k.B(kk, j)
				}
				if d != 0 {
					r.record(i, j, row[j]+d)
				}
			}
		} else {
			// B row fragment: poisons columns j0..j0+w of C.
			kk := rng.Intn(n)
			j0 := kernels.AlignedStart(rng, n, inj.Words)
			for w := 0; w < inj.Words && j0+w < n; w++ {
				j := j0 + w
				b := k.B(kk, j)
				d := inj.Flip.Apply(b, rng) - b
				if d == 0 {
					continue
				}
				col := r.goldenCol(j)
				for i := 0; i < n; i++ {
					r.recordWith(i, j, col[i]+k.A(i, kk)*d, col[i])
				}
			}
		}
	}
}

// injectSharedTile corrupts words of an A tile staged in one block's
// shared memory: only that block's TileSize output columns consume the
// poisoned copy.
func (k *Kernel) injectSharedTile(r *run, inj arch.Injection, rng *xrand.RNG) {
	n := k.n
	blocksPerSide := n / TileSize
	bi, bj := rng.Intn(blocksPerSide), rng.Intn(blocksPerSide)
	i := bi*TileSize + rng.Intn(TileSize)
	k0 := kernels.AlignedStart(rng, n, inj.Words)
	row := r.goldenRow(i)
	// Accumulate the combined delta of all corrupted words per output in
	// the scratch tile buffer (zeroed here, not at release: only this
	// injection scope uses it).
	deltas := r.sc.tile[:]
	clear(deltas)
	for w := 0; w < inj.Words && k0+w < n; w++ {
		kk := k0 + w
		a := k.A(i, kk)
		d := inj.Flip.Apply(a, rng) - a
		if d == 0 {
			continue
		}
		for t := 0; t < TileSize; t++ {
			deltas[t] += d * k.B(kk, bj*TileSize+t)
		}
	}
	for t, d := range deltas {
		if d != 0 {
			j := bj*TileSize + t
			r.record(i, j, row[j]+d)
		}
	}
}

// injectTaskSet mis-executes whole blocks: a corrupted scheduler entry
// either never dispatches a block (its tile keeps the initialisation
// value, zero) or dispatches it with a displaced row mapping.
func (k *Kernel) injectTaskSet(r *run, inj arch.Injection, rng *xrand.RNG) {
	n := k.n
	blocksPerSide := n / TileSize
	for t := 0; t < inj.Tasks; t++ {
		bi, bj := rng.Intn(blocksPerSide), rng.Intn(blocksPerSide)
		skip := rng.Bool(0.5)
		for i := bi * TileSize; i < (bi+1)*TileSize; i++ {
			var src []float64
			if !skip {
				src = r.goldenRow((i + 1) % n) // displaced mapping
			}
			for j := bj * TileSize; j < (bj+1)*TileSize; j++ {
				if skip {
					r.record(i, j, 0)
				} else {
					r.record(i, j, src[j])
				}
			}
		}
	}
}

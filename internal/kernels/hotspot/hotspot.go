// Package hotspot implements the paper's physics-simulation benchmark:
// Rodinia's HotSpot, a 2D iterative stencil estimating processor
// temperature from a power map. It is memory-bound, balanced and regular
// (Table I), computes in single precision, and is the most occupancy-
// friendly of the tested codes.
//
// The stencil update is affine in the temperature field:
//
//	T' = T + k*(Laplacian T) + sink*(Tamb - T) + c*P
//
// so the difference field D between a faulty and a golden execution obeys
// the homogeneous part of the same recurrence. Faulty runs therefore
// evolve only D inside its (growing) bounding box — mathematically
// equivalent to a full faulty re-run up to float32 rounding, which is
// accounted for by discarding differences below one float32 ulp of the
// golden value. Error "dissipation to equilibrium" (§V-C) is emergent:
// the same coefficients that smooth heat smooth D.
package hotspot

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

// Simulation constants (diffusion-stable: 4*Diff + Sink < 1).
const (
	Diff     = 0.18 // neighbour coupling
	Sink     = 0.05 // coupling to ambient through the heat sink
	PowerC   = 0.35 // power-to-temperature coefficient
	Ambient  = 80.0 // ambient temperature
	ulp32    = 6.0e-8
	TileSide = 32 // scheduler work-unit tile

	// ValidLo and ValidHi bound the physically-plausible temperature band.
	// Production thermal solvers validate their state: a cell whose value
	// leaves the plausible range (a wildly corrupted word) is reset to
	// ambient rather than propagated. This range guard is why the paper
	// observes HotSpot mean relative errors "lower than 25% in all cases"
	// (§V-C) despite exponent-field upsets being physically possible: the
	// catastrophic flips are converted into modest ambient-reset errors
	// that then dissipate, and only in-band (mantissa-scale) corruption
	// survives as SDC.
	ValidLo = 70.0
	ValidHi = 115.0
)

// Kernel is a HotSpot instance: side x side cells, iters time steps.
type Kernel struct {
	side  int
	iters int
	seed  uint64

	power     []float32
	golden    [][]float32 // snapshots every snapEvery iterations, plus final
	snapEvery int
	final     []float32

	handleOnce sync.Once
	handle     *goldenTimeline
}

// goldenTimeline is HotSpot's golden-state handle: the snapshot timeline
// computed once at construction plus a bounded memo of fully reconstructed
// per-iteration states, so strikes landing on the same iteration stop
// re-stepping from the nearest snapshot. Memoised slices are read-only.
// It also owns the pool of per-strike evolve scratch, shared by every
// worker of a campaign session.
type goldenTimeline struct {
	k      *Kernel
	states kernels.TimelineMemo[[]float32]
	scr    *scratch.Pool[*evolveScratch]
}

// evolveScratch is one borrowable strike working set. Pool invariant:
// diff is all-zero on Get (RunInjectedPooled re-zeroes only the strike's
// final bounding box before Put); next and seeds may hold stale data —
// next is always written before read and seeds is truncated on borrow.
type evolveScratch struct {
	diff, next []float64
	seeds      []diffSeed
}

// stateAt returns the golden temperature field at iteration it. The
// returned slice is shared and must not be mutated.
func (g *goldenTimeline) stateAt(it int) []float32 {
	return g.states.At(it, g.k.stateAt)
}

// Golden implements kernels.Kernel. The handle is device-independent:
// HotSpot's golden timeline depends only on the input configuration.
func (k *Kernel) Golden(dev arch.Device) kernels.GoldenState {
	k.handleOnce.Do(func() {
		n := k.side * k.side
		k.handle = &goldenTimeline{
			k: k,
			scr: scratch.NewNamedPool("hotspot.evolve", func() *evolveScratch {
				return &evolveScratch{diff: make([]float64, n), next: make([]float64, n)}
			}),
		}
	})
	return k.handle
}

var _ kernels.Kernel = (*Kernel)(nil)

// Check reports whether (side, iters) is a valid HotSpot configuration
// without running the golden simulation: the non-panicking face of New's
// precondition, used by plan validation.
func Check(side, iters int) error {
	if side < 8 || iters < 2 {
		return fmt.Errorf("hotspot: invalid config side=%d iters=%d", side, iters)
	}
	return nil
}

// New returns a HotSpot kernel. The paper's configuration is 1024x1024
// cells; iters controls simulated time steps.
func New(side, iters int) *Kernel {
	if err := Check(side, iters); err != nil {
		panic(err.Error())
	}
	k := &Kernel{side: side, iters: iters, seed: 0x407 + uint64(side)}
	k.initPower()
	k.computeGolden()
	return k
}

// Name implements kernels.Kernel.
func (k *Kernel) Name() string { return "HotSpot" }

// Domain implements kernels.Kernel (Table II).
func (k *Kernel) Domain() string { return "Physics simulation" }

// InputLabel implements kernels.Kernel.
func (k *Kernel) InputLabel() string { return fmt.Sprintf("%dx%d", k.side, k.side) }

// Class implements kernels.Kernel (Table I).
func (k *Kernel) Class() kernels.Class {
	return kernels.Class{BoundBy: "Memory", LoadBalance: "Balanced", MemoryAccess: "Regular"}
}

// initPower builds a deterministic architectural floor plan: rectangular
// functional-unit hot blocks over a low baseline.
func (k *Kernel) initPower() {
	s := k.side
	k.power = make([]float32, s*s)
	rng := xrand.New(k.seed)
	for b := 0; b < 12; b++ {
		x0, y0 := rng.Intn(s), rng.Intn(s)
		w, h := s/16+rng.Intn(s/8), s/16+rng.Intn(s/8)
		heat := float32(0.5 + 1.5*rng.Float64())
		for y := y0; y < y0+h && y < s; y++ {
			for x := x0; x < x0+w && x < s; x++ {
				k.power[y*s+x] += heat
			}
		}
	}
}

// step advances the temperature field by one iteration into dst.
func (k *Kernel) step(dst, src []float32) {
	s := k.side
	for y := 0; y < s; y++ {
		for x := 0; x < s; x++ {
			i := y*s + x
			c := src[i]
			n := neighbor(src, s, x, y-1, c)
			so := neighbor(src, s, x, y+1, c)
			w := neighbor(src, s, x-1, y, c)
			e := neighbor(src, s, x+1, y, c)
			dst[i] = c + Diff*((n+so+e+w)-4*c) + Sink*(Ambient-c) + PowerC*k.power[i]
		}
	}
}

// neighbor reads (x,y) with Neumann (insulated) boundaries.
func neighbor(t []float32, s, x, y int, self float32) float32 {
	if x < 0 || x >= s || y < 0 || y >= s {
		return self
	}
	return t[y*s+x]
}

// computeGolden runs the fault-free simulation once, storing periodic
// snapshots so faulty runs can reconstruct the state at any iteration.
func (k *Kernel) computeGolden() {
	s := k.side
	k.snapEvery = 32
	cur := make([]float32, s*s)
	for i := range cur {
		cur[i] = Ambient
	}
	next := make([]float32, s*s)
	snap := make([]float32, s*s)
	copy(snap, cur)
	k.golden = append(k.golden, snap)
	for it := 0; it < k.iters; it++ {
		k.step(next, cur)
		cur, next = next, cur
		if (it+1)%k.snapEvery == 0 {
			sn := make([]float32, s*s)
			copy(sn, cur)
			k.golden = append(k.golden, sn)
		}
	}
	k.final = make([]float32, s*s)
	copy(k.final, cur)
}

// stateAt reconstructs the golden temperature field at iteration it.
func (k *Kernel) stateAt(it int) []float32 {
	if it >= k.iters {
		out := make([]float32, len(k.final))
		copy(out, k.final)
		return out
	}
	si := it / k.snapEvery
	if si >= len(k.golden) {
		si = len(k.golden) - 1
	}
	cur := make([]float32, len(k.golden[si]))
	copy(cur, k.golden[si])
	next := make([]float32, len(cur))
	for t := si * k.snapEvery; t < it; t++ {
		k.step(next, cur)
		cur, next = next, cur
	}
	return cur
}

// GoldenFinal returns the golden output as a float64 grid.
func (k *Kernel) GoldenFinal() *grid.Grid {
	g := grid.New2D(k.side, k.side)
	for i, v := range k.final {
		g.Data()[i] = float64(v)
	}
	return g
}

// Profile implements kernels.Kernel. HotSpot's small footprint, register-
// and-local-memory-only iterations and single precision give it the
// highest occupancy of the tested codes (§IV-B).
func (k *Kernel) Profile(dev arch.Device) arch.Profile {
	cells := k.side * k.side
	p := arch.Profile{
		Kernel:           "HotSpot",
		InputLabel:       k.InputLabel(),
		OutputDims:       grid.Dims{X: k.side, Y: k.side, Z: 1},
		Threads:          cells,
		Blocks:           (k.side / TileSide) * (k.side / TileSide),
		CacheFootprintKB: 2 * float64(cells) * 4 / 1024, // temps + power, float32
		ControlShare:     0.02,
		MemoryBound:      true,
		Irregular:        false,
		// One kernel launch per time step: scheduler upsets are mostly
		// absorbed by the next launch, and dispatch is amortised.
		DispatchFactor:    0.1,
		IterativeLaunches: true,
		RelRuntime:        float64(cells) * float64(k.iters) / (1024 * 1024 * 400),
	}
	m := dev.Model()
	if m.SharedMemKBPerCore > 0 {
		p.LocalMemPerBlockKB = 4.5 // tile + halo in shared memory
	}
	if m.VectorWidthBits > 0 {
		p.VectorShare = 0.70
		p.FPUShare = 0.30
	} else {
		p.FPUShare = 0.60
	}
	return p
}

// diffSeed is one corrupted cell at the injection iteration.
type diffSeed struct {
	x, y int
	d    float64
}

// RunInjectedPooled implements kernels.Kernel: the evolve grids and seed
// list are borrowed from the handle's scratch pool, and only the strike's
// final diff bounding box is scanned for the report and re-zeroed before
// release, so a strike's cost tracks the perturbed region, not the domain.
func (k *Kernel) RunInjectedPooled(gs kernels.GoldenState, inj arch.Injection, rng *xrand.RNG, reports *metrics.ReportPool) *metrics.Report {
	g := gs.(*goldenTimeline)
	t0 := k.injectionStep(inj)
	sc := g.scr.Get()
	rep := k.runInjectedWith(g, sc, g.stateAt(t0), t0, inj, rng, reports)
	g.scr.Put(sc)
	return rep
}

// RunInjectedBatch implements kernels.Kernel: the whole batch shares
// one borrowed evolve scratch, and the strike-time golden state lookup is
// hoisted across consecutive strikes landing on the same timestep — the
// memoised reconstruction behind stateAt is shared either way, but the
// hoist also skips the per-strike memo probe.
func (k *Kernel) RunInjectedBatch(gs kernels.GoldenState, batch []kernels.BatchStrike, reports *metrics.ReportPool) {
	g := gs.(*goldenTimeline)
	sc := g.scr.Get()
	lastT0 := -1
	var state []float32
	for i := range batch {
		t0 := k.injectionStep(batch[i].Inj)
		if t0 != lastT0 {
			state = g.stateAt(t0)
			lastT0 = t0
		}
		batch[i].Report = k.runInjectedWith(g, sc, state, t0, batch[i].Inj, batch[i].RNG, reports)
	}
	g.scr.Put(sc)
}

// injectionStep maps an injection's progress fraction to its iteration.
func (k *Kernel) injectionStep(inj arch.Injection) int {
	t0 := int(inj.When * float64(k.iters))
	if t0 >= k.iters {
		t0 = k.iters - 1
	}
	return t0
}

// runInjectedWith executes one injection against externally owned scratch
// and a pre-resolved strike-time golden state (state == stateAt(t0)).
func (k *Kernel) runInjectedWith(g *goldenTimeline, sc *evolveScratch, state []float32, t0 int, inj arch.Injection, rng *xrand.RNG, reports *metrics.ReportPool) *metrics.Report {
	seeds, start := k.buildSeeds(g, state, inj, rng, t0, sc.seeds[:0])
	sc.seeds = seeds // keep grown capacity pooled
	bx := k.evolveDiff(sc, seeds, start)
	rep := k.reportFromDiff(reports, sc.diff, bx)
	scratch.ZeroBox(sc.diff, k.side, bx.minX, bx.minY, bx.maxX, bx.maxY)
	return rep
}

// buildSeeds translates the injection into initial difference-field seeds
// and the iteration at which they enter the field, appending onto the
// caller's (possibly recycled) seed slice. state is read-only.
func (k *Kernel) buildSeeds(g *goldenTimeline, state []float32, inj arch.Injection, rng *xrand.RNG, t0 int, seeds []diffSeed) ([]diffSeed, int) {
	s := k.side
	cells := s * s
	addFlip := func(idx int) {
		v := state[idx]
		f := inj.Flip.Apply32(v, rng)
		// Range guard: out-of-band values are reset to ambient by the
		// solver's state validation (see ValidLo/ValidHi).
		if math.IsNaN(float64(f)) || math.IsInf(float64(f), 0) || f < ValidLo || f > ValidHi {
			f = Ambient
		}
		if f != v {
			seeds = append(seeds, diffSeed{x: idx % s, y: idx / s, d: float64(f) - float64(v)})
		}
	}

	switch inj.Scope {
	case arch.ScopeAccumTerm, arch.ScopeInputWord, arch.ScopeOutputWord:
		addFlip(rng.Intn(cells))

	case arch.ScopeVectorLanes:
		w32 := kernels.Words32(inj.Words)
		start := rng.Intn(cells)
		for w := 0; w < w32 && start+w < cells; w++ {
			addFlip(start + w)
		}

	case arch.ScopeCacheLine, arch.ScopeSharedTile:
		w32 := kernels.Words32(inj.Words)
		for line := 0; line < inj.Lines; line++ {
			slots := cells / w32
			if slots < 1 {
				slots = 1
			}
			start := rng.Intn(slots) * w32
			for w := 0; w < w32 && start+w < cells; w++ {
				addFlip(start + w)
			}
		}

	case arch.ScopeTaskSet:
		// A mis-scheduled tile misses `stall` update steps: its cells keep
		// stale values, a deficit (state@t0 - state@t0+stall) that enters
		// the field at t0+stall and then diffuses.
		stall := 1 + rng.Intn(3)
		start := min(t0+stall, k.iters)
		future := g.stateAt(start)
		tilesPerSide := k.side / TileSide
		for t := 0; t < inj.Tasks; t++ {
			tx, ty := rng.Intn(tilesPerSide), rng.Intn(tilesPerSide)
			for y := ty * TileSide; y < (ty+1)*TileSide; y++ {
				for x := tx * TileSide; x < (tx+1)*TileSide; x++ {
					i := y*s + x
					d := float64(state[i]) - float64(future[i])
					if d != 0 {
						seeds = append(seeds, diffSeed{x: x, y: y, d: d})
					}
				}
			}
		}
		return seeds, start
	}
	return seeds, t0
}

// diffBox is the closed bounding box of the active difference field;
// empty (maxX < minX) when the field is identically zero.
type diffBox struct {
	minX, minY, maxX, maxY int
}

func emptyBox() diffBox { return diffBox{minX: 1, maxX: 0} }

// evolveDiff advances the difference field from iteration t0 to the end
// inside an adaptive bounding box: the box grows by the stencil radius
// each step and shrinks again when edge rows or columns decay to exactly
// zero, so long-horizon strikes stop paying for a box that only ever
// grew. The restriction is bit-exact: cells outside the box are exactly
// zero, and the homogeneous recurrence maps an all-zero neighbourhood to
// exactly zero, so skipping those cells computes the same field a
// full-grid evolution would. Returns the final bounding box; sc.diff
// holds the field.
func (k *Kernel) evolveDiff(sc *evolveScratch, seeds []diffSeed, t0 int) diffBox {
	s := k.side
	diff, next := sc.diff, sc.next
	if len(seeds) == 0 {
		return emptyBox()
	}
	minX, minY, maxX, maxY := s, s, -1, -1
	for _, sd := range seeds {
		diff[sd.y*s+sd.x] += sd.d
		minX, minY = min(minX, sd.x), min(minY, sd.y)
		maxX, maxY = max(maxX, sd.x), max(maxY, sd.y)
	}
	for it := t0; it < k.iters; it++ {
		// Expand the active box by the stencil radius.
		minX, minY = max(0, minX-1), max(0, minY-1)
		maxX, maxY = min(s-1, maxX+1), min(s-1, maxY+1)
		for y := minY; y <= maxY; y++ {
			// Interior rows take a bounds-free fast path; grid-edge rows
			// and columns fall back to the checked neighbour reads. Both
			// evaluate the identical float expression in identical order.
			if y == 0 || y == s-1 {
				for x := minX; x <= maxX; x++ {
					k.evolveCell(diff, next, x, y)
				}
				continue
			}
			x := minX
			if x == 0 {
				k.evolveCell(diff, next, 0, y)
				x = 1
			}
			xHi := maxX
			if xHi == s-1 {
				xHi = s - 2
			}
			row := y * s
			for ; x <= xHi; x++ {
				i := row + x
				d := diff[i]
				next[i] = d + Diff*((diff[i-s]+diff[i+s]+diff[i+1]+diff[i-1])-4*d) - Sink*d
			}
			if maxX == s-1 {
				k.evolveCell(diff, next, s-1, y)
			}
		}
		for y := minY; y <= maxY; y++ {
			copy(diff[y*s+minX:y*s+maxX+1], next[y*s+minX:y*s+maxX+1])
		}
		// Shrink edges that decayed to exactly zero; an empty box means
		// the field fully dissipated and further iterations are identity.
		for minY <= maxY && rowZero(diff, s, minY, minX, maxX) {
			minY++
		}
		for minY <= maxY && rowZero(diff, s, maxY, minX, maxX) {
			maxY--
		}
		if minY > maxY {
			return emptyBox()
		}
		for minX <= maxX && colZero(diff, s, minX, minY, maxY) {
			minX++
		}
		for minX <= maxX && colZero(diff, s, maxX, minY, maxY) {
			maxX--
		}
	}
	return diffBox{minX: minX, minY: minY, maxX: maxX, maxY: maxY}
}

// evolveCell is the checked-stencil update of one cell: the slow path for
// grid-edge cells, bitwise identical to the interior fast path.
func (k *Kernel) evolveCell(diff, next []float64, x, y int) {
	s := k.side
	i := y*s + x
	d := diff[i]
	n := dneighbor(diff, s, x, y-1, d)
	so := dneighbor(diff, s, x, y+1, d)
	w := dneighbor(diff, s, x-1, y, d)
	e := dneighbor(diff, s, x+1, y, d)
	next[i] = d + Diff*((n+so+e+w)-4*d) - Sink*d
}

func rowZero(d []float64, s, y, x0, x1 int) bool {
	for _, v := range d[y*s+x0 : y*s+x1+1] {
		if v != 0 {
			return false
		}
	}
	return true
}

func colZero(d []float64, s, x, y0, y1 int) bool {
	for y := y0; y <= y1; y++ {
		if d[y*s+x] != 0 {
			return false
		}
	}
	return true
}

func dneighbor(d []float64, s, x, y int, self float64) float64 {
	if x < 0 || x >= s || y < 0 || y >= s {
		return self
	}
	return d[y*s+x]
}

// reportFromDiff converts the final difference field into a mismatch
// report, discarding sub-ulp differences that float32 arithmetic would
// have rounded away. Only the final bounding box is scanned — every cell
// outside it is exactly zero — in the same row-major order a full-grid
// scan would visit, so the report is unchanged by the restriction.
func (k *Kernel) reportFromDiff(pool *metrics.ReportPool, diff []float64, bx diffBox) *metrics.Report {
	s := k.side
	rep := pool.Get(grid.Dims{X: s, Y: s, Z: 1}, s*s)
	for y := bx.minY; y <= bx.maxY; y++ {
		for x := bx.minX; x <= bx.maxX; x++ {
			i := y*s + x
			d := diff[i]
			if d == 0 {
				continue
			}
			g := float64(k.final[i])
			if math.Abs(d) < math.Abs(g)*ulp32 {
				continue
			}
			read := g + d
			rep.Mismatches = append(rep.Mismatches, metrics.Mismatch{
				Coord:     grid.Coord{X: x, Y: y},
				Read:      read,
				Expected:  g,
				RelErrPct: metrics.RelativeErrorPct(read, g),
			})
		}
	}
	return rep
}

// RunDense runs an injection and materialises golden and faulty outputs
// as dense grids (for examples and detectors).
func (k *Kernel) RunDense(dev arch.Device, inj arch.Injection, rng *xrand.RNG) (golden, faulty *grid.Grid) {
	golden = k.GoldenFinal()
	faulty = golden.Clone()
	rep := k.RunInjectedPooled(k.Golden(dev), inj, rng, nil)
	for _, m := range rep.Mismatches {
		faulty.Set(m.Coord, m.Read)
	}
	return golden, faulty
}

// Entropy returns a spatial-disorder measure of a temperature field: the
// Shannon entropy of the binned temperature distribution. §V-C suggests
// monitoring system entropy to detect widespread stencil errors.
func Entropy(g *grid.Grid, bins int) float64 {
	if bins < 2 {
		bins = 16
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range g.Data() {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if !(hi > lo) {
		return 0
	}
	counts := make([]int, bins)
	for _, v := range g.Data() {
		b := int(float64(bins) * (v - lo) / (hi - lo))
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
	n := float64(g.Len())
	var h float64
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		h -= p * math.Log2(p)
	}
	return h
}

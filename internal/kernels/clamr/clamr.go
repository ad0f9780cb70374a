// Package clamr implements a from-scratch substitute for CLAMR, the LANL
// fluid-dynamics mini-app used in the paper: a shallow-water solver
// (conservation of mass, x momentum and y momentum; flat bottom; no
// vertical flow) running the standard circular dam-break problem with a
// cell-based adaptive mesh refinement (AMR) layer.
//
// The real CLAMR is a proprietary LANL workload. The substitution keeps
// every property the paper's analysis relies on:
//
//   - a conservative scheme (Lax-Friedrichs) over (h, hu, hv), so a
//     radiation-corrupted cell violates the mass invariant and the error
//     propagates "as a wave ... increasing the number of incorrect
//     elements as the execution continues" (§V-D, Fig. 9) — emergent from
//     the real solver, not scripted;
//   - a refinement map recomputed from the water-height gradient, driving
//     load imbalance, an irregular access pattern, and the thread-count
//     changes between time steps that stress control resources (Table I:
//     CPU-bound, imbalanced, irregular);
//   - the mass-conservation check of [4]/[19]: total water volume is
//     tracked every step, so a detector can compare it against the
//     golden invariant (the paper reports 82% fault coverage).
package clamr

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

// Physics and scheme constants.
const (
	Gravity  = 9.8
	DT       = 0.02 // CFL-safe for wave speeds up to ~sqrt(g*10)
	DX       = 1.0
	HInside  = 10.0 // dam water column height
	HOutside = 2.0  // ambient water height
	// RefineThreshold is the |grad h| above which a cell is refined.
	RefineThreshold = 0.05
	// RefineInterval is the step period of refinement-map recomputation.
	RefineInterval = 10
	// TileSide is the scheduler work-unit tile.
	TileSide = 16
	// MassCheckCellFraction is the mass-check threshold expressed as a
	// fraction of one average cell's water volume: the detector fires when
	// total volume drifts by more than 1% of a single cell. This separates
	// real corruption (at least a sizeable fraction of one cell) from the
	// solver's floating-point non-conservation (orders of magnitude
	// smaller), independent of mesh size.
	MassCheckCellFraction = 0.01

	// UMax is the CFL velocity guard: solvers bound |u| to keep the time
	// step stable, so a momentum word corrupted to an absurd magnitude is
	// clamped to UMax*h instead of blowing up the scheme. The clamp keeps
	// such runs mass-conserving — they corrupt the wave field (a critical
	// SDC) without tripping the mass check, which is exactly the detector
	// escape that holds the paper's coverage at ~82% instead of 100%.
	UMax = 40.0
)

// state is the conserved-variable triple on the uniform fine mesh.
type state struct {
	h, hu, hv []float64
}

func newState(n int) *state {
	return &state{h: make([]float64, n), hu: make([]float64, n), hv: make([]float64, n)}
}

func (s *state) copyFrom(o *state) {
	copy(s.h, o.h)
	copy(s.hu, o.hu)
	copy(s.hv, o.hv)
}

// Kernel is a CLAMR instance: side x side cells, steps time steps.
type Kernel struct {
	side  int
	steps int
	seed  uint64

	snapEvery  int
	snaps      []*state
	finalH     []float64
	m0         float64 // golden total water volume
	refineFrac float64 // mean refined-cell fraction over the golden run

	handleOnce sync.Once
	handle     *goldenTimeline
}

// goldenTimeline is CLAMR's golden-state handle: the snapshot timeline
// computed once at construction plus a bounded memo of fully reconstructed
// per-step states, so strikes landing on the same timestep stop re-stepping
// from the nearest snapshot. Memoised states are canonical and read-only;
// irradiated runs copy them into working buffers borrowed from the
// handle's scratch pool before corrupting them.
type goldenTimeline struct {
	k      *Kernel
	states kernels.TimelineMemo[*state]
	scr    *scratch.Pool[*injectScratch]
}

// injectScratch is one borrowable irradiated-run working set. cur is
// fully overwritten by the golden-state copy, next is fully written by
// every step, and the flux rows are filled before every read, so none of
// them needs a cleanliness invariant; frozen (allocated lazily by the
// first task-set strike) must be all-false on Put.
type injectScratch struct {
	cur, next *state
	fr        *fluxRows
	frozen    []bool
}

// fluxRows bank the south fluxes of one step's row sweep so each cell
// computes one fluxY instead of two. Output row y consumes fluxY of rows
// y-1 (north) and y+1 (south); the south fluxes computed at row y are
// exactly the north fluxes row y+2 will need, and rows two apart share
// parity, so two buffers suffice — each read (as north) and overwritten
// (with the fresh south) in the same ascending x sweep. The banked values
// are bitwise the ones the inline computation produced, so the stencil's
// results are unchanged.
type fluxRows struct {
	buf [2][3][]float64 // [row parity][component][x]
}

func newFluxRows(s int) *fluxRows {
	fr := &fluxRows{}
	for p := 0; p < 2; p++ {
		for c := 0; c < 3; c++ {
			fr.buf[p][c] = make([]float64, s)
		}
	}
	return fr
}

// prime loads the bank with fluxY of source rows 0 and 1 — the north
// fluxes of the first two interior output rows.
func (fr *fluxRows) prime(k *Kernel, src *state) {
	s := k.side
	for r := 0; r < 2; r++ {
		row := r * s
		h, hu, hv := src.h[row:row+s], src.hu[row:row+s], src.hv[row:row+s]
		g0, g1, g2 := fr.buf[r][0], fr.buf[r][1], fr.buf[r][2]
		for x := 1; x < s-1; x++ {
			g0[x], g1[x], g2[x] = fluxY(h[x], hu[x], hv[x])
		}
	}
}

// stateAt returns the canonical golden state at step t. The returned state
// is shared and must not be mutated.
func (g *goldenTimeline) stateAt(t int) *state {
	return g.states.At(t, g.k.stateAt)
}

// Golden implements kernels.Kernel. The handle is device-independent:
// CLAMR's golden timeline depends only on the input configuration.
func (k *Kernel) Golden(dev arch.Device) kernels.GoldenState {
	k.handleOnce.Do(func() {
		n := k.side * k.side
		k.handle = &goldenTimeline{
			k: k,
			scr: scratch.NewNamedPool("clamr.inject", func() *injectScratch {
				return &injectScratch{cur: newState(n), next: newState(n), fr: newFluxRows(k.side)}
			}),
		}
	})
	return k.handle
}

var _ kernels.Kernel = (*Kernel)(nil)

// Check reports whether (side, steps) is a valid CLAMR configuration
// without running the golden simulation: the non-panicking face of New's
// precondition, used by plan validation.
func Check(side, steps int) error {
	if side < 16 || steps < RefineInterval {
		return fmt.Errorf("clamr: invalid config side=%d steps=%d", side, steps)
	}
	return nil
}

// New returns a CLAMR kernel. The paper's standard problem starts from a
// 512x512 mesh and runs 5,000 timesteps; smaller configurations preserve
// the same wave physics for testing.
func New(side, steps int) *Kernel {
	if err := Check(side, steps); err != nil {
		panic(err.Error())
	}
	k := &Kernel{side: side, steps: steps, seed: 0xC1A + uint64(side), snapEvery: 32}
	k.computeGolden()
	return k
}

// Name implements kernels.Kernel.
func (k *Kernel) Name() string { return "CLAMR" }

// Domain implements kernels.Kernel (Table II).
func (k *Kernel) Domain() string { return "Fluid dynamics" }

// InputLabel implements kernels.Kernel.
func (k *Kernel) InputLabel() string { return fmt.Sprintf("%dx%d", k.side, k.side) }

// Class implements kernels.Kernel (Table I).
func (k *Kernel) Class() kernels.Class {
	return kernels.Class{BoundBy: "CPU", LoadBalance: "Imbalanced", MemoryAccess: "Irregular"}
}

// GoldenMass returns the conserved total water volume of the golden run.
func (k *Kernel) GoldenMass() float64 { return k.m0 }

// MassCheckThresholdRel returns the detector threshold as a relative drift
// of total volume: MassCheckCellFraction of one average cell.
func (k *Kernel) MassCheckThresholdRel() float64 {
	return MassCheckCellFraction / float64(k.side*k.side)
}

// initState builds the circular dam-break initial condition.
func (k *Kernel) initState() *state {
	s := k.side
	st := newState(s * s)
	cx, cy := float64(s)/2, float64(s)/2
	r := float64(s) / 6
	for y := 0; y < s; y++ {
		for x := 0; x < s; x++ {
			dx, dy := float64(x)-cx, float64(y)-cy
			if dx*dx+dy*dy <= r*r {
				st.h[y*s+x] = HInside
			} else {
				st.h[y*s+x] = HOutside
			}
		}
	}
	return st
}

// mirror reads conserved variables at (x,y) with reflective walls:
// height mirrored, wall-normal momentum negated.
func (k *Kernel) mirror(st *state, x, y int) (h, hu, hv float64) {
	s := k.side
	nx, ny := x, y
	fx, fy := 1.0, 1.0
	if nx < 0 {
		nx, fx = 0, -1
	}
	if nx >= s {
		nx, fx = s-1, -1
	}
	if ny < 0 {
		ny, fy = 0, -1
	}
	if ny >= s {
		ny, fy = s-1, -1
	}
	i := ny*s + nx
	return st.h[i], st.hu[i] * fx, st.hv[i] * fy
}

// fluxes of the shallow-water equations.
func fluxX(h, hu, hv float64) (f0, f1, f2 float64) {
	u := hu / h
	return hu, hu*u + 0.5*Gravity*h*h, hv * u
}

func fluxY(h, hu, hv float64) (g0, g1, g2 float64) {
	v := hv / h
	return hv, hu * v, hv*v + 0.5*Gravity*h*h
}

// step advances src into dst by one Lax-Friedrichs step and returns the
// total water volume of dst, accumulated in the same cell order a
// separate pass would use (so the mass-check signal is bit-identical to
// summing afterwards, without re-reading the grid). frozen, when non-nil,
// marks cells whose update is skipped (mis-scheduled tiles).
//
// The hot layout: interior cells run a tight loop over row sub-slices
// (direct neighbour loads, bounds checks lifted to the slice headers, no
// per-cell branch on frozen/border), while wall cells keep the
// reflective-mirror reads via stepCell. Every path evaluates the
// identical float expressions in identical order, so the optimisation is
// bitwise invisible — mirror degenerates to the identity in the interior
// (fx = fy = 1, and momenta are finite after sanitisation, so the *1
// factors are exact).
func (k *Kernel) step(dst, src *state, frozen []bool, fr *fluxRows) float64 {
	if frozen != nil {
		return k.stepFrozen(dst, src, frozen)
	}
	s := k.side
	c := DT / (2 * DX)
	var mass float64
	fr.prime(k, src)
	for y := 0; y < s; y++ {
		if y == 0 || y == s-1 {
			for x := 0; x < s; x++ {
				mass += k.stepCell(dst, src, x, y, c)
			}
			continue
		}
		row := y * s
		mass += k.stepCell(dst, src, 0, y, c)
		hC, huC, hvC := src.h[row:row+s], src.hu[row:row+s], src.hv[row:row+s]
		hN, huN, hvN := src.h[row-s:row], src.hu[row-s:row], src.hv[row-s:row]
		hS, huS, hvS := src.h[row+s:row+2*s], src.hu[row+s:row+2*s], src.hv[row+s:row+2*s]
		dh, dhu, dhv := dst.h[row:row+s], dst.hu[row:row+s], dst.hv[row:row+s]
		// North fluxes come from the parity bank; the fresh south fluxes
		// overwrite the slot just read, becoming row y+2's north.
		g0, g1, g2 := fr.buf[(y-1)&1][0], fr.buf[(y-1)&1][1], fr.buf[(y-1)&1][2]
		// fluxX slides through lag registers: the flux of cell x+1
		// computed here is the west flux of cell x+2, so each cell pays
		// for one fluxX instead of two.
		fW0, fW1, fW2 := fluxX(hC[0], huC[0], hvC[0])
		fC0, fC1, fC2 := fluxX(hC[1], huC[1], hvC[1])
		for x := 1; x < s-1; x++ {
			hE, huE, hvE := hC[x+1], huC[x+1], hvC[x+1]
			hW, huW, hvW := hC[x-1], huC[x-1], hvC[x-1]
			hNv, huNv, hvNv := hN[x], huN[x], hvN[x]
			hSv, huSv, hvSv := hS[x], huS[x], hvS[x]

			fE0, fE1, fE2 := fluxX(hE, huE, hvE)
			gN0, gN1, gN2 := g0[x], g1[x], g2[x]
			gS0, gS1, gS2 := fluxY(hSv, huSv, hvSv)
			g0[x], g1[x], g2[x] = gS0, gS1, gS2

			h := 0.25*(hE+hW+hNv+hSv) - c*(fE0-fW0) - c*(gS0-gN0)
			hu := 0.25*(huE+huW+huNv+huSv) - c*(fE1-fW1) - c*(gS1-gN1)
			hv := 0.25*(hvE+hvW+hvNv+hvSv) - c*(fE2-fW2) - c*(gS2-gN2)

			// Lean inline sanitize: the NaN/Inf branches of sanitize are
			// provably dead here — every src cell is already sanitised
			// (finite, h >= 1e-3, |hu|,|hv| <= UMax*h), and no operation
			// above can overflow or divide by zero from such inputs — so
			// only the clamps remain, with identical results.
			if h < 1e-3 {
				h = 1e-3
			} else if h > 1e9 {
				h = 1e9
			}
			lim := UMax * h
			if hu > lim {
				hu = lim
			} else if hu < -lim {
				hu = -lim
			}
			if hv > lim {
				hv = lim
			} else if hv < -lim {
				hv = -lim
			}
			dh[x], dhu[x], dhv[x] = h, hu, hv
			mass += h

			fW0, fW1, fW2 = fC0, fC1, fC2
			fC0, fC1, fC2 = fE0, fE1, fE2
		}
		mass += k.stepCell(dst, src, s-1, y, c)
	}
	return mass
}

// stepCell updates one wall cell through the reflective-mirror reads and
// returns its sanitised water height.
func (k *Kernel) stepCell(dst, src *state, x, y int, c float64) float64 {
	i := y*k.side + x
	hE, huE, hvE := k.mirror(src, x+1, y)
	hW, huW, hvW := k.mirror(src, x-1, y)
	hN, huN, hvN := k.mirror(src, x, y-1)
	hS, huS, hvS := k.mirror(src, x, y+1)

	fE0, fE1, fE2 := fluxX(hE, huE, hvE)
	fW0, fW1, fW2 := fluxX(hW, huW, hvW)
	gN0, gN1, gN2 := fluxY(hN, huN, hvN)
	gS0, gS1, gS2 := fluxY(hS, huS, hvS)

	h := 0.25*(hE+hW+hN+hS) - c*(fE0-fW0) - c*(gS0-gN0)
	hu := 0.25*(huE+huW+huN+huS) - c*(fE1-fW1) - c*(gS1-gN1)
	hv := 0.25*(hvE+hvW+hvN+hvS) - c*(fE2-fW2) - c*(gS2-gN2)

	h, hu, hv = sanitize(h, hu, hv)
	dst.h[i], dst.hu[i], dst.hv[i] = h, hu, hv
	return h
}

// stepFrozen is the general (and rare) path for task-set strikes with
// mis-scheduled tiles: the pre-optimisation per-cell loop with the frozen
// check.
func (k *Kernel) stepFrozen(dst, src *state, frozen []bool) float64 {
	s := k.side
	c := DT / (2 * DX)
	var mass float64
	for y := 0; y < s; y++ {
		for x := 0; x < s; x++ {
			i := y*s + x
			if frozen[i] {
				dst.h[i], dst.hu[i], dst.hv[i] = src.h[i], src.hu[i], src.hv[i]
				mass += dst.h[i]
				continue
			}
			mass += k.stepCell(dst, src, x, y, c)
		}
	}
	return mass
}

// sanitizeCell keeps the solver marching after radical corruption: real
// hardware would either crash (caught upstream by the outcome model) or
// keep producing finite garbage. Non-finite values are replaced by the
// ambient state and heights are clamped positive, so corruption spreads as
// data rather than as NaN wavefronts.
func sanitizeCell(st *state, i int) {
	st.h[i], st.hu[i], st.hv[i] = sanitize(st.h[i], st.hu[i], st.hv[i])
}

// sanitize is sanitizeCell on scalars, so the stencil loops can clean a
// cell's conserved triple in registers before its single store.
func sanitize(h, hu, hv float64) (float64, float64, float64) {
	if math.IsNaN(h) || math.IsInf(h, 0) {
		h = HOutside
	}
	if h < 1e-3 {
		h = 1e-3
	}
	if h > 1e9 {
		h = 1e9
	}
	// CFL velocity guard (see UMax).
	lim := UMax * h
	if math.IsNaN(hu) || math.IsInf(hu, 0) {
		hu = 0
	}
	if hu > lim {
		hu = lim
	} else if hu < -lim {
		hu = -lim
	}
	if math.IsNaN(hv) || math.IsInf(hv, 0) {
		hv = 0
	}
	if hv > lim {
		hv = lim
	} else if hv < -lim {
		hv = -lim
	}
	return h, hu, hv
}

// refineMap marks cells whose height gradient exceeds the threshold: the
// cell-based AMR criterion.
func (k *Kernel) refineMap(st *state) []bool {
	s := k.side
	m := make([]bool, s*s)
	for y := 0; y < s; y++ {
		for x := 0; x < s; x++ {
			hE, _, _ := k.mirror(st, x+1, y)
			hW, _, _ := k.mirror(st, x-1, y)
			hN, _, _ := k.mirror(st, x, y-1)
			hS, _, _ := k.mirror(st, x, y+1)
			gx := (hE - hW) / 2
			gy := (hS - hN) / 2
			m[y*s+x] = math.Sqrt(gx*gx+gy*gy) > RefineThreshold
		}
	}
	return m
}

// computeGolden runs the fault-free simulation, storing snapshots and the
// AMR statistics that feed the occupancy profile.
func (k *Kernel) computeGolden() {
	n := k.side * k.side
	cur := k.initState()
	next := newState(n)
	k.m0 = sum(cur.h)

	snap := newState(n)
	snap.copyFrom(cur)
	k.snaps = append(k.snaps, snap)

	var refinedSum float64
	samples := 0
	fr := newFluxRows(k.side)
	for t := 0; t < k.steps; t++ {
		k.step(next, cur, nil, fr)
		cur, next = next, cur
		if (t+1)%k.snapEvery == 0 {
			sn := newState(n)
			sn.copyFrom(cur)
			k.snaps = append(k.snaps, sn)
		}
		if (t+1)%RefineInterval == 0 {
			m := k.refineMap(cur)
			c := 0
			for _, r := range m {
				if r {
					c++
				}
			}
			refinedSum += float64(c) / float64(n)
			samples++
		}
	}
	if samples > 0 {
		k.refineFrac = refinedSum / float64(samples)
	}
	k.finalH = make([]float64, n)
	copy(k.finalH, cur.h)
}

// stateAt reconstructs the golden state at step t.
func (k *Kernel) stateAt(t int) *state {
	si := t / k.snapEvery
	if si >= len(k.snaps) {
		si = len(k.snaps) - 1
	}
	n := k.side * k.side
	cur := newState(n)
	cur.copyFrom(k.snaps[si])
	next := newState(n)
	fr := newFluxRows(k.side)
	for step := si * k.snapEvery; step < t; step++ {
		k.step(next, cur, nil, fr)
		cur, next = next, cur
	}
	return cur
}

// RefinedFraction returns the mean fraction of refined cells during the
// golden run (AMR statistics).
func (k *Kernel) RefinedFraction() float64 { return k.refineFrac }

// Profile implements kernels.Kernel. CLAMR is compute-bound on double
// precision, control-heavy (border tests, AMR re-balancing, one kernel
// launch per timestep) and its thread count changes between steps
// ("#cells or more", Table II).
func (k *Kernel) Profile(dev arch.Device) arch.Profile {
	cells := k.side * k.side
	amrCells := int(float64(cells) * (1 + 3*k.refineFrac)) // refined cells split 2x2
	p := arch.Profile{
		Kernel:           "CLAMR",
		InputLabel:       k.InputLabel(),
		OutputDims:       grid.Dims{X: k.side, Y: k.side, Z: 1},
		Threads:          amrCells,
		Blocks:           (k.side / TileSide) * (k.side / TileSide),
		CacheFootprintKB: 3 * float64(cells) * 8 / 1024,
		ControlShare:     0.35,
		MemoryBound:      false,
		Irregular:        true,
		// CLAMR launches kernels every timestep but also rebalances the
		// mesh between steps: dispatch pressure sits between HotSpot's
		// amortised relaunch and DGEMM's block streaming.
		DispatchFactor:    0.6,
		IterativeLaunches: true,
		RelRuntime:        float64(cells) * float64(k.steps) / (512 * 512 * 5000),
	}
	m := dev.Model()
	if m.SharedMemKBPerCore > 0 {
		p.LocalMemPerBlockKB = 3
	}
	if m.VectorWidthBits > 0 {
		p.VectorShare = 0.45
		p.FPUShare = 0.40
	} else {
		p.FPUShare = 0.70
	}
	return p
}

// Detail is the per-run detector evidence accompanying a mismatch report.
type Detail struct {
	// MaxMassDriftRel is the largest |mass(t)-M0|/M0 observed after the
	// injection: the signal of the mass-conservation check.
	MaxMassDriftRel float64
	// MassCheckFired reports whether the drift exceeded the tolerance.
	MassCheckFired bool
}

// RunInjectedPooled implements kernels.Kernel: working states come from
// the handle's scratch pool and the report from the session pool.
func (k *Kernel) RunInjectedPooled(gs kernels.GoldenState, inj arch.Injection, rng *xrand.RNG, reports *metrics.ReportPool) *metrics.Report {
	rep, _ := k.runInjectedDetailed(gs, inj, rng, reports)
	return rep
}

// stateTargetWeights biases which conserved array a storage strike hits:
// h has the longest cache residency (read by every flux computation, the
// refinement criterion, and the mass check), so it absorbs the most
// strikes; the momentum arrays split the rest. Momentum corruption
// conserves mass unless it trips the solver's positivity clamps, which is
// the detector-escape path that keeps the mass check's coverage at the
// paper's ~82% rather than 100%.
var stateTargetWeights = []float64{0.70, 0.15, 0.15}

// RunInjectedDetailed runs one irradiated execution against a prepared
// golden-state handle and also returns the detector evidence.
func (k *Kernel) RunInjectedDetailed(gs kernels.GoldenState, inj arch.Injection, rng *xrand.RNG) (*metrics.Report, Detail) {
	return k.runInjectedDetailed(gs, inj, rng, nil)
}

// runInjectedDetailed is the hot path of campaign engines: one irradiated
// execution against borrowed working state, with the report drawn from
// reports (nil degrades to plain allocation) and the mass check's verdict
// recorded in the report's Detected field.
func (k *Kernel) runInjectedDetailed(gs kernels.GoldenState, inj arch.Injection, rng *xrand.RNG, reports *metrics.ReportPool) (*metrics.Report, Detail) {
	g := gs.(*goldenTimeline)
	t0 := k.injectionStep(inj)
	sc := g.scr.Get()
	defer g.scr.Put(sc)
	n := k.side * k.side
	cur, next := sc.cur, sc.next
	cur.copyFrom(g.stateAt(t0))

	var frozen []bool
	frozenUntil := -1

	// Apply the injection to the live state.
	switch inj.Scope {
	case arch.ScopeAccumTerm, arch.ScopeInputWord, arch.ScopeOutputWord:
		k.corruptWords(cur, rng.Intn(n), 1, inj, rng)
	case arch.ScopeVectorLanes:
		k.corruptWords(cur, kernels.AlignedStart(rng, n, inj.Words), inj.Words, inj, rng)
	case arch.ScopeCacheLine, arch.ScopeSharedTile:
		for line := 0; line < inj.Lines; line++ {
			k.corruptWords(cur, kernels.AlignedStart(rng, n, inj.Words), inj.Words, inj, rng)
		}
	case arch.ScopeTaskSet:
		// Mis-refinement: tiles wrongly marked coarse are not updated
		// until the next refinement pass.
		if sc.frozen == nil {
			sc.frozen = make([]bool, n)
		}
		frozen = sc.frozen
		tilesPerSide := k.side / TileSide
		for t := 0; t < inj.Tasks; t++ {
			tx, ty := rng.Intn(tilesPerSide), rng.Intn(tilesPerSide)
			for y := ty * TileSide; y < (ty+1)*TileSide; y++ {
				for x := tx * TileSide; x < (tx+1)*TileSide; x++ {
					frozen[y*k.side+x] = true
				}
			}
		}
		frozenUntil = t0 + RefineInterval
	}

	// Continue the real simulation, tracking the mass invariant (the
	// step's write-order volume accumulation, bit-identical to summing
	// cur.h afterwards).
	var maxDrift float64
	for t := t0; t < k.steps; t++ {
		fz := frozen
		if t >= frozenUntil {
			fz = nil
		}
		mass := k.step(next, cur, fz, sc.fr)
		cur, next = next, cur
		drift := math.Abs(mass-k.m0) / k.m0
		if drift > maxDrift {
			maxDrift = drift
		}
	}

	// Compare against the golden output.
	rep := reports.Get(grid.Dims{X: k.side, Y: k.side, Z: 1}, n)
	for i, v := range cur.h {
		g := k.finalH[i]
		if v == g {
			continue
		}
		rep.Mismatches = append(rep.Mismatches, metrics.Mismatch{
			Coord:     grid.Coord{X: i % k.side, Y: i / k.side},
			Read:      v,
			Expected:  g,
			RelErrPct: metrics.RelativeErrorPct(v, g),
		})
	}
	if frozen != nil {
		clear(sc.frozen) // restore the pool's all-false invariant
	}
	det := Detail{
		MaxMassDriftRel: maxDrift,
		MassCheckFired:  maxDrift > k.MassCheckThresholdRel(),
	}
	rep.Detected = det.MassCheckFired
	return rep, det
}

// injectionStep maps an injection's progress fraction to its timestep.
func (k *Kernel) injectionStep(inj arch.Injection) int {
	t0 := int(inj.When * float64(k.steps))
	if t0 >= k.steps {
		t0 = k.steps - 1
	}
	return t0
}

// corruptWords flips words..words+count of a conserved array chosen by
// residency weight, starting at cell index start.
func (k *Kernel) corruptWords(st *state, start, count int, inj arch.Injection, rng *xrand.RNG) {
	arrs := [][]float64{st.h, st.hu, st.hv}
	arr := arrs[rng.WeightedChoice(stateTargetWeights)]
	for w := 0; w < count && start+w < len(arr); w++ {
		arr[start+w] = inj.Flip.Apply(arr[start+w], rng)
	}
	// Immediate sanitation mirrors what the next step would do anyway but
	// keeps the mass accounting finite.
	for w := 0; w < count && start+w < len(arr); w++ {
		sanitizeCell(st, start+w)
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Package lavamd implements the paper's particle-interaction benchmark:
// an N-Body style solver (Rodinia's LavaMD) computing particle potentials
// from mutual forces within a large 3D space divided into boxes. It is
// memory-bound, load-imbalanced (border boxes have fewer neighbours) and
// has a regular access pattern (Table I).
//
// Each particle's potential accumulates q_j * exp(-alpha * r^2) over all
// particles in the 27-box neighbourhood (home box + 26 cut-off
// neighbours). The exponential is the criticality lever the paper
// highlights: "exponentiation operations can turn small value variations
// into large differences" (§V-E), which is why transcendental-unit strikes
// on the K40 produce enormous relative errors. Faulty runs use exact delta
// propagation over the affected neighbourhoods, reading particle state and
// golden potentials from per-handle golden-sum tables (DESIGN.md §13): a
// locality-friendly SoA layout with flattened neighbour lists, built
// lazily per box in the exact naive summation order so every table value
// is bit-identical to an on-demand recomputation.
package lavamd

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"radcrit/internal/arch"
	"radcrit/internal/grid"
	"radcrit/internal/kernels"
	"radcrit/internal/metrics"
	"radcrit/internal/scratch"
	"radcrit/internal/xrand"
)

// Alpha is the exponential decay constant of the interaction kernel.
const Alpha = 0.5

// ParticleWords is the per-particle state footprint in 64-bit words
// (x, y, z, charge).
const ParticleWords = 4

// Kernel is a LavaMD instance: a g x g x g grid of boxes.
type Kernel struct {
	g    int
	seed uint64
	// handles memoises golden-state handles per particles-per-box count
	// (the only device-dependent parameter of LavaMD's golden state).
	handles sync.Map // int -> *goldenHandle
}

// goldenHandle is LavaMD's golden-state handle: the device's particle
// count per box, the golden-sum tables shared by every strike, and the
// pool of per-strike scratch shared by a campaign session's workers.
type goldenHandle struct {
	k   *Kernel
	p   int
	tab *goldenTab
	scr *scratch.Pool[*runScratch]
}

// goldenTab holds the per-(kernel, particles-per-box) golden-sum tables:
// flattened cut-off neighbour lists (CSR layout, replacing the neighbors()
// callback walk) plus per-box particle state and golden potentials in SoA
// layout. Neighbour lists are built eagerly (cheap); state and potential
// arrays fill lazily per box, because a campaign's strikes touch a biased
// subset of boxes and an eager build of a paper-scale grid would cost
// seconds per handle.
type goldenTab struct {
	k     *Kernel
	p     int
	total int
	// nbrOff/nbrBoxes are the CSR neighbour lists: box bi's cut-off
	// neighbourhood (itself included) is nbrBoxes[nbrOff[bi]:nbrOff[bi+1]],
	// in exactly appendNeighbors order.
	nbrOff   []int32
	nbrBoxes []int32
	boxes    []boxTab
}

// boxTab is one box's lazily built table slots. Racing builders compute
// bit-identical values (pure functions of the kernel), so publication is a
// plain CompareAndSwap: either winner is correct, and readers never see a
// partial build. Atomic pointers keep the hot-path read allocation-free
// (a sync.Once closure would allocate per lookup).
type boxTab struct {
	st  atomic.Pointer[boxState]
	pot atomic.Pointer[[]float64]
}

// boxState is one box's particle state in SoA layout: component arrays
// indexed by particle, so consumer loops stream x/y/z/q sequentially
// instead of re-deriving four hash values per particle.
type boxState struct {
	x, y, z, q []float64
}

// runScratch is one borrowable strike working set: the epoch-stamped
// faulty-potential map (cleared in O(1) between strikes) plus the small
// corrupted-word buffer the cache-line path used to allocate fresh.
type runScratch struct {
	faulty scratch.IndexMap[float64]
	cs     []corruptedParticle
}

// nb is one box of a cut-off neighbourhood.
type nb struct{ x, y, z int }

// corruptedParticle identifies one corrupted particle-state word.
type corruptedParticle struct {
	bx, by, bz, idx int
	comp            int
}

// Golden implements kernels.Kernel.
func (k *Kernel) Golden(dev arch.Device) kernels.GoldenState {
	return k.handleFor(k.ParticlesPerBox(dev))
}

// handleFor memoises the golden handle per particles-per-box count.
// Racing creators build duplicate (empty) tables; LoadOrStore keeps one.
func (k *Kernel) handleFor(p int) *goldenHandle {
	if v, ok := k.handles.Load(p); ok {
		return v.(*goldenHandle)
	}
	h := &goldenHandle{k: k, p: p, tab: k.newGoldenTab(p),
		scr: scratch.NewNamedPool("lavamd.run", func() *runScratch { return &runScratch{} })}
	v, _ := k.handles.LoadOrStore(p, h)
	return v.(*goldenHandle)
}

var _ kernels.Kernel = (*Kernel)(nil)

// Check reports whether g is a valid box-grid size without building
// anything: the non-panicking face of New's precondition, used by plan
// validation.
func Check(g int) error {
	if g < 2 {
		return fmt.Errorf("lavamd: grid size %d too small", g)
	}
	return nil
}

// New returns a LavaMD kernel with g boxes per dimension (the paper uses
// 13, 15, 19 and 23).
func New(g int) *Kernel {
	if err := Check(g); err != nil {
		panic(err.Error())
	}
	return &Kernel{g: g, seed: 0x1A7A + uint64(g)}
}

// Name implements kernels.Kernel.
func (k *Kernel) Name() string { return "LavaMD" }

// Domain implements kernels.Kernel (Table II).
func (k *Kernel) Domain() string { return "Molecular dynamics" }

// InputLabel implements kernels.Kernel.
func (k *Kernel) InputLabel() string { return fmt.Sprintf("grid %d", k.g) }

// Class implements kernels.Kernel (Table I).
func (k *Kernel) Class() kernels.Class {
	return kernels.Class{BoundBy: "Memory", LoadBalance: "Imbalanced", MemoryAccess: "Regular"}
}

// ParticlesPerBox returns the per-box particle count, selected "to best
// fit the hardware" (Table II): 192 on the K40's wide SMs, 100 on the
// Phi's 4-thread cores. The device's SIMD width is the discriminator.
func (k *Kernel) ParticlesPerBox(dev arch.Device) int {
	if dev.Model().VectorWidthBits > 0 {
		return 100
	}
	return 192
}

// particle returns the deterministic state of global particle gidx in box
// (bx,by,bz): global position and charge.
func (k *Kernel) particle(bx, by, bz, idx int) (x, y, z, q float64) {
	gidx := ((bz*k.g+by)*k.g+bx)*4096 + idx
	x = float64(bx) + kernels.ValueAt(k.seed, gidx, 0, 0, 1)
	y = float64(by) + kernels.ValueAt(k.seed, gidx, 1, 0, 1)
	z = float64(bz) + kernels.ValueAt(k.seed, gidx, 2, 0, 1)
	q = kernels.ValueAt(k.seed, gidx, 3, 0.5, 1.5)
	return
}

// interaction returns one pairwise term q_j * exp(-Alpha * r^2).
func interaction(xi, yi, zi, xj, yj, zj, qj float64) float64 {
	dx, dy, dz := xi-xj, yi-yj, zi-zj
	r2 := dx*dx + dy*dy + dz*dz
	return qj * math.Exp(-Alpha*r2)
}

// boxIndex linearises box coordinates; it also defines processing order.
func (k *Kernel) boxIndex(bx, by, bz int) int { return (bz*k.g+by)*k.g + bx }

// appendNeighbors collects the cut-off neighbourhood of (bx,by,bz) into
// buf[:0] — the enumeration order every neighbour consumer (including the
// flattened nbrBoxes lists) derives from.
func (k *Kernel) appendNeighbors(buf []nb, bx, by, bz int) []nb {
	buf = buf[:0]
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				nx, ny, nz := bx+dx, by+dy, bz+dz
				if nx < 0 || nx >= k.g || ny < 0 || ny >= k.g || nz < 0 || nz >= k.g {
					continue
				}
				buf = append(buf, nb{nx, ny, nz})
			}
		}
	}
	return buf
}

// newGoldenTab builds the CSR neighbour lists and empty per-box slots.
func (k *Kernel) newGoldenTab(p int) *goldenTab {
	total := k.g * k.g * k.g
	t := &goldenTab{
		k:      k,
		p:      p,
		total:  total,
		nbrOff: make([]int32, total+1),
		boxes:  make([]boxTab, total),
	}
	t.nbrBoxes = make([]int32, 0, total*27)
	var buf [27]nb
	for bi := 0; bi < total; bi++ {
		bx, by, bz := k.boxCoords(bi)
		for _, b := range k.appendNeighbors(buf[:0], bx, by, bz) {
			t.nbrBoxes = append(t.nbrBoxes, int32(k.boxIndex(b.x, b.y, b.z)))
		}
		t.nbrOff[bi+1] = int32(len(t.nbrBoxes))
	}
	return t
}

// boxCoords inverts boxIndex.
func (k *Kernel) boxCoords(bi int) (bx, by, bz int) {
	return bi % k.g, (bi / k.g) % k.g, bi / (k.g * k.g)
}

// nbrsOf returns box bi's flattened cut-off neighbourhood (itself
// included), in appendNeighbors order.
func (t *goldenTab) nbrsOf(bi int) []int32 {
	return t.nbrBoxes[t.nbrOff[bi]:t.nbrOff[bi+1]]
}

// state returns box bi's particle-state SoA, building it on first use.
func (t *goldenTab) state(bi int) *boxState {
	if s := t.boxes[bi].st.Load(); s != nil {
		return s
	}
	return t.buildState(bi)
}

func (t *goldenTab) buildState(bi int) *boxState {
	bx, by, bz := t.k.boxCoords(bi)
	s := &boxState{
		x: make([]float64, t.p), y: make([]float64, t.p),
		z: make([]float64, t.p), q: make([]float64, t.p),
	}
	for idx := 0; idx < t.p; idx++ {
		s.x[idx], s.y[idx], s.z[idx], s.q[idx] = t.k.particle(bx, by, bz, idx)
	}
	if !t.boxes[bi].st.CompareAndSwap(nil, s) {
		return t.boxes[bi].st.Load()
	}
	return s
}

// potential returns the golden potential of particle idx of box bi from
// the golden-sum table, building the box's column on first use.
func (t *goldenTab) potential(bi, idx int) float64 {
	if p := t.boxes[bi].pot.Load(); p != nil {
		return (*p)[idx]
	}
	return (*t.buildPot(bi))[idx]
}

// buildPot fills box bi's golden-potential column in the exact naive
// summation order — a flat left-fold over the neighbourhood in
// appendNeighbors order, self-interaction skipped — so table values are
// bit-identical to an on-demand recomputation (the float accumulation
// tree is the bit-identity contract, DESIGN.md §13).
func (t *goldenTab) buildPot(bi int) *[]float64 {
	own := t.state(bi)
	nbrs := t.nbrsOf(bi)
	pot := make([]float64, t.p)
	for idx := 0; idx < t.p; idx++ {
		xi, yi, zi := own.x[idx], own.y[idx], own.z[idx]
		var v float64
		for _, nbi := range nbrs {
			ns := t.state(int(nbi))
			same := int(nbi) == bi
			for j := 0; j < t.p; j++ {
				if same && j == idx {
					continue
				}
				v += interaction(xi, yi, zi, ns.x[j], ns.y[j], ns.z[j], ns.q[j])
			}
		}
		pot[idx] = v
	}
	if !t.boxes[bi].pot.CompareAndSwap(nil, &pot) {
		return t.boxes[bi].pot.Load()
	}
	return &pot
}

// Profile implements kernels.Kernel. LavaMD keeps the home box and one
// neighbour box in local memory at all times (~14 KB per block on the
// K40, §V-B), which caps GPU occupancy and with it scheduler strain.
// Border boxes have truncated neighbourhoods: the resulting load imbalance
// shrinks with grid size, reducing the control-flow share of big inputs.
func (k *Kernel) Profile(dev arch.Device) arch.Profile {
	p := k.ParticlesPerBox(dev)
	boxes := k.g * k.g * k.g
	inner := float64((k.g - 2) * (k.g - 2) * (k.g - 2))
	borderFrac := 1 - inner/float64(boxes)
	prof := arch.Profile{
		Kernel:             "LavaMD",
		InputLabel:         k.InputLabel(),
		OutputDims:         k.outputDims(dev),
		Threads:            boxes * p,
		Blocks:             boxes,
		LocalMemPerBlockKB: 2 * float64(p) * ParticleWords * 8 / 1024,
		CacheFootprintKB:   float64(boxes) * float64(p) * ParticleWords * 8 / 1024,
		ControlShare:       0.04 + 1.2*borderFrac*borderFrac,
		MemoryBound:        true,
		Irregular:          false,
		// Heavy local-memory use caps the number of simultaneously
		// resident blocks, limiting scheduler strain (§V-B).
		DispatchFactor: 0.08,
		RelRuntime:     float64(boxes) * float64(p*p) / (13 * 13 * 13 * 100 * 100),
	}
	m := dev.Model()
	// On the K40 blocks stage particle boxes into local memory and read
	// each cache line once (streaming: upsets mostly hit dead lines); the
	// Phi instead re-reads neighbour boxes from its large coherent L2, so
	// cached particle data stays live across many consumers (§V-E).
	prof.StreamingData = m.SharedMemKBPerCore > 0
	if m.SFUAreaAU > 0 {
		// GPU: exponentials run on the dedicated transcendental unit.
		prof.SFUShare = 0.45
		prof.FPUShare = 0.45
	} else {
		prof.FPUShare = 0.45
	}
	if m.VectorWidthBits > 0 {
		prof.VectorShare = 0.55
	}
	return prof
}

// outputDims maps the particle potentials to a 3D grid: the x axis
// interleaves the particles of each box (x = bx*P + idx), y and z are box
// coordinates — exactly the "multiple dimensions of the output" view the
// paper's spatial-locality metric takes of LavaMD.
func (k *Kernel) outputDims(dev arch.Device) grid.Dims {
	return k.outputDimsP(k.ParticlesPerBox(dev))
}

// outputDimsP is outputDims keyed directly by particles-per-box.
func (k *Kernel) outputDimsP(p int) grid.Dims {
	return grid.Dims{X: k.g * p, Y: k.g, Z: k.g}
}

// run carries per-execution corrupted state on top of the shared golden
// tables. The faulty-potential map (flat particle id -> potential) lives
// in scratch borrowed from the handle's pool; runs are stack values so a
// strike allocates nothing of its own.
type run struct {
	k   *Kernel
	tab *goldenTab
	p   int
	sc  *runScratch
	rep *metrics.Report
}

func (r *run) coordOf(bx, by, bz, idx int) grid.Coord {
	return grid.Coord{X: bx*r.p + idx, Y: by, Z: bz}
}

// adjust accumulates a potential delta for one particle of box bi.
func (r *run) adjust(bi, idx int, delta float64) {
	if delta == 0 {
		return
	}
	key := (bi << 12) | idx
	// potential never touches the faulty map, so the slot pointer stays
	// valid across the initialisation.
	slot, fresh := r.sc.faulty.Ref(key)
	if fresh {
		*slot = r.tab.potential(bi, idx)
	}
	*slot += delta
}

// set overrides a particle's faulty potential outright.
func (r *run) set(bi, idx int, v float64) {
	r.sc.faulty.Set((bi<<12)|idx, v)
}

// finish converts accumulated faulty values into the mismatch report.
// Mismatches are emitted in ascending particle-id order so the report is
// a deterministic function of the corrupted set, exactly as the
// pre-pooling sort emitted them.
func (r *run) finish() *metrics.Report {
	keys := r.sc.faulty.SortedKeys()
	// Size the pooled report once for the faulty-potential count instead
	// of doubling inside the loop.
	r.rep.Reserve(len(keys))
	for _, key := range keys {
		v, _ := r.sc.faulty.Get(key)
		idx := key & 0xFFF
		box := key >> 12
		g := r.tab.potential(box, idx)
		if v == g {
			continue
		}
		bx, by, bz := r.k.boxCoords(box)
		r.rep.Mismatches = append(r.rep.Mismatches, metrics.Mismatch{
			Coord:     r.coordOf(bx, by, bz, idx),
			Read:      v,
			Expected:  g,
			RelErrPct: metrics.RelativeErrorPct(v, g),
		})
	}
	return r.rep
}

// RunInjectedPooled implements kernels.Kernel: the faulty-potential map
// comes from the handle's scratch pool, the report from the session pool.
func (k *Kernel) RunInjectedPooled(gs kernels.GoldenState, inj arch.Injection, rng *xrand.RNG, reports *metrics.ReportPool) *metrics.Report {
	h := gs.(*goldenHandle)
	sc := h.scr.Get()
	rep := k.runInjectedWith(h, sc, inj, rng, reports)
	h.scr.Put(sc)
	return rep
}

// RunInjectedBatch implements kernels.Kernel: the whole batch shares
// one borrowed scratch working set, so the faulty map's backing array and
// the golden-sum tables it touches stay cache-hot across strikes.
func (k *Kernel) RunInjectedBatch(gs kernels.GoldenState, batch []kernels.BatchStrike, reports *metrics.ReportPool) {
	h := gs.(*goldenHandle)
	sc := h.scr.Get()
	for i := range batch {
		batch[i].Report = k.runInjectedWith(h, sc, batch[i].Inj, batch[i].RNG, reports)
	}
	h.scr.Put(sc)
}

// runInjectedWith executes one injection against externally owned scratch.
func (k *Kernel) runInjectedWith(h *goldenHandle, sc *runScratch, inj arch.Injection, rng *xrand.RNG, reports *metrics.ReportPool) *metrics.Report {
	sc.faulty.Clear()
	dims := k.outputDimsP(h.p)
	r := run{k: k, tab: h.tab, p: h.p, sc: sc, rep: reports.Get(dims, dims.Len())}
	p := h.p
	g := k.g
	tab := h.tab

	switch inj.Scope {
	case arch.ScopeAccumTerm, arch.ScopeInputWord:
		// Datapath strike (FPU or transcendental unit): in LavaMD
		// virtually every FP operation feeds an exponential. A strike in
		// the transcendental pipeline perturbs the range-reduced
		// representation — the integer exponent part of exp()'s
		// argument — so the produced term comes out scaled by a power of
		// two: always a large error, matching the paper's hypothesis
		// that "exponentiation operations can turn small value
		// variations into large differences" and that the K40's LavaMD
		// SDCs are uniformly enormous (§V-E).
		bx, by, bz := rng.Intn(g), rng.Intn(g), rng.Intn(g)
		idx := rng.Intn(p)
		bi := k.boxIndex(bx, by, bz)
		t := k.randomTerm(tab, bi, idx, rng)
		shift := 4 + rng.Intn(28)
		scale := math.Ldexp(1, shift)
		if rng.Bool(0.3) {
			scale = 1 / scale // result collapses instead of exploding
		}
		r.adjust(bi, idx, t*scale-t)

	case arch.ScopeOutputWord:
		bx, by, bz := rng.Intn(g), rng.Intn(g), rng.Intn(g)
		idx := rng.Intn(p)
		bi := k.boxIndex(bx, by, bz)
		gv := tab.potential(bi, idx)
		r.set(bi, idx, inj.Flip.Apply(gv, rng))

	case arch.ScopeVectorLanes:
		// Adjacent potentials written back from one SIMD register.
		bx, by, bz := rng.Intn(g), rng.Intn(g), rng.Intn(g)
		idx0 := rng.Intn(p)
		bi := k.boxIndex(bx, by, bz)
		for w := 0; w < inj.Words && idx0+w < p; w++ {
			gv := tab.potential(bi, idx0+w)
			r.set(bi, idx0+w, inj.Flip.Apply(gv, rng))
		}

	case arch.ScopeCacheLine:
		k.injectCacheLines(&r, inj, rng)

	case arch.ScopeSharedTile:
		k.injectSharedTile(&r, inj, rng)

	case arch.ScopeTaskSet:
		k.injectTaskSet(&r, inj, rng)
	}

	return r.finish()
}

// randomTerm returns one golden pairwise term of particle idx of box bi:
// a random interaction partner among the p particles of each neighbouring
// box, excluding idx itself. The neighbour pick draws from the flattened
// list, which has the same length and order as the appendNeighbors walk,
// so RNG consumption is unchanged.
func (k *Kernel) randomTerm(tab *goldenTab, bi, idx int, rng *xrand.RNG) float64 {
	own := tab.state(bi)
	xi, yi, zi := own.x[idx], own.y[idx], own.z[idx]
	nbrs := tab.nbrsOf(bi)
	for {
		nbi := int(nbrs[rng.Intn(len(nbrs))])
		j := rng.Intn(tab.p)
		if nbi == bi && j == idx {
			continue // no self-interaction; p > 1 guarantees progress
		}
		ns := tab.state(nbi)
		return interaction(xi, yi, zi, ns.x[j], ns.y[j], ns.z[j], ns.q[j])
	}
}

// injectCacheLines corrupts particle state resident in cache. Every box
// whose neighbourhood contains a corrupted particle and which is processed
// after the strike consumes the poisoned copy; deltas are computed with
// the real interaction kernel.
func (k *Kernel) injectCacheLines(r *run, inj arch.Injection, rng *xrand.RNG) {
	p := r.p
	g := k.g
	totalWords := g * g * g * p * ParticleWords
	for line := 0; line < inj.Lines; line++ {
		w0 := kernels.AlignedStart(rng, totalWords, inj.Words)
		// Collect the corrupted particle words into recycled scratch.
		cs := r.sc.cs[:0]
		for w := 0; w < inj.Words && w0+w < totalWords; w++ {
			word := w0 + w
			gidx := word / ParticleWords
			comp := word % ParticleWords
			idx := gidx % p
			box := gidx / p
			bx, by, bz := k.boxCoords(box)
			cs = append(cs, corruptedParticle{bx, by, bz, idx, comp})
		}
		r.sc.cs = cs // keep grown capacity pooled
		for _, c := range cs {
			k.propagateParticleCorruption(r, inj, rng, k.boxIndex(c.bx, c.by, c.bz), c.idx, c.comp)
		}
	}
}

// propagateParticleCorruption recomputes, by exact delta, every potential
// that consumed the corrupted component of particle (sb, idx). The
// corrupted-minus-golden term pairs stream the consumer boxes' SoA state,
// which is the whole-path arithmetic hot loop.
func (k *Kernel) propagateParticleCorruption(r *run, inj arch.Injection, rng *xrand.RNG, sb, idx, comp int) {
	p := r.p
	tab := r.tab
	ss := tab.state(sb)
	xj, yj, zj, qj := ss.x[idx], ss.y[idx], ss.z[idx], ss.q[idx]
	vals := [ParticleWords]float64{xj, yj, zj, qj}
	orig := vals[comp]
	vals[comp] = inj.Flip.Apply(orig, rng)
	if vals[comp] == orig {
		return
	}
	xn, yn, zn, qn := vals[0], vals[1], vals[2], vals[3]

	for _, nbi := range tab.nbrsOf(sb) {
		cb := int(nbi)
		// Consumer boxes processed before the strike read clean data.
		if !kernels.ProgressConsumed(cb, tab.total, inj.When) {
			continue
		}
		cs := tab.state(cb)
		same := cb == sb
		for i := 0; i < p; i++ {
			if same && i == idx {
				continue
			}
			xi, yi, zi := cs.x[i], cs.y[i], cs.z[i]
			old := interaction(xi, yi, zi, xj, yj, zj, qj)
			new_ := interaction(xi, yi, zi, xn, yn, zn, qn)
			r.adjust(cb, i, new_-old)
		}
	}

	// The corrupted particle's own potential is also recomputed from its
	// corrupted position if its box runs after the strike.
	if kernels.ProgressConsumed(sb, tab.total, inj.When) && comp < 3 {
		var v float64
		for _, nbi := range tab.nbrsOf(sb) {
			ns := tab.state(int(nbi))
			same := int(nbi) == sb
			for j := 0; j < p; j++ {
				if same && j == idx {
					continue
				}
				v += interaction(xn, yn, zn, ns.x[j], ns.y[j], ns.z[j], ns.q[j])
			}
		}
		r.set(sb, idx, v)
	}
}

// injectSharedTile corrupts a neighbour-box copy staged in one block's
// local memory: only that single consumer box computes with poisoned data.
func (k *Kernel) injectSharedTile(r *run, inj arch.Injection, rng *xrand.RNG) {
	p := r.p
	g := k.g
	tab := r.tab
	cx, cy, cz := rng.Intn(g), rng.Intn(g), rng.Intn(g)
	cb := k.boxIndex(cx, cy, cz)
	nbrs := tab.nbrsOf(cb)
	nbi := int(nbrs[rng.Intn(len(nbrs))])
	same := nbi == cb
	cs := tab.state(cb)
	ns := tab.state(nbi)

	w0 := kernels.AlignedStart(rng, p*ParticleWords, inj.Words)
	for w := 0; w < inj.Words && w0+w < p*ParticleWords; w++ {
		word := w0 + w
		j := word / ParticleWords
		comp := word % ParticleWords
		xj, yj, zj, qj := ns.x[j], ns.y[j], ns.z[j], ns.q[j]
		vals := [ParticleWords]float64{xj, yj, zj, qj}
		orig := vals[comp]
		vals[comp] = inj.Flip.Apply(orig, rng)
		if vals[comp] == orig {
			continue
		}
		for i := 0; i < p; i++ {
			if same && i == j {
				continue
			}
			xi, yi, zi := cs.x[i], cs.y[i], cs.z[i]
			old := interaction(xi, yi, zi, xj, yj, zj, qj)
			new_ := interaction(xi, yi, zi, vals[0], vals[1], vals[2], vals[3])
			r.adjust(cb, i, new_-old)
		}
	}
}

// injectTaskSet mis-executes whole boxes: a corrupted scheduler entry
// either never launches a box (zero potentials) or launches it against a
// displaced neighbourhood.
func (k *Kernel) injectTaskSet(r *run, inj arch.Injection, rng *xrand.RNG) {
	p := r.p
	g := k.g
	tab := r.tab
	for t := 0; t < inj.Tasks; t++ {
		bx, by, bz := rng.Intn(g), rng.Intn(g), rng.Intn(g)
		bi := k.boxIndex(bx, by, bz)
		if rng.Bool(0.5) {
			for i := 0; i < p; i++ {
				r.set(bi, i, 0)
			}
			continue
		}
		// Displaced neighbourhood: the box computes as if it sat one box
		// over in x, so every particle sees a shifted particle set.
		sx := (bx + 1) % g
		sbi := k.boxIndex(sx, by, bz)
		own := tab.state(bi)
		nbrs := tab.nbrsOf(sbi)
		for i := 0; i < p; i++ {
			xi, yi, zi := own.x[i], own.y[i], own.z[i]
			var v float64
			for _, nbix := range nbrs {
				ns := tab.state(int(nbix))
				same := int(nbix) == bi
				for j := 0; j < p; j++ {
					if same && j == i {
						continue
					}
					v += interaction(xi, yi, zi, ns.x[j], ns.y[j], ns.z[j], ns.q[j])
				}
			}
			r.set(bi, i, v)
		}
	}
}

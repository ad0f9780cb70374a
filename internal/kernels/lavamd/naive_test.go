package lavamd

// This file freezes the pre-golden-sum-table injected path as a naive
// reference implementation: plain maps, fresh allocations, golden
// potentials recomputed with the original callback walk. It consumes the
// RNG in exactly the same order as the production path and emits
// mismatches in the same ascending-particle-id order, so the delta
// evaluator can be pinned bit-identical against it
// (TestLavaMDDeltaMatchesNaiveBitwise, FuzzLavaMDDeltaVsNaive).

import (
	"math"
	"sort"

	"radcrit/internal/arch"
	"radcrit/internal/grid"
	"radcrit/internal/kernels"
	"radcrit/internal/metrics"
	"radcrit/internal/xrand"
)

// naiveRun carries one naive injected execution: faulty potentials and a
// per-run golden-potential memo, both plain maps keyed by
// boxIndex<<12|idx.
type naiveRun struct {
	k      *Kernel
	p      int
	faulty map[int]float64
	golden map[int]float64
}

// naiveGoldenPotential is the original on-demand golden computation: a
// flat left-fold over the cut-off neighbourhood in neighbors() order.
func (r *naiveRun) naiveGoldenPotential(bx, by, bz, idx int) float64 {
	k := r.k
	key := (k.boxIndex(bx, by, bz) << 12) | idx
	if v, ok := r.golden[key]; ok {
		return v
	}
	xi, yi, zi, _ := k.particle(bx, by, bz, idx)
	var v float64
	k.neighbors(bx, by, bz, func(nx, ny, nz int) {
		for j := 0; j < r.p; j++ {
			if nx == bx && ny == by && nz == bz && j == idx {
				continue
			}
			xj, yj, zj, qj := k.particle(nx, ny, nz, j)
			v += interaction(xi, yi, zi, xj, yj, zj, qj)
		}
	})
	r.golden[key] = v
	return v
}

func (r *naiveRun) adjust(bx, by, bz, idx int, delta float64) {
	if delta == 0 {
		return
	}
	key := (r.k.boxIndex(bx, by, bz) << 12) | idx
	if _, ok := r.faulty[key]; !ok {
		r.faulty[key] = r.naiveGoldenPotential(bx, by, bz, idx)
	}
	r.faulty[key] += delta
}

func (r *naiveRun) set(bx, by, bz, idx int, v float64) {
	key := (r.k.boxIndex(bx, by, bz) << 12) | idx
	r.faulty[key] = v
}

// naiveRunInjected replays inj through the frozen pre-table logic and
// returns a freshly allocated report.
func (k *Kernel) naiveRunInjected(p int, inj arch.Injection, rng *xrand.RNG) *metrics.Report {
	r := &naiveRun{k: k, p: p,
		faulty: make(map[int]float64), golden: make(map[int]float64)}
	g := k.g
	randBox := func() (int, int, int) { return rng.Intn(g), rng.Intn(g), rng.Intn(g) }

	switch inj.Scope {
	case arch.ScopeAccumTerm, arch.ScopeInputWord:
		bx, by, bz := randBox()
		idx := rng.Intn(p)
		t := r.naiveRandomTerm(bx, by, bz, idx, rng)
		shift := 4 + rng.Intn(28)
		scale := math.Ldexp(1, shift)
		if rng.Bool(0.3) {
			scale = 1 / scale
		}
		r.adjust(bx, by, bz, idx, t*scale-t)

	case arch.ScopeOutputWord:
		bx, by, bz := randBox()
		idx := rng.Intn(p)
		gv := r.naiveGoldenPotential(bx, by, bz, idx)
		r.set(bx, by, bz, idx, inj.Flip.Apply(gv, rng))

	case arch.ScopeVectorLanes:
		bx, by, bz := randBox()
		idx0 := rng.Intn(p)
		for w := 0; w < inj.Words && idx0+w < p; w++ {
			gv := r.naiveGoldenPotential(bx, by, bz, idx0+w)
			r.set(bx, by, bz, idx0+w, inj.Flip.Apply(gv, rng))
		}

	case arch.ScopeCacheLine:
		r.naiveInjectCacheLines(inj, rng)

	case arch.ScopeSharedTile:
		r.naiveInjectSharedTile(inj, rng)

	case arch.ScopeTaskSet:
		r.naiveInjectTaskSet(inj, rng)
	}

	return r.naiveFinish()
}

func (r *naiveRun) naiveRandomTerm(bx, by, bz, idx int, rng *xrand.RNG) float64 {
	k := r.k
	xi, yi, zi, _ := k.particle(bx, by, bz, idx)
	nbs := k.appendNeighbors(nil, bx, by, bz)
	for {
		b := nbs[rng.Intn(len(nbs))]
		j := rng.Intn(r.p)
		if b.x == bx && b.y == by && b.z == bz && j == idx {
			continue
		}
		xj, yj, zj, qj := k.particle(b.x, b.y, b.z, j)
		return interaction(xi, yi, zi, xj, yj, zj, qj)
	}
}

func (r *naiveRun) naiveInjectCacheLines(inj arch.Injection, rng *xrand.RNG) {
	p, g := r.p, r.k.g
	totalWords := g * g * g * p * ParticleWords
	for line := 0; line < inj.Lines; line++ {
		w0 := kernels.AlignedStart(rng, totalWords, inj.Words)
		var cs []corruptedParticle
		for w := 0; w < inj.Words && w0+w < totalWords; w++ {
			word := w0 + w
			gidx := word / ParticleWords
			comp := word % ParticleWords
			idx := gidx % p
			box := gidx / p
			bx := box % g
			by := (box / g) % g
			bz := box / (g * g)
			cs = append(cs, corruptedParticle{bx, by, bz, idx, comp})
		}
		for _, c := range cs {
			r.naivePropagate(inj, rng, c.bx, c.by, c.bz, c.idx, c.comp)
		}
	}
}

func (r *naiveRun) naivePropagate(inj arch.Injection, rng *xrand.RNG, bx, by, bz, idx, comp int) {
	k, p := r.k, r.p
	xj, yj, zj, qj := k.particle(bx, by, bz, idx)
	vals := [ParticleWords]float64{xj, yj, zj, qj}
	orig := vals[comp]
	vals[comp] = inj.Flip.Apply(orig, rng)
	if vals[comp] == orig {
		return
	}
	xn, yn, zn, qn := vals[0], vals[1], vals[2], vals[3]

	k.neighbors(bx, by, bz, func(cx, cy, cz int) {
		if !kernels.ProgressConsumed(k.boxIndex(cx, cy, cz), k.g*k.g*k.g, inj.When) {
			return
		}
		for i := 0; i < p; i++ {
			if cx == bx && cy == by && cz == bz && i == idx {
				continue
			}
			xi, yi, zi, _ := k.particle(cx, cy, cz, i)
			old := interaction(xi, yi, zi, xj, yj, zj, qj)
			new_ := interaction(xi, yi, zi, xn, yn, zn, qn)
			r.adjust(cx, cy, cz, i, new_-old)
		}
	})

	if kernels.ProgressConsumed(k.boxIndex(bx, by, bz), k.g*k.g*k.g, inj.When) && comp < 3 {
		var v float64
		k.neighbors(bx, by, bz, func(nx2, ny2, nz2 int) {
			for j := 0; j < p; j++ {
				if nx2 == bx && ny2 == by && nz2 == bz && j == idx {
					continue
				}
				x2, y2, z2, q2 := k.particle(nx2, ny2, nz2, j)
				v += interaction(xn, yn, zn, x2, y2, z2, q2)
			}
		})
		r.set(bx, by, bz, idx, v)
	}
}

func (r *naiveRun) naiveInjectSharedTile(inj arch.Injection, rng *xrand.RNG) {
	k, p, g := r.k, r.p, r.k.g
	cx, cy, cz := rng.Intn(g), rng.Intn(g), rng.Intn(g)
	nbs := k.appendNeighbors(nil, cx, cy, cz)
	nb := nbs[rng.Intn(len(nbs))]

	w0 := kernels.AlignedStart(rng, p*ParticleWords, inj.Words)
	for w := 0; w < inj.Words && w0+w < p*ParticleWords; w++ {
		word := w0 + w
		j := word / ParticleWords
		comp := word % ParticleWords
		xj, yj, zj, qj := k.particle(nb.x, nb.y, nb.z, j)
		vals := [ParticleWords]float64{xj, yj, zj, qj}
		orig := vals[comp]
		vals[comp] = inj.Flip.Apply(orig, rng)
		if vals[comp] == orig {
			continue
		}
		for i := 0; i < p; i++ {
			if nb.x == cx && nb.y == cy && nb.z == cz && i == j {
				continue
			}
			xi, yi, zi, _ := k.particle(cx, cy, cz, i)
			old := interaction(xi, yi, zi, xj, yj, zj, qj)
			new_ := interaction(xi, yi, zi, vals[0], vals[1], vals[2], vals[3])
			r.adjust(cx, cy, cz, i, new_-old)
		}
	}
}

func (r *naiveRun) naiveInjectTaskSet(inj arch.Injection, rng *xrand.RNG) {
	k, p, g := r.k, r.p, r.k.g
	for t := 0; t < inj.Tasks; t++ {
		bx, by, bz := rng.Intn(g), rng.Intn(g), rng.Intn(g)
		if rng.Bool(0.5) {
			for i := 0; i < p; i++ {
				r.set(bx, by, bz, i, 0)
			}
			continue
		}
		sx := (bx + 1) % g
		for i := 0; i < p; i++ {
			xi, yi, zi, _ := k.particle(bx, by, bz, i)
			var v float64
			k.neighbors(sx, by, bz, func(nx, ny, nz int) {
				for j := 0; j < p; j++ {
					if nx == bx && ny == by && nz == bz && j == i {
						continue
					}
					xj, yj, zj, qj := k.particle(nx, ny, nz, j)
					v += interaction(xi, yi, zi, xj, yj, zj, qj)
				}
			})
			r.set(bx, by, bz, i, v)
		}
	}
}

func (r *naiveRun) naiveFinish() *metrics.Report {
	k := r.k
	dims := k.outputDimsP(r.p)
	rep := &metrics.Report{Dims: dims, TotalElements: dims.Len()}
	keys := make([]int, 0, len(r.faulty))
	for key := range r.faulty {
		keys = append(keys, key)
	}
	sort.Ints(keys)
	for _, key := range keys {
		v := r.faulty[key]
		idx := key & 0xFFF
		box := key >> 12
		bx := box % k.g
		by := (box / k.g) % k.g
		bz := box / (k.g * k.g)
		g := r.naiveGoldenPotential(bx, by, bz, idx)
		if v == g {
			continue
		}
		rep.Mismatches = append(rep.Mismatches, metrics.Mismatch{
			Coord:     grid.Coord{X: bx*r.p + idx, Y: by, Z: bz},
			Read:      v,
			Expected:  g,
			RelErrPct: metrics.RelativeErrorPct(v, g),
		})
	}
	return rep
}

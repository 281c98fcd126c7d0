package gp

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"bofl/internal/parallel"
)

// KStarCache precomputes, for a fixed candidate set, everything a posterior
// query needs against a regressor's training set: the cross-covariance
// vector k*, the forward-substitution solve v = L⁻¹k*, its squared norm and
// the prior variance k(x,x). Building it costs one full scan's worth of
// work (O(C·n·d) kernel evaluations plus O(C·n²) triangular solves);
// afterwards each posterior query is one O(n) dot product.
//
// Rows are stored in two flat slabs (one for k*, one for v) with a common
// row stride ≥ n: a cache built with spare stride is extendable in place by
// a CacheChain, which carries it through a Kriging-believer fantasy in O(n)
// per candidate — one kernel evaluation, one dot product against the new
// factor row and a rank-one update of ‖v‖² — with zero copying.
// mobo.SuggestBatch builds one cache per surrogate on each call that scans,
// straight into a chain's pooled slabs (NewCacheChain), and releases it on
// return; a call that reuses an unchanged batch builds none.
//
// Determinism: the cached quantities are computed with the operations
// Predict uses, in the same order, so a base cache reproduces
// Regressor.Predict bit-for-bit.
// Extended caches accumulate ‖v‖² incrementally, which regroups the
// floating-point sum; the result agrees with a fresh ConditionFast
// regressor's Predict to machine precision (the gp equivalence test pins
// 1e-9) and is identical between serial and parallel runs, which is the
// contract the determinism suite enforces.
type KStarCache struct {
	r          *Regressor
	candidates [][]float64
	n          int       // valid row prefix (training-set size)
	stride     int       // row stride of kstars/vs (≥ n)
	kstars     []float64 // kstars[i*stride : i*stride+n] is k(candidates[i], ·)
	vs         []float64 // vs[i*stride : i*stride+n] = L⁻¹·k*
	dotvv      []float64 // dotvv[i] = ‖vs[i]‖²
	kxx        []float64 // kxx[i] = k(candidates[i], candidates[i])
}

// NewKStarCache builds a standalone cache in fresh slabs at stride n. It is
// the persistent form: production code builds through NewCacheChain, and
// this constructor with the copying Extend stays as the oracle the chain is
// tested against.
func (r *Regressor) NewKStarCache(candidates [][]float64) *KStarCache {
	n, nc := len(r.xs), len(candidates)
	c := &KStarCache{
		r:          r,
		candidates: candidates,
		n:          n,
		stride:     n,
		kstars:     make([]float64, nc*n),
		vs:         make([]float64, nc*n),
		dotvv:      make([]float64, nc),
		kxx:        make([]float64, nc),
	}
	c.build()
	return c
}

// build fills every candidate's row against c.r's training set at c.stride.
// The kernel sweep and triangular solves fan out across the shared worker
// pool; within a chunk the solves run four candidates at a time
// (solveLowerNorm4), each bit-identical to its own SolveLowerInto and Dot.
func (c *KStarCache) build() {
	r, n, stride := c.r, c.n, c.stride
	parallel.ForChunk(len(c.candidates), func(lo, hi int) {
		row := func(i int) []float64 {
			x := c.candidates[i]
			ks := c.kstars[i*stride : i*stride+n]
			kernelRow(r.kernel, x, r.xs, ks)
			c.kxx[i] = priorVariance(r.kernel)
			return ks
		}
		i := lo
		for ; i+3 < hi; i += 4 {
			for j := i; j < i+4; j++ {
				row(j)
			}
			c.dotvv[i], c.dotvv[i+1], c.dotvv[i+2], c.dotvv[i+3] = solveLowerNorm4(r.chol, c.kstars[i*stride:], c.vs[i*stride:], stride)
		}
		for ; i < hi; i++ {
			_, c.dotvv[i] = SolveLowerNormInto(r.chol, row(i), c.vs[i*stride:i*stride+n])
		}
	})
}

// N returns the training-set size the cached vectors cover.
func (c *KStarCache) N() int { return c.n }

// Len returns the number of cached candidates.
func (c *KStarCache) Len() int { return len(c.candidates) }

// Predict returns the posterior mean and standard deviation at candidate i
// using the cached solves: one O(n) dot product, no allocation. Safe for
// concurrent use.
func (c *KStarCache) Predict(i int) (mu, sigma float64) {
	r := c.r
	muStd := Dot(c.kstars[i*c.stride:i*c.stride+c.n], r.alpha)
	varStd := c.kxx[i] - c.dotvv[i]
	if varStd < 0 {
		varStd = 0
	}
	return muStd*r.std + r.mean, math.Sqrt(varStd) * r.std
}

// Extend returns a new cache valid for cond, which must be the regressor
// produced by c's regressor via ConditionFast(x, y) (or a Fantasy chain).
// The extended Cholesky factor shares its first n rows with the original, so
// each candidate's solve grows by a single forward-substitution step:
//
//	v'ₙ = (k(candidate, x) − l·v) / d
//
// where [lᵀ, d] is the factor's new row. The receiver stays valid for the
// original regressor. CacheChain performs the same step in place with zero
// copying; Extend is the persistent (copying) form, kept with NewKStarCache
// as the tests' oracle for the chain.
func (c *KStarCache) Extend(cond *Regressor, x []float64) (*KStarCache, error) {
	if len(cond.xs) != c.n+1 {
		return nil, fmt.Errorf("gp: extend expects a one-point conditioning, got %d → %d training points", c.n, len(cond.xs))
	}
	n := c.n
	out := &KStarCache{
		r:          cond,
		candidates: c.candidates,
		n:          n + 1,
		stride:     n + 1,
		kstars:     make([]float64, len(c.candidates)*(n+1)),
		vs:         make([]float64, len(c.candidates)*(n+1)),
		dotvv:      make([]float64, len(c.candidates)),
		kxx:        c.kxx, // prior variances don't depend on the training set
	}
	lrow := cond.chol.Data[n*cond.chol.Cols : n*cond.chol.Cols+n]
	d := cond.chol.At(n, n)
	parallel.ForChunk(len(c.candidates), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ks := out.kstars[i*(n+1) : (i+1)*(n+1)]
			copy(ks, c.kstars[i*c.stride:i*c.stride+n])
			ks[n] = kernel1(cond.kernel, c.candidates[i], x)
			v := out.vs[i*(n+1) : (i+1)*(n+1)]
			vOld := c.vs[i*c.stride : i*c.stride+n]
			copy(v, vOld)
			v[n] = (ks[n] - Dot(lrow, vOld)) / d
			out.dotvv[i] = c.dotvv[i] + v[n]*v[n]
		}
	})
	return out, nil
}

// CacheChain is a KStarCache built in pooled slabs with spare row stride,
// extended in place through a Kriging-believer fantasy chain: each Extend
// appends a single column to every candidate's cached solve and updates ‖v‖²
// incrementally — zero copying and zero allocation per step. The chain holds
// one cache view, which Extend advances; a view read before an Extend sees
// the extended cache afterwards.
//
// The per-candidate arithmetic is identical to NewKStarCache's and
// KStarCache.Extend's, so a chain after k extensions holds bit-identical
// cached values to a NewKStarCache and k nested Extend calls.
type CacheChain struct {
	c KStarCache
}

// chainPool recycles released chains with their slabs, so a batch
// selection builds its caches in storage an earlier one left behind. Slabs
// are never zeroed: build and Extend write every element they later read.
var chainPool sync.Pool

// NewCacheChain builds the cross-covariance cache for candidates against
// r's training set straight into pooled slabs at stride n+extra, with room
// for extra appended observations. The candidate slice is retained and must
// not be mutated. Release returns the slabs to the pool.
func (r *Regressor) NewCacheChain(candidates [][]float64, extra int) *CacheChain {
	cc, _ := chainPool.Get().(*CacheChain)
	if cc == nil {
		cc = &CacheChain{}
	}
	n, nc := len(r.xs), len(candidates)
	stride := n + extra
	c := &cc.c
	c.r, c.candidates, c.n, c.stride = r, candidates, n, stride
	c.kstars = growSlab(c.kstars, nc*stride)
	c.vs = growSlab(c.vs, nc*stride)
	c.dotvv = growSlab(c.dotvv, nc)
	c.kxx = growSlab(c.kxx, nc)
	c.build()
	return cc
}

// growSlab returns s resliced to n elements, or a fresh slab with append's
// headroom when s is too small: a chain whose training set grew by a few
// points since its last use still fits. Contents are undefined.
func growSlab(s []float64, n int) []float64 {
	return slices.Grow(s[:0], n)[:n]
}

// Cur returns the chain's cache view.
func (cc *CacheChain) Cur() *KStarCache { return &cc.c }

// Extend advances the chain to cond (the current regressor conditioned on
// one observation at x) and returns the cache view, now valid for cond.
func (cc *CacheChain) Extend(cond *Regressor, x []float64) (*KStarCache, error) {
	cur := &cc.c
	n := cur.n
	if len(cond.xs) != n+1 {
		return nil, fmt.Errorf("gp: extend expects a one-point conditioning, got %d → %d training points", n, len(cond.xs))
	}
	if n >= cur.stride {
		return nil, fmt.Errorf("gp: cache chain capacity %d exhausted", cur.stride)
	}
	stride := cur.stride
	lrow := cond.chol.Data[n*cond.chol.Cols : n*cond.chol.Cols+n]
	d := cond.chol.At(n, n)
	// step appends candidate i's new column given lv = Dot(lrow, v[:n]),
	// which dot4 computes for four candidates at a time.
	step := func(i int, lv float64) {
		k := kernel1(cond.kernel, cur.candidates[i], x)
		cur.kstars[i*stride+n] = k
		vn := (k - lv) / d
		cur.vs[i*stride+n] = vn
		cur.dotvv[i] += vn * vn
	}
	parallel.ForChunk(len(cur.candidates), func(lo, hi int) {
		i := lo
		for ; i+3 < hi; i += 4 {
			l0, l1, l2, l3 := dot4(lrow, cur.vs[i*stride:], stride)
			step(i, l0)
			step(i+1, l1)
			step(i+2, l2)
			step(i+3, l3)
		}
		for ; i < hi; i++ {
			step(i, Dot(lrow, cur.vs[i*stride:i*stride+n]))
		}
	})
	cur.r, cur.n = cond, n+1
	return cur, nil
}

// Release returns the chain and its slabs to the pool. The chain and its
// cache view become invalid.
func (cc *CacheChain) Release() {
	cc.c.r, cc.c.candidates = nil, nil
	chainPool.Put(cc)
}

package gp

import (
	"fmt"
	"math"

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
// mobo.SuggestBatch builds one cache per surrogate per Fit and runs one
// chain per batch selection.
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

// NewKStarCache builds the cross-covariance cache for the given candidates
// against r's training set. The candidate slice is retained and must not be
// mutated. The kernel sweep and triangular solves fan out across the shared
// worker pool; within a chunk the solves run four candidates at a time
// (solveLowerNorm4), each bit-identical to its own SolveLowerInto and Dot.
func (r *Regressor) NewKStarCache(candidates [][]float64) *KStarCache {
	n := len(r.xs)
	c := &KStarCache{
		r:          r,
		candidates: candidates,
		n:          n,
		stride:     n,
		kstars:     make([]float64, len(candidates)*n),
		vs:         make([]float64, len(candidates)*n),
		dotvv:      make([]float64, len(candidates)),
		kxx:        make([]float64, len(candidates)),
	}
	parallel.ForChunk(len(candidates), func(lo, hi int) {
		row := func(i int) []float64 {
			x := candidates[i]
			ks := c.kstars[i*n : i*n+n]
			kernelRow(r.kernel, x, r.xs, ks)
			c.kxx[i] = priorVariance(r.kernel, x)
			return ks
		}
		i := lo
		for ; i+3 < hi; i += 4 {
			for j := i; j < i+4; j++ {
				row(j)
			}
			c.dotvv[i], c.dotvv[i+1], c.dotvv[i+2], c.dotvv[i+3] = solveLowerNorm4(r.chol, c.kstars[i*n:], c.vs[i*n:], n)
		}
		for ; i < hi; i++ {
			_, c.dotvv[i] = SolveLowerNormInto(r.chol, row(i), c.vs[i*n:i*n+n])
		}
	})
	return c
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
// copying; Extend is the persistent (copying) form.
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

// CacheChain extends a KStarCache through a Kriging-believer fantasy chain
// in place: one slab copy up front, then each Extend appends a single column
// to every candidate's cached solve and updates ‖v‖² incrementally — zero
// copying and zero allocation per step. Only the most recently returned
// cache view is valid. The base cache is never mutated.
//
// The per-candidate arithmetic is identical to KStarCache.Extend's, so a
// chain of k extensions produces bit-identical cached values to k nested
// Extend calls.
type CacheChain struct {
	base *KStarCache
	cur  *KStarCache
}

// NewChain prepares an in-place extension chain with capacity for extra
// appended observations. The cached rows are copied into pooled slabs once.
func (c *KStarCache) NewChain(extra int) *CacheChain {
	stride := c.n + extra
	cc := &CacheChain{base: c}
	cur := &KStarCache{
		r:          c.r,
		candidates: c.candidates,
		n:          c.n,
		stride:     stride,
		kstars:     getF64(len(c.candidates) * stride),
		vs:         getF64(len(c.candidates) * stride),
		dotvv:      getF64(len(c.candidates)),
		kxx:        c.kxx,
	}
	parallel.ForChunk(len(c.candidates), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			copy(cur.kstars[i*stride:i*stride+c.n], c.kstars[i*c.stride:i*c.stride+c.n])
			copy(cur.vs[i*stride:i*stride+c.n], c.vs[i*c.stride:i*c.stride+c.n])
		}
		copy(cur.dotvv[lo:hi], c.dotvv[lo:hi])
	})
	cc.cur = cur
	return cc
}

// Cur returns the chain's current cache view.
func (cc *CacheChain) Cur() *KStarCache { return cc.cur }

// Extend advances the chain to cond (the current regressor conditioned on
// one observation at x) and returns the updated cache view, invalidating the
// previous one.
func (cc *CacheChain) Extend(cond *Regressor, x []float64) (*KStarCache, error) {
	cur := cc.cur
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
	next := &KStarCache{
		r:          cond,
		candidates: cur.candidates,
		n:          n + 1,
		stride:     stride,
		kstars:     cur.kstars,
		vs:         cur.vs,
		dotvv:      cur.dotvv,
		kxx:        cur.kxx,
	}
	cc.cur = next
	return next, nil
}

// Release returns the chain's slabs to the package pool. The chain and every
// cache view it returned become invalid; the base cache is unaffected.
func (cc *CacheChain) Release() {
	putF64(cc.cur.kstars)
	putF64(cc.cur.vs)
	putF64(cc.cur.dotvv)
	cc.cur, cc.base = nil, nil
}

package gp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"bofl/internal/parallel"
)

// HyperOptions controls marginal-likelihood hyperparameter fitting.
type HyperOptions struct {
	// Dim is the input dimensionality. Required.
	Dim int
	// Restarts is the number of random restarts (default 8).
	Restarts int
	// Iters is the number of coordinate-descent sweeps per restart
	// (default 20).
	Iters int
	// Seed makes the random restarts deterministic.
	Seed int64
}

// fitWS is the per-restart hyperparameter-search workspace: every
// log-marginal-likelihood probe reuses the same Gram/factor matrix, solve
// vectors, kernel struct and parameter buffers, so a full coordinate
// descent allocates nothing per probe. Pooled across restarts and calls.
type fitWS struct {
	chol  *Matrix
	sy    []float64
	alpha []float64
	mat   Matern52
	p     []float64
	cand  []float64
	// pairs holds the Matérn pair terms of the 2·dim+2 most recently used
	// lengthscale vectors, one per slot. A sweep of the coordinate descent
	// probes 2·dim lengthscale vectors around its current point and the
	// current point's own between them, so when a sweep moves only the
	// variance or the noise, the next sweep finds every vector it needs.
	// clock stamps each use; a miss overwrites the least recently used slot.
	pairs []maternPairs
	clock uint64
	// memo holds every point the restart has scored, each entry its
	// parameter vector followed by its log likelihood (recall).
	memo []float64
}

// maternPairs holds, for one lengthscale vector over the workspace's
// training inputs, every lower-triangle pair's Matérn-5/2 factors
// 1 + √5r + 5r²/3 and exp(−√5r), interleaved in row order. Only the signal
// variance multiplies them, so the coordinate descent's variance and noise
// probes rebuild the Gram matrix with no sqrt or exp.
type maternPairs struct {
	ls    []float64
	terms []float64
	used  uint64 // clock of the latest use; 0 marks an empty slot
}

var fitWSPool sync.Pool

func getFitWS(n, dim, nparams int) *fitWS {
	ws, _ := fitWSPool.Get().(*fitWS)
	if ws == nil {
		ws = &fitWS{}
	}
	ws.reset(n, dim, nparams)
	return ws
}

// reset sizes the workspace for n training points of dimension dim and
// drops the cached pair terms: a pooled workspace moves between training
// sets, and the terms belong to the inputs they were computed over.
func (ws *fitWS) reset(n, dim, nparams int) {
	if ws.chol == nil || cap(ws.chol.Data) < n*n {
		ws.chol = &Matrix{Data: make([]float64, n*n)}
	}
	ws.chol.Rows, ws.chol.Cols = n, n
	ws.chol.Data = ws.chol.Data[:n*n]
	if cap(ws.sy) < n {
		ws.sy = make([]float64, n)
		ws.alpha = make([]float64, n)
	}
	if cap(ws.mat.Lengthscales) < dim {
		ws.mat.Lengthscales = make([]float64, dim)
	}
	ws.mat.Lengthscales = ws.mat.Lengthscales[:dim]
	if cap(ws.p) < nparams {
		ws.p = make([]float64, nparams)
		ws.cand = make([]float64, nparams)
	}
	ws.p = ws.p[:nparams]
	ws.cand = ws.cand[:nparams]
	slots := 2*dim + 2
	if cap(ws.pairs) < slots {
		ws.pairs = append(ws.pairs[:cap(ws.pairs)], make([]maternPairs, slots-cap(ws.pairs))...)
	}
	ws.pairs = ws.pairs[:slots]
	for s := range ws.pairs {
		ws.pairs[s].used = 0
	}
	ws.memo = ws.memo[:0]
}

// recall returns the log likelihood the restart scored at p, if it has
// scored p before. The newest entries are searched first: a probe that
// steps back lands on the point the last accepted move left.
func (ws *fitWS) recall(p []float64) (float64, bool) {
	w := len(p) + 1
	for e := len(ws.memo) - w; e >= 0; e -= w {
		if slices.Equal(ws.memo[e:e+len(p)], p) {
			return ws.memo[e+len(p)], true
		}
	}
	return 0, false
}

// remember records the log likelihood ll scored at p.
func (ws *fitWS) remember(p []float64, ll float64) {
	ws.memo = append(append(ws.memo, p...), ll)
}

func putFitWS(ws *fitWS) { fitWSPool.Put(ws) }

// gram fills the lower triangle of ws.chol bit-identically to
// gramLowerInto(k, xs, noise, ws.chol), taking the pair terms from the
// cache and computing them only for a lengthscale vector no slot holds.
func (ws *fitWS) gram(k *Matern52, xs [][]float64, noise float64) {
	terms := ws.pairTerms(k.Lengthscales, xs)
	v, diag := k.Variance, noise*noise
	data, stride := ws.chol.Data, ws.chol.Cols
	for i := range xs {
		row := data[i*stride : i*stride+i+1]
		for j := 0; j < i; j++ {
			// (v·poly)·ex, gramLowerInto's operation order.
			row[j] = v * terms[0] * terms[1]
			terms = terms[2:]
		}
		row[i] = v + diag
	}
}

// pairTerms returns the Matérn pair terms of xs under lengthscales ls,
// from the cache when a slot holds ls and freshly computed into the least
// recently used slot otherwise. The arithmetic is gramLowerInto's, so the
// terms are the exact factors it multiplies.
func (ws *fitWS) pairTerms(ls []float64, xs [][]float64) []float64 {
	ws.clock++
	pc := &ws.pairs[0] // the least recently used slot so far
	for s := range ws.pairs {
		c := &ws.pairs[s]
		if c.used > 0 && slices.Equal(c.ls, ls) {
			c.used = ws.clock
			return c.terms
		}
		if c.used < pc.used {
			pc = c
		}
	}
	pc.used = ws.clock
	n := len(xs)
	pc.ls = append(pc.ls[:0], ls...)
	if cap(pc.terms) < n*(n-1) {
		pc.terms = make([]float64, n*(n-1))
	}
	pc.terms = pc.terms[:n*(n-1)]
	var ilsBuf [maxStackDim]float64
	ils := reciprocalsInto(ls, ilsBuf[:])
	t := pc.terms
	for i, xi := range xs {
		for _, xj := range xs[:i] {
			r2 := scaledDist2(xi, xj, ils)
			r := math.Sqrt(r2)
			s5r := math.Sqrt(5) * r
			t[0] = 1 + s5r + 5*r2/3
			t[1] = math.Exp(-s5r)
			t = t[2:]
		}
	}
	return pc.terms
}

// fitLL evaluates the log marginal likelihood of (xs, ys) under the given
// kernel and noise without constructing a Regressor: the same
// standardization, Gram build, jitter ladder and triangular solves as Fit,
// into the workspace's reused buffers. Returns −Inf when the Gram matrix is
// not positive definite even after jittering — exactly the cases where Fit
// would fail. Bit-identical to Fit followed by LogMarginalLikelihood.
func fitLL(kernel *Matern52, noise float64, xs [][]float64, ys []float64, ws *fitWS) float64 {
	n := len(xs)
	mean, std := standardizeParams(ys)
	sy := ws.sy[:n]
	for i, y := range ys {
		sy[i] = (y - mean) / std
	}

	chol := ws.chol
	ws.gram(kernel, xs, noise)
	err := CholeskyInPlace(chol)
	jitter, cumJitter := 1e-10, 0.0
	for attempt := 0; err != nil && attempt < 7; attempt++ {
		cumJitter += jitter
		jitter *= 10
		ws.gram(kernel, xs, noise)
		for i := 0; i < n; i++ {
			chol.Set(i, i, chol.At(i, i)+cumJitter)
		}
		err = CholeskyInPlace(chol)
	}
	if err != nil {
		return math.Inf(-1)
	}
	alpha := ws.alpha[:n]
	CholeskySolveInto(chol, sy, alpha, alpha)
	return -0.5*Dot(sy, alpha) - 0.5*LogDetFromCholesky(chol) - 0.5*float64(n)*math.Log(2*math.Pi)
}

// FitHyper fits a GP to (xs, ys) with kernel hyperparameters chosen by
// maximizing the log marginal likelihood. Optimization is a multi-start
// coordinate descent in log-space over signal variance, per-dimension
// lengthscales and observation noise — simple, dependency-free,
// and reliable for the ≤ 4-D, ≤ 100-point problems BoFL encounters.
//
// Search probes evaluate the likelihood only (fitLL, allocation-free through
// the pooled per-restart workspace); the winning parameter vector is refit
// once at the end, producing a model bit-identical to the historical
// fit-per-probe search at a fraction of the allocator traffic. Each restart
// memoizes the likelihood of every point it scores, so a probe that returns
// to one (a step back to the point a move just left, or a longer way round)
// reads it instead of scoring it again; fitLL is deterministic, so the
// search path is unchanged.
func FitHyper(xs [][]float64, ys []float64, opts HyperOptions) (*Regressor, error) {
	if opts.Dim <= 0 {
		return nil, fmt.Errorf("gp: FitHyper requires positive Dim, got %d", opts.Dim)
	}
	if len(xs) == 0 {
		return nil, ErrNoData
	}
	restarts := opts.Restarts
	if restarts <= 0 {
		restarts = 8
	}
	iters := opts.Iters
	if iters <= 0 {
		iters = 20
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	// Parameter vector layout in log-space:
	// [log σ², log ℓ_1..log ℓ_d, log σₙ].
	nparams := 1 + opts.Dim + 1
	lower := make([]float64, nparams)
	upper := make([]float64, nparams)
	lower[0], upper[0] = math.Log(1e-2), math.Log(1e2) // variance
	for i := 0; i < opts.Dim; i++ {
		lower[1+i], upper[1+i] = math.Log(0.03), math.Log(10) // lengthscales (inputs in [0,1])
	}
	lower[nparams-1], upper[nparams-1] = math.Log(1e-4), math.Log(0.5) // noise

	// paramsOf decodes a log-space parameter vector: fills ls with the
	// lengthscales and returns variance and noise. Clamped log-space values
	// are always strictly positive, so no validation is needed.
	paramsOf := func(p, ls []float64) (variance, noise float64) {
		for i := range ls {
			ls[i] = math.Exp(p[1+i])
		}
		return math.Exp(p[0]), math.Exp(p[nparams-1])
	}

	// Starting points are drawn serially up front (restart 0 keeps the
	// deterministic default start), so the restarts become independent and
	// can fan out across the worker pool while consuming the exact RNG
	// stream the serial loop did.
	starts := make([][]float64, restarts)
	for restart := range starts {
		p := make([]float64, nparams)
		if restart == 0 {
			// Sensible default start: unit variance, medium
			// lengthscales, moderate noise.
			p[0] = 0
			for i := 0; i < opts.Dim; i++ {
				p[1+i] = math.Log(0.5)
			}
			p[nparams-1] = math.Log(0.05)
		} else {
			for i := range p {
				p[i] = lower[i] + rng.Float64()*(upper[i]-lower[i])
			}
		}
		starts[restart] = p
	}

	// Each restart runs its coordinate descent independently; the reduction
	// below is serial with lowest-restart-index tie-breaking on equal log
	// marginal likelihood, so parallel and serial searches select the same
	// model.
	lls := make([]float64, restarts)
	parallel.For(restarts, func(restart int) {
		ws := getFitWS(len(xs), opts.Dim, nparams)
		defer putFitWS(ws)
		evalLL := func(p []float64) float64 {
			if ll, ok := ws.recall(p); ok {
				return ll
			}
			var noise float64
			ws.mat.Variance, noise = paramsOf(p, ws.mat.Lengthscales)
			ll := fitLL(&ws.mat, noise, xs, ys, ws)
			ws.remember(p, ll)
			return ll
		}
		p := ws.p
		copy(p, starts[restart])
		cand := ws.cand
		ll := evalLL(p)
		// Coordinate descent with shrinking step size.
		step := 1.0
		for it := 0; it < iters; it++ {
			improved := false
			for i := range p {
				for _, dir := range [2]float64{1, -1} {
					copy(cand, p)
					cand[i] = clamp(cand[i]+dir*step, lower[i], upper[i])
					if cand[i] == p[i] {
						continue
					}
					if ll2 := evalLL(cand); ll2 > ll {
						p, cand = cand, p
						ll = ll2
						improved = true
					}
				}
			}
			if !improved {
				step /= 2
				if step < 1e-3 {
					break
				}
			}
		}
		// Publish the winning parameters by overwriting the start vector
		// (consumed above, dead afterwards).
		copy(starts[restart], p)
		lls[restart] = ll
	})

	bestRestart := -1
	bestLL := math.Inf(-1)
	for restart, ll := range lls {
		if !math.IsInf(ll, -1) && ll > bestLL {
			bestRestart, bestLL = restart, ll
		}
	}
	if bestRestart == -1 {
		return nil, fmt.Errorf("gp: hyperparameter search found no valid model")
	}
	// One final Fit of the winning parameters; Fit is deterministic, so
	// this is the exact model the winning probe evaluated.
	ls := make([]float64, opts.Dim)
	variance, noise := paramsOf(starts[bestRestart], ls)
	best, err := Fit(&Matern52{Variance: variance, Lengthscales: ls}, noise, xs, ys)
	if err != nil {
		return nil, fmt.Errorf("gp: refit of selected hyperparameters: %w", err)
	}
	return best, nil
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

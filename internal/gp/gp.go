package gp

import (
	"errors"
	"fmt"
	"math"
)

// Regressor is a fitted Gaussian-process regression model with zero prior
// mean (observations are standardized internally, matching the paper's
// m(x)=0 prior). It is immutable after construction.
type Regressor struct {
	kernel *Matern52
	noise  float64 // observation noise std-dev (in standardized units)

	xs   [][]float64
	mean float64 // standardization offset of raw targets
	std  float64 // standardization scale of raw targets

	chol  *Matrix   // Cholesky factor of K + σₙ²I (possibly a strided view)
	alpha []float64 // (K + σₙ²I)⁻¹ · y (standardized)
	ys    []float64 // standardized targets
}

// ErrNoData is returned when fitting with zero observations.
var ErrNoData = errors.New("gp: no training observations")

// Fit conditions a zero-mean GP with the given kernel and noise standard
// deviation on observations (xs, ys). Targets are standardized internally so
// the zero-mean prior is reasonable regardless of the objective's scale.
func Fit(kernel *Matern52, noise float64, xs [][]float64, ys []float64) (*Regressor, error) {
	if len(xs) == 0 {
		return nil, ErrNoData
	}
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("gp: %d inputs but %d targets", len(xs), len(ys))
	}
	dim := kernel.Dim()
	for i, x := range xs {
		if len(x) != dim {
			return nil, fmt.Errorf("gp: input %d has dim %d, kernel expects %d", i, len(x), dim)
		}
	}
	if noise < 0 {
		return nil, fmt.Errorf("gp: negative noise %v", noise)
	}

	mean, std := standardizeParams(ys)
	sy := make([]float64, len(ys))
	for i, y := range ys {
		sy[i] = (y - mean) / std
	}

	// The retained input copies share one flat backing array: two
	// allocations instead of n+1, and the Gram sweep walks contiguous
	// memory.
	n := len(xs)
	backing := make([]float64, n*dim)
	cxs := make([][]float64, n)
	for i, x := range xs {
		row := backing[i*dim : (i+1)*dim : (i+1)*dim]
		copy(row, x)
		cxs[i] = row
	}

	// The Gram matrix is factored in place — no separate factor copy. If it
	// is numerically singular (e.g. duplicated inputs with tiny noise), the
	// failed attempt has clobbered the buffer, so rebuild it and retry with
	// progressively larger diagonal jitter; the retry path is rare enough
	// that the extra Gram sweeps don't matter.
	chol := NewMatrix(n, n)
	gramLowerInto(kernel, cxs, noise, chol)
	err := CholeskyInPlace(chol)
	jitter, cumJitter := 1e-10, 0.0
	for attempt := 0; err != nil && attempt < 7; attempt++ {
		cumJitter += jitter
		jitter *= 10
		gramLowerInto(kernel, cxs, noise, chol)
		for i := 0; i < n; i++ {
			chol.Set(i, i, chol.At(i, i)+cumJitter)
		}
		err = CholeskyInPlace(chol)
	}
	if err != nil {
		return nil, fmt.Errorf("gp: gram matrix factorization: %w", err)
	}

	alpha := make([]float64, n)
	CholeskySolveInto(chol, sy, alpha, alpha)

	return &Regressor{
		kernel: kernel,
		noise:  noise,
		xs:     cxs,
		mean:   mean,
		std:    std,
		chol:   chol,
		alpha:  alpha,
		ys:     sy,
	}, nil
}

func standardizeParams(ys []float64) (mean, std float64) {
	for _, y := range ys {
		mean += y
	}
	mean /= float64(len(ys))
	for _, y := range ys {
		d := y - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(len(ys)))
	if std < 1e-12 {
		std = 1 // constant targets: keep scale neutral
	}
	return mean, std
}

// N returns the number of training observations.
func (r *Regressor) N() int { return len(r.xs) }

// Predict returns the posterior mean and standard deviation of the latent
// function at x, in the original (unstandardized) units of the targets.
func (r *Regressor) Predict(x []float64) (mu, sigma float64) {
	n := len(r.xs)
	scratch := make([]float64, 2*n)
	return r.PredictInto(x, scratch[:n], scratch[n:])
}

// PredictInto is Predict with caller-provided scratch buffers (each of
// len ≥ N()), for hot loops that evaluate many points without per-point
// garbage (PredictBatch, and ad-hoc scans that bypass KStarCache). kstar
// and v are overwritten and must not alias each other.
//
// The kernel sweep, the mean dot product and the variance solve are fused:
// k*·α accumulates while k* is filled and ‖v‖² accumulates while the
// triangular solve runs, in the same ascending order the separate passes
// used — two passes over memory instead of four, bit-identical results.
func (r *Regressor) PredictInto(x []float64, kstar, v []float64) (mu, sigma float64) {
	n := len(r.xs)
	kstar = kstar[:n]
	muStd := kernelRowMu(r.kernel, x, r.xs, kstar, r.alpha)
	_, normVV := SolveLowerNormInto(r.chol, kstar, v)
	varStd := priorVariance(r.kernel) - normVV
	if varStd < 0 {
		varStd = 0
	}
	return muStd*r.std + r.mean, math.Sqrt(varStd) * r.std
}

// PredictBatch evaluates Predict on each row of xs, reusing one scratch
// allocation across the whole batch.
func (r *Regressor) PredictBatch(xs [][]float64) (mus, sigmas []float64) {
	mus = make([]float64, len(xs))
	sigmas = make([]float64, len(xs))
	r.PredictBatchInto(xs, mus, sigmas, make([]float64, 2*len(r.xs)))
	return mus, sigmas
}

// PredictBatchInto is PredictBatch into caller-provided output slices (each
// of len ≥ len(xs)) and scratch (len ≥ 2·N()), with no allocation (the
// allocation-regression suite pins zero allocs per batch). The acquisition
// scans do not use it: they predict from a KStarCache.
func (r *Regressor) PredictBatchInto(xs [][]float64, mus, sigmas, scratch []float64) {
	n := len(r.xs)
	kstar, v := scratch[:n], scratch[n:2*n]
	for i, x := range xs {
		mus[i], sigmas[i] = r.PredictInto(x, kstar, v)
	}
}

// LogMarginalLikelihood returns the log marginal likelihood of the
// standardized training targets under the fitted prior:
//
//	log p(y|X) = −½ yᵀα − Σ log L_ii − n/2·log 2π
func (r *Regressor) LogMarginalLikelihood() float64 {
	n := float64(len(r.ys))
	return -0.5*Dot(r.ys, r.alpha) - 0.5*LogDetFromCholesky(r.chol) - 0.5*n*math.Log(2*math.Pi)
}

// Condition returns a new regressor with one extra observation appended,
// refit from scratch in O(n³) with the target standardization recomputed.
// Only tests call it, as the full-refit oracle; the Kriging-believer batch
// conditions through a Fantasy chain.
func (r *Regressor) Condition(x []float64, y float64) (*Regressor, error) {
	xs := make([][]float64, 0, len(r.xs)+1)
	ys := make([]float64, 0, len(r.xs)+1)
	for i, xi := range r.xs {
		xs = append(xs, xi)
		ys = append(ys, r.ys[i]*r.std+r.mean)
	}
	xs = append(xs, x)
	ys = append(ys, y)
	return Fit(r.kernel, r.noise, xs, ys)
}

package gp

import (
	"fmt"
	"math"
)

// Matern52 is the Matérn-5/2 kernel with ARD (per-dimension) lengthscales and
// a signal variance:
//
//	k(x,y) = σ² · (1 + √5 r + 5r²/3) · exp(−√5 r),  r² = Σ ((x_i−y_i)/ℓ_i)²
//
// This is the prior the BoFL paper uses for both objective surrogates (§4.3),
// and the GP's only kernel; it yields twice-differentiable sample paths, which
// captures a large variety of function properties without the
// over-smoothness of a squared-exponential prior.
type Matern52 struct {
	Variance     float64   // σ², must be > 0
	Lengthscales []float64 // ℓ, one per input dimension, each > 0
}

// NewMatern52 constructs a Matérn-5/2 kernel with the given signal variance
// and per-dimension lengthscales.
func NewMatern52(variance float64, lengthscales []float64) (*Matern52, error) {
	if variance <= 0 {
		return nil, fmt.Errorf("gp: matern52 variance %v must be positive", variance)
	}
	if len(lengthscales) == 0 {
		return nil, fmt.Errorf("gp: matern52 needs at least one lengthscale")
	}
	for i, l := range lengthscales {
		if l <= 0 {
			return nil, fmt.Errorf("gp: matern52 lengthscale[%d]=%v must be positive", i, l)
		}
	}
	ls := make([]float64, len(lengthscales))
	copy(ls, lengthscales)
	return &Matern52{Variance: variance, Lengthscales: ls}, nil
}

// Dim returns the input dimensionality.
func (k *Matern52) Dim() int { return len(k.Lengthscales) }

// Eval returns the Matérn-5/2 covariance between x and y.
func (k *Matern52) Eval(x, y []float64) float64 {
	r2 := 0.0
	for i := range k.Lengthscales {
		d := (x[i] - y[i]) / k.Lengthscales[i]
		r2 += d * d
	}
	r := math.Sqrt(r2)
	s5r := math.Sqrt(5) * r
	return k.Variance * (1 + s5r + 5*r2/3) * math.Exp(-s5r)
}

// The sweeps below are the numeric hot paths: they strength-reduce the
// per-dimension division to a multiplication by a precomputed reciprocal
// lengthscale. That rounds r² differently from Eval, and exp(−√5r)
// multiplies the difference by about √5r, so at FitHyper's shortest
// lengthscales a sweep's covariance can sit a few hundred ulps from Eval's;
// TestMaternSweepsAgree bounds the gap at 1e-12 relative. Every internal
// consumer (the Gram build, predict rows, Cholesky row extension, candidate
// caches) goes through these sweeps, and they agree with each other bit for
// bit (the same test pins it), which is what the exact-equivalence tests
// (rank-1 update vs refit) rely on. Eval remains the division-form reference
// for tests and external callers.

// maxStackDim bounds the reciprocal-lengthscale scratch that lives on the
// stack; larger dimensionalities fall back to a heap allocation.
const maxStackDim = 24

func reciprocalsInto(ls []float64, buf []float64) []float64 {
	var ils []float64
	if len(ls) <= len(buf) {
		ils = buf[:len(ls)]
	} else {
		ils = make([]float64, len(ls))
	}
	for d, l := range ls {
		ils[d] = 1 / l
	}
	return ils
}

// scaledDist2 returns r² = Σ ((x_d − y_d)·ils_d)² for reciprocal
// lengthscales ils.
func scaledDist2(x, y, ils []float64) float64 {
	r2 := 0.0
	for d := range ils {
		dd := (x[d] - y[d]) * ils[d]
		r2 += dd * dd
	}
	return r2
}

// priorVariance returns k(x, x) for any x: r = 0 makes both Matérn factors
// exactly 1, leaving the signal variance.
func priorVariance(k *Matern52) float64 { return k.Variance }

// GramMatrix builds the n×n covariance matrix K with K_ij = k(xs[i], xs[j])
// plus noise² on the diagonal.
func GramMatrix(k *Matern52, xs [][]float64, noise float64) *Matrix {
	m := NewMatrix(len(xs), len(xs))
	GramInto(k, xs, noise, m)
	return m
}

// GramInto is GramMatrix into a caller-provided n×n matrix.
func GramInto(k *Matern52, xs [][]float64, noise float64, m *Matrix) {
	gramLowerInto(k, xs, noise, m)
	// Mirror the strictly-lower triangle into the upper one.
	n := len(xs)
	d, stride := m.Data, m.Cols
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			d[j*stride+i] = d[i*stride+j]
		}
	}
}

// gramLowerInto fills the lower triangle (diagonal included, with noise²
// added) of m with the covariance of xs against itself, leaving the strictly
// upper triangle untouched. This is all the in-place Cholesky factorization
// reads, so Fit skips the mirror pass. Row i is kernelRow of xs[i] against
// xs[:i].
func gramLowerInto(k *Matern52, xs [][]float64, noise float64, m *Matrix) {
	data, stride := m.Data, m.Cols
	diag := noise * noise
	for i, xi := range xs {
		row := data[i*stride : i*stride+i+1]
		kernelRow(k, xi, xs[:i], row)
		row[i] = k.Variance + diag
	}
}

// kernel1 evaluates a single covariance k(x, y) with the sweeps' reciprocal-
// lengthscale arithmetic, so mixing single evaluations with row sweeps stays
// bit-consistent.
func kernel1(k *Matern52, x, y []float64) float64 {
	r2 := 0.0
	for d, l := range k.Lengthscales {
		dd := (x[d] - y[d]) * (1 / l)
		r2 += dd * dd
	}
	r := math.Sqrt(r2)
	s5r := math.Sqrt(5) * r
	return k.Variance * (1 + s5r + 5*r2/3) * math.Exp(-s5r)
}

// kernelRow fills ks[i] = k(x, xs[i]). ks must have len ≥ len(xs).
func kernelRow(k *Matern52, x []float64, xs [][]float64, ks []float64) {
	var ilsBuf [maxStackDim]float64
	ils := reciprocalsInto(k.Lengthscales, ilsBuf[:])
	v := k.Variance
	for i, xi := range xs {
		r2 := scaledDist2(x, xi, ils)
		r := math.Sqrt(r2)
		s5r := math.Sqrt(5) * r
		ks[i] = v * (1 + s5r + 5*r2/3) * math.Exp(-s5r)
	}
}

// kernelRowMu is kernelRow fused with the posterior-mean dot product: it
// returns Σ ks[i]·alpha[i] accumulated in the same ascending order
// Dot(ks, alpha) uses, while filling ks — one pass instead of two,
// bit-identical to the separate sweep.
func kernelRowMu(k *Matern52, x []float64, xs [][]float64, ks, alpha []float64) float64 {
	var ilsBuf [maxStackDim]float64
	ils := reciprocalsInto(k.Lengthscales, ilsBuf[:])
	v := k.Variance
	mu := 0.0
	for i, xi := range xs {
		r2 := scaledDist2(x, xi, ils)
		r := math.Sqrt(r2)
		s5r := math.Sqrt(5) * r
		kv := v * (1 + s5r + 5*r2/3) * math.Exp(-s5r)
		ks[i] = kv
		mu += kv * alpha[i]
	}
	return mu
}

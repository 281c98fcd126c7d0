package gp

import (
	"math"
	"math/rand"
	"testing"
)

func mustMatern(t *testing.T, variance float64, ls []float64) *Matern52 {
	t.Helper()
	k, err := NewMatern52(variance, ls)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestKernelValidation(t *testing.T) {
	if _, err := NewMatern52(-1, []float64{1}); err == nil {
		t.Error("negative variance accepted")
	}
	if _, err := NewMatern52(1, nil); err == nil {
		t.Error("empty lengthscales accepted")
	}
	if _, err := NewMatern52(1, []float64{0}); err == nil {
		t.Error("zero lengthscale accepted")
	}
}

func TestKernelProperties(t *testing.T) {
	k := mustMatern(t, 2.0, []float64{0.5, 1.5})
	rng := rand.New(rand.NewSource(5))
	if k.Dim() != 2 {
		t.Errorf("Dim = %d, want 2", k.Dim())
	}
	for trial := 0; trial < 100; trial++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64()}
		y := []float64{rng.NormFloat64(), rng.NormFloat64()}
		kxy, kyx := k.Eval(x, y), k.Eval(y, x)
		if math.Abs(kxy-kyx) > 1e-12 {
			t.Fatalf("kernel not symmetric: %v vs %v", kxy, kyx)
		}
		kxx := k.Eval(x, x)
		if math.Abs(kxx-2.0) > 1e-12 {
			t.Fatalf("k(x,x) = %v, want variance 2", kxx)
		}
		if kxy > kxx+1e-12 {
			t.Fatalf("|k(x,y)| exceeds k(x,x): %v > %v", kxy, kxx)
		}
		if kxy < 0 {
			t.Fatalf("stationary kernel went negative: %v", kxy)
		}
	}
}

// logUniform draws from [lo, hi] uniformly in log-space, the way FitHyper's
// restarts draw hyperparameters.
func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
}

// TestMaternSweepsAgree holds the reciprocal-lengthscale sweeps to each
// other and to Eval's division form. Over 200,000 pairs of random 1–4-D
// inputs in [0,1], with variances and lengthscales drawn across FitHyper's
// search box, gramLowerInto, kernelRow, kernelRowMu, kernel1 and
// priorVariance must give the same bits, kernelRowMu's mean must be
// Dot(row, alpha) bit for bit, and every covariance must lie within 1e-12
// relative of Eval. The sweeps do not match Eval to an ulp: exp(−√5r)
// multiplies the rounding of r² by about √5r, which reaches ~150 at the
// shortest lengthscales.
func TestMaternSweepsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const sets, n = 2000, 10
	gram := NewMatrix(n, n)
	row, rowMu, alpha := make([]float64, n), make([]float64, n), make([]float64, n)
	worstRel, worstULP := 0.0, uint64(0)
	for set := 0; set < sets; set++ {
		dim := 1 + rng.Intn(4)
		ls := make([]float64, dim)
		for d := range ls {
			ls[d] = logUniform(rng, 0.03, 10)
		}
		k := mustMatern(t, logUniform(rng, 1e-2, 1e2), ls)
		xs := randomCandidates(rng, n, dim)
		for i := range alpha {
			alpha[i] = rng.NormFloat64()
		}
		gramLowerInto(k, xs, 0, gram)
		for i, x := range xs {
			kernelRow(k, x, xs, row)
			mu := kernelRowMu(k, x, xs, rowMu, alpha)
			if dot := Dot(row, alpha); math.Float64bits(mu) != math.Float64bits(dot) {
				t.Fatalf("set %d row %d: kernelRowMu's mean %v, Dot(kernelRow, alpha) %v", set, i, mu, dot)
			}
			for j, y := range xs {
				want := gram.At(max(i, j), min(i, j))
				if i == j && math.Float64bits(priorVariance(k)) != math.Float64bits(want) {
					t.Fatalf("set %d: priorVariance %v, Gram diagonal %v", set, priorVariance(k), want)
				}
				for name, got := range map[string]float64{"kernelRow": row[j], "kernelRowMu": rowMu[j], "kernel1": kernel1(k, x, y)} {
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("set %d pair (%d,%d): %s %v, Gram %v", set, i, j, name, got, want)
					}
				}
				eval := k.Eval(x, y)
				if rel := math.Abs(want-eval) / eval; rel > worstRel {
					worstRel = rel
				}
				a, b := math.Float64bits(want), math.Float64bits(eval)
				worstULP = max(worstULP, max(a, b)-min(a, b))
			}
		}
	}
	t.Logf("worst gap to Eval over %d pairs: %.3g relative, %d ulps", sets*n*n, worstRel, worstULP)
	if worstRel > 1e-12 {
		t.Errorf("a sweep strays %.3g relative from Eval, want ≤ 1e-12", worstRel)
	}
}

func TestFitValidation(t *testing.T) {
	k := mustMatern(t, 1, []float64{1})
	if _, err := Fit(k, 0.1, nil, nil); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := Fit(k, 0.1, [][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Fit(k, 0.1, [][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("dim mismatch accepted")
	}
	if _, err := Fit(k, -0.1, [][]float64{{1}}, []float64{1}); err == nil {
		t.Error("negative noise accepted")
	}
}

func TestPosteriorInterpolatesWithTinyNoise(t *testing.T) {
	k := mustMatern(t, 1, []float64{0.4})
	xs := [][]float64{{0.1}, {0.4}, {0.7}, {0.95}}
	ys := []float64{3.0, 1.0, 2.5, 4.0}
	r, err := Fit(k, 1e-6, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		mu, sigma := r.Predict(x)
		if math.Abs(mu-ys[i]) > 1e-3 {
			t.Errorf("posterior mean at training point %v = %v, want %v", x, mu, ys[i])
		}
		if sigma > 1e-2 {
			t.Errorf("posterior std at training point %v = %v, want ≈0", x, sigma)
		}
	}
}

func TestPosteriorRevertsToPriorFarAway(t *testing.T) {
	k := mustMatern(t, 1, []float64{0.1})
	xs := [][]float64{{0.0}}
	ys := []float64{5.0}
	r, err := Fit(k, 1e-4, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	// Far from data the standardized posterior reverts to the prior:
	// mean → standardization mean (5.0 since there is one point), std →
	// prior std in raw units.
	mu, sigma := r.Predict([]float64{100})
	if math.Abs(mu-5.0) > 1e-6 {
		t.Errorf("far-field mean = %v, want 5", mu)
	}
	if sigma <= 0 {
		t.Errorf("far-field std = %v, want > 0", sigma)
	}
}

func TestPosteriorVarianceShrinksNearData(t *testing.T) {
	k := mustMatern(t, 1, []float64{0.3})
	xs := [][]float64{{0.5}}
	r, err := Fit(k, 0.01, xs, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	_, near := r.Predict([]float64{0.51})
	_, far := r.Predict([]float64{0.99})
	if near >= far {
		t.Errorf("variance near data (%v) should be below far (%v)", near, far)
	}
}

func TestFitHandlesDuplicateInputs(t *testing.T) {
	k := mustMatern(t, 1, []float64{0.3})
	xs := [][]float64{{0.5}, {0.5}, {0.5}}
	ys := []float64{1, 1.1, 0.9}
	r, err := Fit(k, 1e-8, xs, ys)
	if err != nil {
		t.Fatalf("duplicate inputs should be handled by jitter: %v", err)
	}
	mu, _ := r.Predict([]float64{0.5})
	if math.Abs(mu-1.0) > 0.2 {
		t.Errorf("posterior at duplicated point = %v, want ≈1.0", mu)
	}
}

func TestFitHandlesConstantTargets(t *testing.T) {
	k := mustMatern(t, 1, []float64{0.3})
	xs := [][]float64{{0.1}, {0.5}, {0.9}}
	ys := []float64{2, 2, 2}
	r, err := Fit(k, 0.01, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	mu, _ := r.Predict([]float64{0.5})
	if math.Abs(mu-2) > 1e-6 {
		t.Errorf("constant-target posterior = %v, want 2", mu)
	}
}

func TestLogMarginalLikelihoodPrefersTrueLengthscale(t *testing.T) {
	// Data generated from a smooth function: a reasonable lengthscale must
	// beat a wildly small one.
	rng := rand.New(rand.NewSource(11))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 25; i++ {
		x := rng.Float64()
		xs = append(xs, []float64{x})
		ys = append(ys, math.Sin(3*x)+0.01*rng.NormFloat64())
	}
	good, err := Fit(mustMatern(t, 1, []float64{0.5}), 0.05, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := Fit(mustMatern(t, 1, []float64{0.001}), 0.05, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if good.LogMarginalLikelihood() <= bad.LogMarginalLikelihood() {
		t.Errorf("LML(ℓ=0.5)=%v should exceed LML(ℓ=0.001)=%v",
			good.LogMarginalLikelihood(), bad.LogMarginalLikelihood())
	}
}

func TestConditionAddsObservation(t *testing.T) {
	k := mustMatern(t, 1, []float64{0.3})
	r, err := Fit(k, 1e-6, [][]float64{{0.2}}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := r.Condition([]float64{0.8}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r2.N() != 2 {
		t.Fatalf("N = %d, want 2", r2.N())
	}
	mu, _ := r2.Predict([]float64{0.8})
	if math.Abs(mu-3) > 1e-2 {
		t.Errorf("conditioned posterior at new point = %v, want 3", mu)
	}
	// Original must be untouched.
	if r.N() != 1 {
		t.Error("Condition mutated the receiver")
	}
}

func TestFitHyperRecoversSmoothFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var xs [][]float64
	var ys []float64
	f := func(x, y float64) float64 { return math.Sin(4*x) + y*y }
	for i := 0; i < 30; i++ {
		x, y := rng.Float64(), rng.Float64()
		xs = append(xs, []float64{x, y})
		ys = append(ys, f(x, y)+0.01*rng.NormFloat64())
	}
	r, err := FitHyper(xs, ys, HyperOptions{Dim: 2, Seed: 1, Restarts: 4, Iters: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Held-out accuracy.
	var sumErr float64
	for i := 0; i < 50; i++ {
		x, y := rng.Float64(), rng.Float64()
		mu, _ := r.Predict([]float64{x, y})
		sumErr += math.Abs(mu - f(x, y))
	}
	if avg := sumErr / 50; avg > 0.15 {
		t.Errorf("held-out mean absolute error %v too high", avg)
	}
}

func TestFitHyperValidation(t *testing.T) {
	if _, err := FitHyper(nil, nil, HyperOptions{Dim: 1}); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := FitHyper([][]float64{{1}}, []float64{1}, HyperOptions{}); err == nil {
		t.Error("zero Dim accepted")
	}
}

func TestFitHyperDeterministicBySeed(t *testing.T) {
	xs := [][]float64{{0.1}, {0.3}, {0.6}, {0.9}}
	ys := []float64{1, 2, 1.5, 3}
	a, err := FitHyper(xs, ys, HyperOptions{Dim: 1, Seed: 7, Restarts: 3, Iters: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitHyper(xs, ys, HyperOptions{Dim: 1, Seed: 7, Restarts: 3, Iters: 5})
	if err != nil {
		t.Fatal(err)
	}
	muA, sA := a.Predict([]float64{0.5})
	muB, sB := b.Predict([]float64{0.5})
	if muA != muB || sA != sB {
		t.Errorf("same seed produced different models: (%v,%v) vs (%v,%v)", muA, sA, muB, sB)
	}
}

package gp

import (
	"math"
	"math/rand"
	"testing"
)

// pairCacheSet draws n training points in [0,1]^3 whose last two repeat
// earlier inputs, so a small-noise probe can reach Fit's jitter ladder.
func pairCacheSet(rng *rand.Rand, n int) ([][]float64, []float64) {
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		if i >= n-2 {
			xs[i] = xs[i-3]
		} else {
			xs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		}
		ys[i] = math.Sin(4*xs[i][0]) + xs[i][1]*xs[i][2] + 0.05*rng.NormFloat64()
	}
	return xs, ys
}

// pairCacheProbe is one likelihood probe: variance, lengthscales, noise.
type pairCacheProbe struct {
	v     float64
	ls    []float64
	noise float64
}

// pairCacheProbes alternates lengthscale, variance and noise changes the way
// a coordinate descent does, so the probes hit cached slots and miss into
// empty ones; then 2·dim+2 = 8 fresh lengthscale vectors (at dim 3) fill
// the cache, evicting the least recently used slots, and the probes return
// to an evicted vector and to a cached one.
func pairCacheProbes() []pairCacheProbe {
	a := []float64{0.5, 0.5, 0.5}
	b := []float64{0.5, 0.2, 0.5}
	c := []float64{1.7, 0.2, 0.5}
	probes := []pairCacheProbe{
		{1, a, 0.05},     // miss
		{2.5, a, 0.05},   // variance: hit
		{2.5, a, 0.2},    // noise: hit
		{2.5, b, 0.2},    // lengthscale: miss
		{0.7, b, 0.2},    // hit
		{0.7, a, 0.01},   // hit on the older slot
		{0.7, c, 0.01},   // miss
		{0.7, b, 1e-4},   // hit
		{1.3, c, 1e-4},   // hit
		{1.3, c, 1e-5},   // hit, tiny noise over duplicated inputs
		{0.4, b, 0.05},   // hit
		{0.4, a, 0.05},   // hit
		{0.4, a, 0.0001}, // hit
	}
	// Eight fresh vectors: the first five take the empty slots, the last
	// three evict c, b and a in that order.
	var fresh []float64
	for i := 0; i < 8; i++ {
		fresh = []float64{0.3 + 0.1*float64(i), 0.4, 0.6}
		probes = append(probes, pairCacheProbe{0.9, fresh, 0.05})
	}
	return append(probes,
		pairCacheProbe{0.9, b, 0.05},    // miss: b was evicted
		pairCacheProbe{1.1, fresh, 0.1}, // hit: the last fresh vector
	)
}

// TestFitLLPairCacheMatchesFit drives one workspace through the probe
// sequence on one training set, then again on a second set of the same size
// after a reset; every fitLL must equal LogMarginalLikelihood of a fresh Fit
// bit for bit. Without the reset's invalidation the second set would reuse
// the first set's pair terms and fail.
func TestFitLLPairCacheMatchesFit(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n, dim = 36, 3
	ws := &fitWS{}
	for set := 0; set < 2; set++ {
		xs, ys := pairCacheSet(rng, n)
		ws.reset(n, dim, dim+2)
		for i, p := range pairCacheProbes() {
			ws.mat.Variance = p.v
			copy(ws.mat.Lengthscales, p.ls)
			got := fitLL(&ws.mat, p.noise, xs, ys, ws)
			r, err := Fit(mustMatern(t, p.v, p.ls), p.noise, xs, ys)
			if err != nil {
				t.Fatal(err)
			}
			if want := r.LogMarginalLikelihood(); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("set %d probe %d (%+v): fitLL = %v, Fit's log marginal likelihood = %v", set, i, p, got, want)
			}
		}
	}
}

// TestFitLLWarmWorkspaceZeroAlloc pins the likelihood probe at zero
// allocations once the workspace is warm, for pair-term misses and hits
// alike.
func TestFitLLWarmWorkspaceZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const n, dim = 40, 3
	xs, ys := pairCacheSet(rng, n)
	ws := &fitWS{}
	ws.reset(n, dim, dim+2)
	probes := pairCacheProbes()
	probe := func(p pairCacheProbe) {
		ws.mat.Variance = p.v
		copy(ws.mat.Lengthscales, p.ls)
		if ll := fitLL(&ws.mat, p.noise, xs, ys, ws); math.IsInf(ll, -1) {
			t.Fatalf("probe %+v: no positive-definite factorization", p)
		}
	}
	for _, p := range probes {
		probe(p) // size every pair slot
	}
	i := 0
	allocs := testing.AllocsPerRun(len(probes), func() {
		probe(probes[i%len(probes)])
		i++
	})
	if allocs != 0 {
		t.Errorf("fitLL on a warm workspace allocated %v times per probe, want 0", allocs)
	}
}

// plainSearch is FitHyper's hyperparameter search written out as a
// test-side oracle: the same start points drawn from the seed, the same
// coordinate descent with its accept and halving rules, and every ±step
// probe scored by Fit and LogMarginalLikelihood, with no workspace, no
// pair-term cache and no skipped probe. It returns the refit of the winning
// restart's parameters.
func plainSearch(t *testing.T, xs [][]float64, ys []float64, opts HyperOptions) *Regressor {
	t.Helper()
	nparams := opts.Dim + 2
	lower := make([]float64, nparams)
	upper := make([]float64, nparams)
	lower[0], upper[0] = math.Log(1e-2), math.Log(1e2)
	for i := 1; i <= opts.Dim; i++ {
		lower[i], upper[i] = math.Log(0.03), math.Log(10)
	}
	lower[nparams-1], upper[nparams-1] = math.Log(1e-4), math.Log(0.5)
	model := func(p []float64) (*Matern52, float64) {
		ls := make([]float64, opts.Dim)
		for i := range ls {
			ls[i] = math.Exp(p[1+i])
		}
		return &Matern52{Variance: math.Exp(p[0]), Lengthscales: ls}, math.Exp(p[nparams-1])
	}
	logLik := func(p []float64) float64 {
		k, noise := model(p)
		r, err := Fit(k, noise, xs, ys)
		if err != nil {
			return math.Inf(-1)
		}
		return r.LogMarginalLikelihood()
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	starts := make([][]float64, opts.Restarts)
	for restart := range starts {
		p := make([]float64, nparams)
		if restart == 0 {
			for i := 1; i <= opts.Dim; i++ {
				p[i] = math.Log(0.5)
			}
			p[nparams-1] = math.Log(0.05)
		} else {
			for i := range p {
				p[i] = lower[i] + rng.Float64()*(upper[i]-lower[i])
			}
		}
		starts[restart] = p
	}

	var bestP []float64
	bestLL := math.Inf(-1)
	for _, p := range starts {
		ll := logLik(p)
		step := 1.0
		for it := 0; it < opts.Iters; it++ {
			improved := false
			for i := range p {
				for _, dir := range []float64{1, -1} {
					cand := append([]float64(nil), p...)
					cand[i] = clamp(cand[i]+dir*step, lower[i], upper[i])
					if cand[i] == p[i] {
						continue
					}
					if ll2 := logLik(cand); ll2 > ll {
						p, ll, improved = cand, ll2, true
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
		if !math.IsInf(ll, -1) && ll > bestLL {
			bestP, bestLL = p, ll
		}
	}
	if bestP == nil {
		t.Fatal("oracle search found no valid model")
	}
	k, noise := model(bestP)
	r, err := Fit(k, noise, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// agxGridSet draws n training inputs, with repeats, from a 25×14×6 grid of
// levels in [0,1]³ shaped like the AGX configuration space, with log-scale
// targets of multiplicative structure like the pace controller's energy.
func agxGridSet(rng *rand.Rand, n int) ([][]float64, []float64) {
	levels := [3]int{25, 14, 6}
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x := make([]float64, 3)
		for d, l := range levels {
			x[d] = float64(rng.Intn(l)) / float64(l-1)
		}
		xs[i] = x
		ys[i] = 0.8*x[0] - 0.3*x[1] + 0.2*x[2]*x[2] + 0.5*math.Sin(5*x[0]*x[1]) + 0.03*rng.NormFloat64()
	}
	return xs, ys
}

// TestFitHyperMatchesPlainSearch holds FitHyper to plainSearch: on AGX-shaped
// grid inputs at n = 10, 25, 40 and 70, seeds 0–3, the fitted model must
// give the oracle's Predict bits at every training input and at random
// points. Comparing against an oracle
// rather than a pinned hash keeps the test independent of the host, since
// math.Exp takes an FMA path on amd64 CPUs that have one.
func TestFitHyperMatchesPlainSearch(t *testing.T) {
	type fitCase struct {
		n    int
		seed int64
	}
	var cases []fitCase
	for _, n := range []int{10, 25, 40, 70} {
		for seed := int64(0); seed < 4; seed++ {
			cases = append(cases, fitCase{n, seed})
		}
	}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(100*int64(c.n) + c.seed))
		xs, ys := agxGridSet(rng, c.n)
		opts := HyperOptions{Dim: 3, Restarts: 4, Iters: 12, Seed: c.seed}
		got, err := FitHyper(xs, ys, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := plainSearch(t, xs, ys, opts)
		probes := append(randomCandidates(rng, 20, 3), xs...)
		for _, x := range probes {
			gotMu, gotSig := got.Predict(x)
			wantMu, wantSig := want.Predict(x)
			if math.Float64bits(gotMu) != math.Float64bits(wantMu) || math.Float64bits(gotSig) != math.Float64bits(wantSig) {
				t.Fatalf("%+v: FitHyper predicts (%v, %v) at %v, the plain search (%v, %v)", c, gotMu, gotSig, x, wantMu, wantSig)
			}
		}
	}
}

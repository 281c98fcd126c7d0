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
// a coordinate descent does, so the probes hit both cache slots, miss into
// each, and evict the least recently used one.
func pairCacheProbes() []pairCacheProbe {
	a := []float64{0.5, 0.5, 0.5}
	b := []float64{0.5, 0.2, 0.5}
	c := []float64{1.7, 0.2, 0.5}
	return []pairCacheProbe{
		{1, a, 0.05},     // miss: slot 0
		{2.5, a, 0.05},   // variance: hit
		{2.5, a, 0.2},    // noise: hit
		{2.5, b, 0.2},    // lengthscale: miss, slot 1
		{0.7, b, 0.2},    // hit
		{0.7, a, 0.01},   // hit on the older slot
		{0.7, c, 0.01},   // miss: evicts b
		{0.7, b, 1e-4},   // miss: evicts a
		{1.3, c, 1e-4},   // hit
		{1.3, c, 1e-5},   // hit, tiny noise over duplicated inputs
		{0.4, b, 0.05},   // hit
		{0.4, a, 0.05},   // miss: evicts c
		{0.4, a, 0.0001}, // hit
	}
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
		probe(p) // size both pair slots
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

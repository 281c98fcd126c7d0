package gp

import (
	"math/rand"
	"testing"
)

// TestPredictBatchIntoZeroAlloc pins the fused batch-predict path at zero
// steady-state allocations: with caller-provided outputs and scratch, scoring
// a candidate batch must never touch the heap.
func TestPredictBatchIntoZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, batch = 40, 64
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		ys[i] = rng.NormFloat64()
	}
	k := mustMatern(t, 1, []float64{0.3, 0.3, 0.3})
	r, err := Fit(k, 0.05, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([][]float64, batch)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	mus := make([]float64, batch)
	sigmas := make([]float64, batch)
	scratch := make([]float64, 2*n)

	allocs := testing.AllocsPerRun(50, func() {
		r.PredictBatchInto(pts, mus, sigmas, scratch)
	})
	if allocs != 0 {
		t.Errorf("PredictBatchInto allocated %v times per run, want 0", allocs)
	}
}

// TestFantasyChainSteadyStateAllocs pins the conditioning chain's allocation
// behaviour: after the chain is built, each Condition step performs only the
// bookkeeping append of the regressor view — no factor copies, no fresh
// slabs.
func TestFantasyChainSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector's sync.Pool drops Puts; alloc counts are meaningless")
	}
	rng := rand.New(rand.NewSource(12))
	const n = 30
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64()}
		ys[i] = rng.NormFloat64()
	}
	k := mustMatern(t, 1, []float64{0.4, 0.4})
	base, err := Fit(k, 0.05, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.5, 0.5}
	allocs := testing.AllocsPerRun(50, func() {
		fan := base.NewFantasy(1)
		if _, err := fan.Condition(x, 1.0); err != nil {
			t.Fatal(err)
		}
		fan.Release()
	})
	// One chain build + one step: the Fantasy struct, the xs header and the
	// returned Regressor view (struct + Matrix header) are the only heap
	// objects; all float slabs come from the pool (occasional per-P pool
	// misses add a couple more). n=30 would cost ~1000 words of factor
	// copying per run if the slabs were fresh, so a small constant pins the
	// pooled path.
	if allocs > 8 {
		t.Errorf("fantasy chain build+step allocated %v times per run, want ≤ 8", allocs)
	}
}

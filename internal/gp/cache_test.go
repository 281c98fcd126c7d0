package gp

import (
	"math"
	"math/rand"
	"testing"

	"bofl/internal/parallel"
)

func trainedRegressor(t *testing.T, n, d int, seed int64) (*Regressor, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x := make([]float64, d)
		for j := range x {
			x[j] = rng.Float64()
		}
		xs[i] = x
		ys[i] = math.Sin(3*x[0]) + 0.5*x[d-1] + 0.05*rng.NormFloat64()
	}
	ls := make([]float64, d)
	for i := range ls {
		ls[i] = 0.4
	}
	k, err := NewMatern52(1.2, ls)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Fit(k, 0.05, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	return r, rng
}

func randomCandidates(rng *rand.Rand, c, d int) [][]float64 {
	out := make([][]float64, c)
	for i := range out {
		x := make([]float64, d)
		for j := range x {
			x[j] = rng.Float64()
		}
		out[i] = x
	}
	return out
}

// cacheSizes are the candidate counts the cache tests build: 1–9 and 203, at
// pool widths 1, 2 and 4, so that every chunk's one-row tail after the
// four-row kernels (every remainder modulo 4) runs.
var (
	cacheSizes  = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 203}
	cacheWidths = []int{1, 2, 4}
)

// TestKStarCacheMatchesPredict holds both constructors, NewKStarCache and
// the pooled NewCacheChain (at a spare stride), to Regressor.Predict bit for
// bit.
func TestKStarCacheMatchesPredict(t *testing.T) {
	r, rng := trainedRegressor(t, 25, 3, 1)
	for _, w := range cacheWidths {
		prev := parallel.SetWorkers(w)
		for _, nc := range cacheSizes {
			cands := randomCandidates(rng, nc, 3)
			chain := r.NewCacheChain(cands, 3)
			for name, cache := range map[string]*KStarCache{"NewKStarCache": r.NewKStarCache(cands), "NewCacheChain": chain.Cur()} {
				for i, x := range cands {
					wantMu, wantSig := r.Predict(x)
					gotMu, gotSig := cache.Predict(i)
					if gotMu != wantMu || gotSig != wantSig {
						parallel.SetWorkers(prev)
						t.Fatalf("%s, width %d, %d candidates, candidate %d: cached (%v, %v) != fresh (%v, %v)",
							name, w, nc, i, gotMu, gotSig, wantMu, wantSig)
					}
				}
			}
			chain.Release()
		}
		parallel.SetWorkers(prev)
	}
}

// TestCacheChainMatchesNestedExtend pins CacheChain's documented bit
// identity: a chain built straight into pooled slabs with room for 5
// Kriging-believer fantasies gives, before the first and after every
// extension, for every candidate, the same Predict bits as the oracle,
// NewKStarCache followed by nested KStarCache.Extend calls, at every
// candidate count and pool width of cacheSizes and cacheWidths. Each chain
// is released before the next is built, so later ones reuse pooled slabs
// whose stale contents and larger capacity must not leak into the values.
func TestCacheChainMatchesNestedExtend(t *testing.T) {
	const steps = 5
	r, rng := trainedRegressor(t, 20, 3, 6)
	for _, w := range cacheWidths {
		prev := parallel.SetWorkers(w)
		for _, nc := range cacheSizes {
			cands := randomCandidates(rng, nc, 3)
			nested := r.NewKStarCache(cands)
			chain := r.NewCacheChain(cands, steps)
			view := chain.Cur()
			cur := r
			for step := 0; ; step++ {
				for i := range cands {
					wantMu, wantSig := nested.Predict(i)
					gotMu, gotSig := view.Predict(i)
					if math.Float64bits(gotMu) != math.Float64bits(wantMu) || math.Float64bits(gotSig) != math.Float64bits(wantSig) {
						parallel.SetWorkers(prev)
						t.Fatalf("width %d, %d candidates, %d extensions, candidate %d: chain (%v, %v) != nested Extend (%v, %v)",
							w, nc, step, i, gotMu, gotSig, wantMu, wantSig)
					}
				}
				if step == steps {
					break
				}
				fx := randomCandidates(rng, 1, 3)[0]
				fy, _ := cur.Predict(fx)
				cond, err := cur.ConditionFast(fx, fy)
				if err != nil {
					t.Fatal(err)
				}
				if nested, err = nested.Extend(cond, fx); err != nil {
					t.Fatal(err)
				}
				if view, err = chain.Extend(cond, fx); err != nil {
					t.Fatal(err)
				}
				cur = cond
			}
			over, err := cur.ConditionFast(cands[0], 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := chain.Extend(over, cands[0]); err == nil {
				t.Fatal("chain accepted an extension past its capacity")
			}
			chain.Release()
		}
		parallel.SetWorkers(prev)
	}
}

// TestKStarCacheExtendMatchesConditionFast is the satellite equivalence test:
// after a chain of Kriging-believer fantasies, predictions through the
// extended cache must match fresh ConditionFast regressor predictions to
// 1e-9. They agree to rounding, not bit for bit: the extended cache
// accumulates ‖v‖² one column at a time, which regroups the sum (see
// KStarCache's doc).
func TestKStarCacheExtendMatchesConditionFast(t *testing.T) {
	r, rng := trainedRegressor(t, 20, 3, 2)
	cands := randomCandidates(rng, 150, 3)
	cache := r.NewKStarCache(cands)

	cur := r
	for step := 0; step < 5; step++ {
		// Fantasize an observation at one of the candidates, as the
		// Kriging-believer batch rule does.
		fx := cands[17+step*11]
		fy, _ := cur.Predict(fx)
		cond, err := cur.ConditionFast(fx, fy)
		if err != nil {
			t.Fatal(err)
		}
		ext, err := cache.Extend(cond, fx)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range cands {
			wantMu, wantSig := cond.Predict(x)
			gotMu, gotSig := ext.Predict(i)
			if math.Abs(gotMu-wantMu) > 1e-9 || math.Abs(gotSig-wantSig) > 1e-9 {
				t.Fatalf("step %d candidate %d: cached (%v, %v) vs fresh (%v, %v)", step, i, gotMu, gotSig, wantMu, wantSig)
			}
		}
		cur, cache = cond, ext
	}
}

func TestKStarCacheExtendRejectsWrongRegressor(t *testing.T) {
	r, rng := trainedRegressor(t, 15, 2, 3)
	cands := randomCandidates(rng, 10, 2)
	cache := r.NewKStarCache(cands)
	if _, err := cache.Extend(r, cands[0]); err == nil {
		t.Fatal("Extend accepted a regressor with an unchanged training set")
	}
}

func TestPredictIntoMatchesPredict(t *testing.T) {
	r, rng := trainedRegressor(t, 30, 3, 4)
	scratch := make([]float64, 2*r.N())
	for i := 0; i < 50; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		wantMu, wantSig := r.Predict(x)
		gotMu, gotSig := r.PredictInto(x, scratch[:r.N()], scratch[r.N():])
		if gotMu != wantMu || gotSig != wantSig {
			t.Fatalf("PredictInto (%v, %v) != Predict (%v, %v)", gotMu, gotSig, wantMu, wantSig)
		}
	}
}

func TestPredictBatchMatchesPredict(t *testing.T) {
	r, rng := trainedRegressor(t, 30, 3, 5)
	xs := randomCandidates(rng, 40, 3)
	mus, sigs := r.PredictBatch(xs)
	for i, x := range xs {
		mu, sig := r.Predict(x)
		if mus[i] != mu || sigs[i] != sig {
			t.Fatalf("batch[%d] (%v, %v) != scalar (%v, %v)", i, mus[i], sigs[i], mu, sig)
		}
	}
}

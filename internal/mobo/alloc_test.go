package mobo

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"bofl/internal/device"
	"bofl/internal/gp"
	"bofl/internal/pareto"
)

// scanFixture builds the state SuggestBatch hands to the fused scan: fitted
// energy/latency regressors over a candidate pool, their k* caches, a strip
// decomposition of the observed front, and the per-candidate result slots.
type scanFixture struct {
	strips         *EHVIStrips
	cacheE, cacheT *gp.KStarCache
	live           []bool
	vals           []float64
	gs             []Gaussian2
}

func newScanFixture(t testing.TB, nc int) *scanFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	candidates := make([][]float64, nc)
	for i := range candidates {
		candidates[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	const nobs = 12
	xs := make([][]float64, nobs)
	logE := make([]float64, nobs)
	logT := make([]float64, nobs)
	var front []pareto.Point
	for i := range xs {
		x := candidates[rng.Intn(nc)]
		xs[i] = x
		e := math.Exp(0.6*x[0] - 0.2*x[1])
		l := math.Exp(-0.4*x[0] + 0.7*x[2])
		logE[i] = math.Log(e)
		logT[i] = math.Log(l)
		front = append(front, pareto.Point{X: e, Y: l})
	}
	k1, err := gp.NewMatern52(1, []float64{0.4, 0.4, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := gp.NewMatern52(1, []float64{0.4, 0.4, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	rE, err := gp.Fit(k1, 0.05, xs, logE)
	if err != nil {
		t.Fatal(err)
	}
	rT, err := gp.Fit(k2, 0.05, xs, logT)
	if err != nil {
		t.Fatal(err)
	}
	ref := pareto.Point{X: 10, Y: 10}
	fr := pareto.Front(front)
	return &scanFixture{
		strips: NewEHVIStrips(fr, ref),
		cacheE: rE.NewKStarCache(candidates),
		cacheT: rT.NewKStarCache(candidates),
		live:   make([]bool, nc),
		vals:   make([]float64, nc),
		gs:     make([]Gaussian2, nc),
	}
}

// TestScanEHVIZeroAlloc pins the fused float64 candidate scan at zero
// steady-state allocations: cached posterior lookups, lognormal moment
// matching and the strip evaluation must run entirely in the caller's
// per-index slots.
func TestScanEHVIZeroAlloc(t *testing.T) {
	const nc = 128
	fx := newScanFixture(t, nc)
	for i := range fx.live {
		fx.live[i] = true
	}
	allocs := testing.AllocsPerRun(50, func() {
		scanEHVI(fx.strips, fx.cacheE, fx.cacheT, fx.live, fx.vals, fx.gs, 0, nc)
	})
	if allocs != 0 {
		t.Errorf("scanEHVI allocated %v times per run, want 0", allocs)
	}
	// The scan must have produced at least one finite, non-negative score.
	any := false
	for _, v := range fx.vals {
		if math.IsNaN(v) || v < 0 {
			t.Fatalf("invalid EHVI value %v", v)
		}
		if v > 0 {
			any = true
		}
	}
	if !any {
		t.Error("scan produced no positive EHVI — fixture degenerate")
	}
}

// TestStrips32FillAndValueZeroAlloc pins the float32 pre-screen kernel: both
// the strip conversion and the per-candidate evaluation, with and without a
// pruning floor, are allocation-free once the scratch strips have warmed to
// the front size.
func TestStrips32FillAndValueZeroAlloc(t *testing.T) {
	fx := newScanFixture(t, 16)
	var s32 ehviStrips32
	s32.fill(fx.strips) // warm the append-reuse buffers
	allocs := testing.AllocsPerRun(50, func() {
		s32.fill(fx.strips)
		v := s32.value(0.1, 0.4, 0.2, 0.3, 0)
		_ = s32.value(0.1, 0.4, 0.2, 0.3, 0.5*v)
		_ = s32.value(0.1, 0.4, 0.2, 0.3, 2*v+1)
	})
	if allocs != 0 {
		t.Errorf("float32 pre-screen allocated %v times per run, want 0", allocs)
	}
}

// TestSuggestBatchAllocsUnderOneSlab pins where the k* caches live: after a
// warm Fit, a SuggestBatch that scans builds both surrogates' caches in
// pooled chain slabs, so it allocates fewer bytes than one candidate slab
// (C·n float64s), where caches built in fresh slabs cost four. The problem
// is the pace controller's first batch selection (AGX space, ViT, k = 10).
// Each call's bytes are read on their own and the least is pinned: a GC that
// empties the pool between two calls makes one call rebuild its slabs.
func TestSuggestBatchAllocsUnderOneSlab(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector's sync.Pool drops Puts; allocation counts are meaningless")
	}
	opt := deviceProblem(t, device.JetsonAGX(), device.ViT, 5)
	if err := opt.Fit(); err != nil {
		t.Fatal(err)
	}
	scan := func() uint64 {
		opt.batch = nil // drop the kept batch, so the call scans
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := opt.SuggestBatch(10); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	scan() // warm the pools
	least := scan()
	for i := 0; i < 4; i++ {
		least = min(least, scan())
	}
	slab := uint64(len(opt.candidates) * len(opt.obs) * 8)
	if least >= slab {
		t.Errorf("a scanning SuggestBatch allocated %d bytes, want < one candidate slab (%d bytes)", least, slab)
	}
	t.Logf("a scanning SuggestBatch allocated %d bytes; one candidate slab is %d", least, slab)
}

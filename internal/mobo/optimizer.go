package mobo

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"bofl/internal/gp"
	"bofl/internal/obs"
	"bofl/internal/parallel"
	"bofl/internal/pareto"
)

// Observation is one evaluated configuration: a normalized input point plus
// the two measured objectives (both minimized).
type Observation struct {
	// X is the candidate's normalized coordinates in [0,1]^d.
	X []float64
	// Index is the candidate's index in the optimizer's candidate set.
	Index int
	// Energy is the first objective (energy per minibatch, Joule).
	Energy float64
	// Latency is the second objective (latency per minibatch, seconds).
	Latency float64
}

// Options configures an Optimizer.
type Options struct {
	// Seed drives GP hyperparameter restarts. Deterministic per seed.
	Seed int64
	// Restarts / Iters are passed through to gp.FitHyper; zero values use
	// that package's defaults (kept small here because the MBO runs
	// between FL rounds and must finish in bounded time).
	Restarts int
	Iters    int
}

// Optimizer is a multi-objective Bayesian optimizer over a fixed, finite
// candidate set. It maintains observations, fits one GP surrogate per
// objective and suggests new candidates by maximizing EHVI, batching with the
// sequential-greedy Kriging-believer rule (§4.3 of the paper).
type Optimizer struct {
	dataset
	opts Options

	modelE *gp.Regressor
	modelT *gp.Regressor

	// batch is the last batch SuggestBatch scanned for and batchK the k it
	// was asked for; Observe and Fit drop it (nil).
	batch  []Suggestion
	batchK int

	sink obs.Sink
}

// SetSink installs a telemetry sink recording GP fit and EHVI scan spans plus
// the chosen candidate's acquisition value. Nil restores the no-op sink.
func (o *Optimizer) SetSink(s obs.Sink) { o.sink = obs.OrNop(s) }

// ErrNoObservations indicates that Fit or SuggestBatch was called before any
// observation was recorded.
var ErrNoObservations = errors.New("mobo: no observations recorded")

// NewOptimizer constructs an optimizer over the given candidate set. Each
// candidate must be a d-dimensional point, conventionally normalized to
// [0,1]^d. The slice is retained by the optimizer and must not be mutated.
func NewOptimizer(candidates [][]float64, opts Options) (*Optimizer, error) {
	d, err := newDataset(candidates)
	if err != nil {
		return nil, err
	}
	return &Optimizer{dataset: d, opts: opts, sink: obs.Nop}, nil
}

// Observe records evaluated configurations. Re-observing an index updates the
// dataset with the additional measurement (the GP's noise model averages
// repeated observations naturally). Invalidates any fitted surrogates and
// the last suggested batch. A batch with an out-of-range index or a
// wrong-dimension point is rejected whole: nothing is recorded.
func (o *Optimizer) Observe(obs ...Observation) error {
	if err := o.add(obs); err != nil {
		return err
	}
	o.modelE, o.modelT = nil, nil
	o.batch = nil
	return nil
}

// Observations returns a copy of all recorded observations.
func (o *Optimizer) Observations() []Observation {
	out := make([]Observation, len(o.obs))
	copy(out, o.obs)
	return out
}

// Reference returns the paper's hypervolume reference point: the
// component-wise worst observed performance.
func (o *Optimizer) Reference() (pareto.Point, error) {
	return pareto.ReferenceFrom(o.points())
}

// Hypervolume returns the hypervolume of the current observed front with
// respect to the current reference point.
func (o *Optimizer) Hypervolume() (float64, error) {
	ref, err := o.Reference()
	if err != nil {
		return 0, err
	}
	return pareto.Hypervolume(o.Front(), ref), nil
}

// Fit (re)fits the two GP surrogates on the recorded observations. It is
// called implicitly by SuggestBatch when models are stale; exposed so
// callers can schedule the expensive part explicitly (BoFL runs it in the
// configuration/reporting window between training rounds).
func (o *Optimizer) Fit() error {
	if len(o.obs) == 0 {
		return ErrNoObservations
	}
	defer o.sink.Span(obs.SpanGPFit)()
	xs := make([][]float64, len(o.obs))
	es := make([]float64, len(o.obs))
	ts := make([]float64, len(o.obs))
	for i, ob := range o.obs {
		xs[i] = ob.X
		// Model log-objectives: both energy and latency are positive
		// with multiplicative structure; logs stabilize the GP fit.
		es[i] = math.Log(math.Max(ob.Energy, 1e-12))
		ts[i] = math.Log(math.Max(ob.Latency, 1e-12))
	}
	hyper := gp.HyperOptions{
		Dim:      o.dim,
		Restarts: o.opts.Restarts,
		Iters:    o.opts.Iters,
		Seed:     o.opts.Seed,
	}
	hyperT := hyper
	hyperT.Seed = o.opts.Seed + 1
	// The two surrogates are independent; fit them side by side on the
	// worker pool (each fit additionally fans out its own restarts).
	var modelE, modelT *gp.Regressor
	err := parallel.Run(
		func() error {
			m, err := gp.FitHyper(xs, es, hyper)
			if err != nil {
				return fmt.Errorf("mobo: fit energy surrogate: %w", err)
			}
			modelE = m
			return nil
		},
		func() error {
			m, err := gp.FitHyper(xs, ts, hyperT)
			if err != nil {
				return fmt.Errorf("mobo: fit latency surrogate: %w", err)
			}
			modelT = m
			return nil
		},
	)
	if err != nil {
		return err
	}
	o.modelE, o.modelT = modelE, modelT
	o.batch = nil
	return nil
}

// predict returns the predictive distribution over the raw (non-log)
// objectives at x using the lognormal moments implied by the log-space GPs.
func predictRaw(modelE, modelT *gp.Regressor, x []float64) Gaussian2 {
	muE, sE := modelE.Predict(x)
	muT, sT := modelT.Predict(x)
	return lognormalMoments(muE, sE, muT, sT)
}

// lognormalMoments moment-matches the two log-space posteriors back to a
// Gaussian in raw space.
func lognormalMoments(muE, sE, muT, sT float64) Gaussian2 {
	mE := math.Exp(muE + sE*sE/2)
	vE := (math.Exp(sE*sE) - 1) * math.Exp(2*muE+sE*sE)
	mT := math.Exp(muT + sT*sT/2)
	vT := (math.Exp(sT*sT) - 1) * math.Exp(2*muT+sT*sT)
	return Gaussian2{MuX: mE, SigmaX: math.Sqrt(vE), MuY: mT, SigmaY: math.Sqrt(vT)}
}

// Suggestion is one candidate proposed by the optimizer.
type Suggestion struct {
	Index int       // index into the candidate set
	X     []float64 // normalized coordinates
	EHVI  float64   // acquisition value at selection time
}

// SuggestBatch proposes up to k unobserved candidates using sequential-greedy
// EHVI maximization with Kriging-believer fantasies: after each pick the
// surrogates are conditioned on the predicted mean at the picked point, so
// later picks spread out instead of clustering (§4.3, batch selection
// strategy). Fewer than k suggestions are returned when the unobserved pool
// or the acquisition signal is exhausted.
//
// The candidate scan fans out over the shared worker pool using the
// per-candidate cross-covariance caches (kernel work is done once per call,
// then extended by one kernel evaluation per fantasy), and the reduction is
// serial with an explicit lowest-index-wins rule on equal EHVI — parallel
// and serial scans return identical suggestions. Each pick scores the
// candidates with the float32 pre-screen and re-scores in float64 only the
// slice that can win (ehvi32.go), so the suggestions are bit-identical to an
// all-float64 scan.
//
// A call with the k of the last call that scanned, and no Observe or Fit
// since, returns a copy of that batch without scanning: the scan reads only
// the observations and the fitted surrogates, so it would pick the same
// batch. Such a call records no EHVI scan span.
func (o *Optimizer) SuggestBatch(k int) ([]Suggestion, error) {
	if o.batch != nil && k == o.batchK {
		return slices.Clone(o.batch), nil
	}
	out, err := o.suggestBatch(k, false)
	if err != nil || k <= 0 {
		return out, err
	}
	o.batch, o.batchK = slices.Clone(out), k
	return out, nil
}

// suggestBatch is SuggestBatch; exact scores every live candidate in
// float64 instead of pre-screening, the reference the tests hold the
// pre-screen to.
func (o *Optimizer) suggestBatch(k int, exact bool) ([]Suggestion, error) {
	if k <= 0 {
		return nil, nil
	}
	if len(o.obs) == 0 {
		return nil, ErrNoObservations
	}
	if o.modelE == nil || o.modelT == nil {
		if err := o.Fit(); err != nil {
			return nil, err
		}
	}
	defer o.sink.Span(obs.SpanEHVIScan)()
	ref, err := o.Reference()
	if err != nil {
		return nil, err
	}
	front := o.Front()
	out := make([]Suggestion, 0, k)

	sc := getScanScratch(len(o.candidates))
	defer putScanScratch(sc)
	vals, gs, live := sc.vals, sc.gs, sc.live
	for i := range o.candidates {
		live[i] = !o.observed[i]
	}

	// Kriging-believer chains: the surrogate factors and the candidate
	// caches grow in place inside pooled slabs with room for the k−1
	// fantasies of a batch — the caches are built straight into them, and
	// nothing is copied per fantasy.
	fanE := o.modelE.NewFantasy(k - 1)
	defer fanE.Release()
	fanT := o.modelT.NewFantasy(k - 1)
	defer fanT.Release()
	chainE := o.modelE.NewCacheChain(o.candidates, k-1)
	defer chainE.Release()
	chainT := o.modelT.NewCacheChain(o.candidates, k-1)
	defer chainT.Release()
	cacheE, cacheT := chainE.Cur(), chainT.Cur()

	for pick := 0; pick < k; pick++ {
		// The strip decomposition depends only on the working front, which
		// is fixed for the duration of one pick: build it once and score
		// every candidate in O(n) instead of re-sorting per candidate.
		strips := NewEHVIStrips(front, ref)
		// Concurrent scan: every live candidate's posterior and EHVI land
		// in per-index slots; no cross-worker state. Either scan leaves
		// exact float64 scores in vals for every candidate that can win,
		// so the serial reduction below is unaffected.
		if exact {
			parallel.ForChunk(len(o.candidates), func(lo, hi int) {
				scanEHVI(strips, cacheE, cacheT, live, vals, gs, lo, hi)
			})
		} else {
			prescreenScan(sc, strips, cacheE, cacheT)
		}
		// Serial reduction, lowest candidate index wins on equal EHVI
		// (including the all-zero-EHVI regime near pool exhaustion).
		bestIdx, bestVal := -1, 0.0
		for i := range o.candidates {
			if !live[i] {
				continue
			}
			if bestIdx == -1 || vals[i] > bestVal {
				bestIdx, bestVal = i, vals[i]
			}
		}
		if bestIdx == -1 {
			break // pool exhausted
		}
		bestG := gs[bestIdx]
		out = append(out, Suggestion{Index: bestIdx, X: o.candidates[bestIdx], EHVI: bestVal})
		live[bestIdx] = false
		if pick == 0 {
			o.sink.SetGauge(obs.MetricAcqBest, bestVal)
		}

		if pick+1 == k {
			break
		}
		// Kriging believer: fantasize the predicted mean observation
		// and update both the surrogates and the working front. The
		// in-place rank-one Cholesky extension keeps batch selection
		// cheap, and the caches follow it with one kernel evaluation per
		// candidate.
		x := o.candidates[bestIdx]
		muE, _ := cacheE.Predict(bestIdx)
		muT, _ := cacheT.Predict(bestIdx)
		condE, err := fanE.Condition(x, muE)
		if err != nil {
			return nil, fmt.Errorf("mobo: believer conditioning: %w", err)
		}
		condT, err := fanT.Condition(x, muT)
		if err != nil {
			return nil, fmt.Errorf("mobo: believer conditioning: %w", err)
		}
		if cacheE, err = chainE.Extend(condE, x); err != nil {
			return nil, fmt.Errorf("mobo: believer cache extension: %w", err)
		}
		if cacheT, err = chainT.Extend(condT, x); err != nil {
			return nil, fmt.Errorf("mobo: believer cache extension: %w", err)
		}
		front = pareto.Front(append(front, pareto.Point{X: bestG.MuX, Y: bestG.MuY}))
	}
	return out, nil
}

// scanEHVI is the fused float64 candidate scan over [lo, hi): cached
// posterior dots, lognormal moment matching and the strip evaluation run
// back to back with no intermediate storage beyond the per-index result
// slots. Steady-state allocation-free (pinned by the allocation-regression
// suite); safe for concurrent use on disjoint ranges.
func scanEHVI(strips *EHVIStrips, cacheE, cacheT *gp.KStarCache, live []bool, vals []float64, gs []Gaussian2, lo, hi int) {
	for i := lo; i < hi; i++ {
		if !live[i] {
			continue
		}
		muE, sE := cacheE.Predict(i)
		muT, sT := cacheT.Predict(i)
		g := lognormalMoments(muE, sE, muT, sT)
		gs[i] = g
		vals[i] = strips.Value(g)
	}
}

// prescreenMin is the smallest float32 acquisition maximum the pre-screen
// trusts. It is an absolute floor, not a scale guard: the helpers' relative
// error bounds keep the factor-of-two margin sound at any objective scale,
// but they stop holding where scores sink towards float32's subnormal range
// and exp32 flushes to zero. Below the floor the batch is deep into
// acquisition exhaustion (or the objectives' units make every EHVI tiny), so
// the scan scores every candidate in float64.
const prescreenMin = 1e-12

// prescreenFrac is the re-scoring slice's cut: a candidate is re-scored in
// float64 when its float32 score is at least this fraction of the float32
// maximum.
const prescreenFrac float32 = 0.5

// prescreenScan is the float32-pre-screened candidate scan: a cheap
// approximate pass over all live candidates, then exact float64 re-scoring
// of the slice whose approximate score is within half of the approximate
// maximum. Candidates outside the slice get a sentinel below every exact
// score, so the caller's reduction sees exact values wherever the winner can
// be. See ehvi32.go for why the winner is always inside the slice.
//
// Each chunk of the approximate pass keeps the running maximum of the scores
// it has produced and passes pruneFrac of it to the strip loop as a floor, so
// a candidate that cannot reach the slice stops early with a score below the
// cut. Which candidates stop depends on the chunking, but the slice and the
// maximum do not (ehvi32.go's early exit).
func prescreenScan(sc *scanScratch, strips *EHVIStrips, cacheE, cacheT *gp.KStarCache) {
	vals, gs, live, vals32 := sc.vals, sc.gs, sc.live, sc.vals32
	sc.s32.fill(strips)
	s32 := &sc.s32
	parallel.ForChunk(len(vals), func(lo, hi int) {
		var top float32 // running maximum of this chunk's scores
		for i := lo; i < hi; i++ {
			if !live[i] {
				continue
			}
			muE, sE := cacheE.Predict(i)
			muT, sT := cacheT.Predict(i)
			mx, sx, my, sy := lognormalMoments32(float32(muE), float32(sE), float32(muT), float32(sT))
			v := s32.value(mx, sx, my, sy, pruneFrac*top)
			vals32[i] = v
			if v > top {
				top = v
			}
		}
	})
	best32 := float32(0)
	for i, v := range vals32 {
		if live[i] && v > best32 {
			best32 = v
		}
	}
	if best32 < prescreenMin {
		// Degenerate regime: approximate scores are all ~0, run exact.
		parallel.ForChunk(len(vals), func(lo, hi int) {
			scanEHVI(strips, cacheE, cacheT, live, vals, gs, lo, hi)
		})
		return
	}
	thresh := prescreenFrac * best32
	parallel.ForChunk(len(vals), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if !live[i] {
				continue
			}
			if vals32[i] < thresh {
				vals[i] = -1 // below every exact score; cannot win
				continue
			}
			muE, sE := cacheE.Predict(i)
			muT, sT := cacheT.Predict(i)
			g := lognormalMoments(muE, sE, muT, sT)
			gs[i] = g
			vals[i] = strips.Value(g)
		}
	})
}

// PosteriorAt exposes the raw-space predictive distribution at a candidate
// index, mainly for diagnostics and tests.
func (o *Optimizer) PosteriorAt(index int) (Gaussian2, error) {
	if index < 0 || index >= len(o.candidates) {
		return Gaussian2{}, fmt.Errorf("mobo: index %d out of range", index)
	}
	if o.modelE == nil || o.modelT == nil {
		if err := o.Fit(); err != nil {
			return Gaussian2{}, err
		}
	}
	return predictRaw(o.modelE, o.modelT, o.candidates[index]), nil
}

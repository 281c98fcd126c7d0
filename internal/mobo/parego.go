package mobo

import (
	"fmt"
	"math"
	"math/rand"

	"bofl/internal/gp"
	"bofl/internal/obs"
)

// ParEGO is an alternative multi-objective strategy used as an ablation
// against the EHVI optimizer: each suggestion draws a random weight vector on
// the simplex, scalarizes the (normalized) objectives with the augmented
// Tchebycheff function, fits a single GP on the scalarized values and picks
// the unobserved candidate with maximal expected improvement. It trades the
// EHVI's global front focus for cheaper single-objective machinery.
type ParEGO struct {
	dataset
	opts Options
	rng  *rand.Rand

	sink obs.Sink
}

// SetSink installs a telemetry sink recording per-scalarization GP fits and
// the suggestion scan. Nil restores the no-op sink.
func (p *ParEGO) SetSink(s obs.Sink) { p.sink = obs.OrNop(s) }

// NewParEGO constructs the scalarizing optimizer over a fixed candidate set.
func NewParEGO(candidates [][]float64, opts Options) (*ParEGO, error) {
	d, err := newDataset(candidates)
	if err != nil {
		return nil, err
	}
	return &ParEGO{
		dataset: d,
		opts:    opts,
		rng:     rand.New(rand.NewSource(opts.Seed)),
		sink:    obs.Nop,
	}, nil
}

// Observe records evaluated configurations. A batch with an out-of-range
// index or a wrong-dimension point is rejected whole: nothing is recorded.
func (p *ParEGO) Observe(obs ...Observation) error { return p.add(obs) }

// scalarize computes the augmented Tchebycheff value of normalized objectives
// (f1, f2) under weights (w, 1−w): max(w·f1, (1−w)·f2) + ρ·(w·f1 + (1−w)·f2).
func scalarize(f1, f2, w float64) float64 {
	const rho = 0.05
	a, b := w*f1, (1-w)*f2
	return math.Max(a, b) + rho*(a+b)
}

// SuggestBatch proposes up to k unobserved candidates, each chosen with a
// fresh random scalarization.
func (p *ParEGO) SuggestBatch(k int) ([]Suggestion, error) {
	if k <= 0 {
		return nil, nil
	}
	if len(p.obs) == 0 {
		return nil, ErrNoObservations
	}
	defer p.sink.Span(obs.SpanEHVIScan)()

	// Normalize the objectives to [0,1] over the observed ranges.
	minE, maxE := math.Inf(1), math.Inf(-1)
	minT, maxT := math.Inf(1), math.Inf(-1)
	for _, ob := range p.obs {
		minE, maxE = math.Min(minE, ob.Energy), math.Max(maxE, ob.Energy)
		minT, maxT = math.Min(minT, ob.Latency), math.Max(maxT, ob.Latency)
	}
	spanE, spanT := maxE-minE, maxT-minT
	if spanE <= 0 {
		spanE = 1
	}
	if spanT <= 0 {
		spanT = 1
	}

	taken := make(map[int]bool, k)
	out := make([]Suggestion, 0, k)
	for pick := 0; pick < k; pick++ {
		w := p.rng.Float64()
		xs := make([][]float64, len(p.obs))
		ys := make([]float64, len(p.obs))
		best := math.Inf(1)
		for i, ob := range p.obs {
			xs[i] = ob.X
			ys[i] = scalarize((ob.Energy-minE)/spanE, (ob.Latency-minT)/spanT, w)
			if ys[i] < best {
				best = ys[i]
			}
		}
		endFit := p.sink.Span(obs.SpanGPFit)
		model, err := gp.FitHyper(xs, ys, gp.HyperOptions{
			Dim:      p.dim,
			Restarts: max1(p.opts.Restarts, 1),
			Iters:    max1(p.opts.Iters, 3),
			Seed:     p.opts.Seed + int64(pick),
		})
		endFit()
		if err != nil {
			return nil, fmt.Errorf("mobo: parego surrogate: %w", err)
		}
		bestIdx, bestEI := -1, 0.0
		for i := range p.candidates {
			if p.observed[i] || taken[i] {
				continue
			}
			mu, sigma := model.Predict(p.candidates[i])
			ei := psi(best, mu, sigma) // E[(best − Z)+], minimization EI
			if bestIdx == -1 || ei > bestEI {
				bestIdx, bestEI = i, ei
			}
		}
		if bestIdx == -1 {
			break
		}
		taken[bestIdx] = true
		out = append(out, Suggestion{Index: bestIdx, X: p.candidates[bestIdx], EHVI: bestEI})
		if pick == 0 {
			p.sink.SetGauge(obs.MetricAcqBest, bestEI)
		}
	}
	return out, nil
}

func max1(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

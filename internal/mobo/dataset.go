package mobo

import (
	"errors"
	"fmt"

	"bofl/internal/pareto"
)

// dataset is the observation store behind both strategies, Optimizer and
// ParEGO: a fixed candidate set, the observations recorded against it and
// the set of observed indices.
type dataset struct {
	candidates [][]float64
	dim        int

	observed map[int]bool
	obs      []Observation
}

// newDataset checks that candidates is a non-empty set of points of one
// positive dimension. The slice is retained and must not be mutated.
func newDataset(candidates [][]float64) (dataset, error) {
	if len(candidates) == 0 {
		return dataset{}, errors.New("mobo: empty candidate set")
	}
	dim := len(candidates[0])
	if dim == 0 {
		return dataset{}, errors.New("mobo: zero-dimensional candidates")
	}
	for i, c := range candidates {
		if len(c) != dim {
			return dataset{}, fmt.Errorf("mobo: candidate %d has dim %d, want %d", i, len(c), dim)
		}
	}
	return dataset{candidates: candidates, dim: dim, observed: make(map[int]bool)}, nil
}

// add records a batch of observations. The whole batch is checked before
// any of it is recorded, so a batch with a bad entry changes nothing.
func (d *dataset) add(batch []Observation) error {
	for _, ob := range batch {
		if ob.Index < 0 || ob.Index >= len(d.candidates) {
			return fmt.Errorf("mobo: observation index %d out of range [0,%d)", ob.Index, len(d.candidates))
		}
		if ob.X != nil && len(ob.X) != d.dim {
			return fmt.Errorf("mobo: observation point has dim %d, want %d", len(ob.X), d.dim)
		}
	}
	for _, ob := range batch {
		x := ob.X
		if x == nil {
			x = d.candidates[ob.Index]
		}
		d.obs = append(d.obs, Observation{X: x, Index: ob.Index, Energy: ob.Energy, Latency: ob.Latency})
		d.observed[ob.Index] = true
	}
	return nil
}

// NumObserved returns the number of distinct candidate indices observed.
func (d *dataset) NumObserved() int { return len(d.observed) }

// Front returns the Pareto front of the observed (energy, latency) points.
func (d *dataset) Front() []pareto.Point {
	return pareto.Front(d.points())
}

// points returns every observation's (energy, latency) pair.
func (d *dataset) points() []pareto.Point {
	pts := make([]pareto.Point, len(d.obs))
	for i, ob := range d.obs {
		pts[i] = pareto.Point{X: ob.Energy, Y: ob.Latency}
	}
	return pts
}

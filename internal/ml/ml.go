// Package ml is a small from-scratch machine-learning substrate: models with
// hand-coded analytic gradients (logistic regression, a one-hidden-layer MLP
// and an LSTM sequence classifier), minibatch SGD and synthetic datasets
// shaped like the paper's three workloads.
//
// The FL layer trains these models for real — gradients are exact (verified
// against finite differences in tests) and FedAvg genuinely converges. What
// is simulated is only the hardware cost of executing a minibatch, which
// package device provides. This mirrors the role PyTorch plays in the
// paper's implementation (module 1 in Figure 8).
package ml

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"bofl/internal/obs"
)

// Training telemetry: one counter bump and one gauge store per minibatch,
// routed through a process-wide sink so FL clients and experiment harnesses
// share the same registry. Defaults to the no-op sink. The interface is boxed
// in a struct because atomic.Value demands one consistent concrete type.
type sinkBox struct{ s obs.Sink }

var pkgSink atomic.Value // holds sinkBox

func init() { pkgSink.Store(sinkBox{obs.Nop}) }

// SetSink routes training-progress telemetry through s. Nil restores the
// no-op sink.
func SetSink(s obs.Sink) { pkgSink.Store(sinkBox{obs.OrNop(s)}) }

// Training instrument names.
const (
	MetricTrainSteps = "bofl_ml_train_steps_total" // counter: completed minibatch SGD steps
	MetricTrainLoss  = "bofl_ml_train_loss"        // gauge: last minibatch loss
)

// Example is one training sample. Feature models read Features; sequence
// models read Seq (token ids). Label is the class index.
type Example struct {
	Features []float64
	Seq      []int
	Label    int
}

// Model is a trainable classifier with a flat parameter vector.
type Model interface {
	// NumParams returns the length of the parameter vector.
	NumParams() int
	// Params returns the model's parameters as a mutable flat slice
	// (aliasing internal state — callers own synchronization).
	Params() []float64
	// Loss returns the mean cross-entropy of the batch.
	Loss(batch []Example) (float64, error)
	// Gradients returns the mean gradient of the loss over the batch,
	// flattened to align with Params, plus the batch loss.
	Gradients(batch []Example) ([]float64, float64, error)
	// Predict returns the most likely class of one example.
	Predict(ex Example) (int, error)
}

// ErrEmptyBatch is returned when Loss or Gradients receives no examples.
var ErrEmptyBatch = errors.New("ml: empty batch")

// SGD applies one vanilla stochastic-gradient step: p ← p − lr·g.
func SGD(m Model, grads []float64, lr float64) error {
	p := m.Params()
	if len(grads) != len(p) {
		return fmt.Errorf("ml: gradient length %d != param length %d", len(grads), len(p))
	}
	if err := checkRate(lr); err != nil {
		return err
	}
	for i := range p {
		p[i] -= lr * grads[i]
	}
	return nil
}

// checkRate rejects a learning rate that is not a positive finite number. A
// NaN or infinite rate would turn every parameter non-finite on the first
// step.
func checkRate(lr float64) error {
	if !(lr > 0) || math.IsInf(lr, 1) {
		return fmt.Errorf("ml: learning rate %v is not positive and finite", lr)
	}
	return nil
}

// accumulator is a model whose gradient kernel sums into memory the caller
// provides, which lets TrainStep take a step without allocating.
type accumulator interface {
	Model
	// accumulate validates the batch, adds its summed gradient into grads
	// (zero on entry, one element per parameter) and returns its summed loss.
	accumulate(batch []Example, grads []float64) (float64, error)
}

// gradPool holds the gradient scratch of TrainStep's accumulating path. It
// is kept apart from the kernels' activation pools so that each pool holds
// slabs of one size.
var gradPool = sync.Pool{New: func() any { return new([]float64) }}

// getSlab takes a float64 slab from pool and returns it zeroed at length n.
func getSlab(pool *sync.Pool, n int) *[]float64 {
	p := pool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	} else {
		*p = (*p)[:n]
		clear(*p)
	}
	return p
}

// TrainStep runs one minibatch SGD step and returns the batch loss. A model
// with an accumulating kernel (the MLP) sums its gradient into pooled scratch
// and is stepped straight from it, p ← p − lr·(g/n), the same operations as
// Gradients followed by SGD; any other model takes that pair.
func TrainStep(m Model, batch []Example, lr float64) (float64, error) {
	var loss float64
	var err error
	if a, ok := m.(accumulator); ok {
		loss, err = accumulateStep(a, batch, lr)
	} else {
		var grads []float64
		if grads, loss, err = m.Gradients(batch); err == nil {
			err = SGD(m, grads, lr)
		}
	}
	if err != nil {
		return 0, err
	}
	s := pkgSink.Load().(sinkBox).s
	s.Count(MetricTrainSteps, 1)
	s.SetGauge(MetricTrainLoss, loss)
	return loss, nil
}

// accumulateStep is TrainStep's allocation-free path.
func accumulateStep(a accumulator, batch []Example, lr float64) (float64, error) {
	if err := checkRate(lr); err != nil {
		return 0, err
	}
	p := a.Params()
	gp := getSlab(&gradPool, len(p))
	defer gradPool.Put(gp)
	total, err := a.accumulate(batch, *gp)
	if err != nil {
		return 0, err
	}
	inv := 1 / float64(len(batch))
	for i, g := range *gp {
		p[i] -= lr * (g * inv)
	}
	return total * inv, nil
}

// Accuracy evaluates m on the examples.
func Accuracy(m Model, examples []Example) (float64, error) {
	if len(examples) == 0 {
		return 0, ErrEmptyBatch
	}
	correct := 0
	for _, ex := range examples {
		pred, err := m.Predict(ex)
		if err != nil {
			return 0, err
		}
		if pred == ex.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(examples)), nil
}

// softmaxCrossEntropy computes softmax probabilities of logits and the
// cross-entropy against label; dlogits receives ∂loss/∂logits.
func softmaxCrossEntropy(logits []float64, label int, dlogits []float64) float64 {
	maxv := logits[0]
	for _, v := range logits[1:] {
		if v > maxv {
			maxv = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		e := math.Exp(v - maxv)
		dlogits[i] = e
		sum += e
	}
	for i := range dlogits {
		dlogits[i] /= sum
	}
	loss := -math.Log(math.Max(dlogits[label], 1e-15))
	dlogits[label] -= 1
	return loss
}

// initUniform fills w with small uniform values in [−s, s].
func initUniform(w []float64, s float64, rng *rand.Rand) {
	for i := range w {
		w[i] = (2*rng.Float64() - 1) * s
	}
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

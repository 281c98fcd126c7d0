package ml

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// MLP is a one-hidden-layer perceptron with tanh activation:
//
//	h = tanh(W1·x + b1), logits = W2·h + b2
//
// It stands in for the paper's vision models (ViT / ResNet50) in the FL
// substrate — the convergence dynamics of FedAvg are exercised for real while
// the hardware cost of a minibatch comes from the device simulator.
type MLP struct {
	in, hidden, out int
	params          []float64 // W1 (h×in) | b1 (h) | W2 (out×h) | b2 (out)
}

var _ Model = (*MLP)(nil)

// NewMLP builds an MLP with Xavier-ish random weights.
func NewMLP(in, hidden, out int, seed int64) (*MLP, error) {
	if in <= 0 || hidden <= 0 || out <= 1 {
		return nil, fmt.Errorf("ml: mlp dims (%d, %d, %d) invalid", in, hidden, out)
	}
	n := hidden*in + hidden + out*hidden + out
	m := &MLP{in: in, hidden: hidden, out: out, params: make([]float64, n)}
	rng := rand.New(rand.NewSource(seed))
	initUniform(m.params[:hidden*in], math.Sqrt(2.0/float64(in+hidden)), rng)
	start := hidden*in + hidden
	initUniform(m.params[start:start+out*hidden], math.Sqrt(2.0/float64(hidden+out)), rng)
	return m, nil
}

// NumParams returns the parameter count.
func (m *MLP) NumParams() int { return len(m.params) }

// Params returns the flat parameter vector (aliased).
func (m *MLP) Params() []float64 { return m.params }

func (m *MLP) slices(v []float64) (w1, b1, w2, b2 []float64) {
	h, in, out := m.hidden, m.in, m.out
	w1 = v[:h*in]
	b1 = v[h*in : h*in+h]
	w2 = v[h*in+h : h*in+h+out*h]
	b2 = v[h*in+h+out*h:]
	return w1, b1, w2, b2
}

func (m *MLP) check(batch []Example) error {
	if len(batch) == 0 {
		return ErrEmptyBatch
	}
	for i, ex := range batch {
		if len(ex.Features) != m.in {
			return fmt.Errorf("ml: example %d has %d features, want %d", i, len(ex.Features), m.in)
		}
		if ex.Label < 0 || ex.Label >= m.out {
			return fmt.Errorf("ml: example %d label %d out of range", i, ex.Label)
		}
	}
	return nil
}

// forward computes hidden activations and logits for one example.
func (m *MLP) forward(x []float64, hidden, logits []float64) {
	w1, b1, w2, b2 := m.slices(m.params)
	for h := 0; h < m.hidden; h++ {
		s := b1[h]
		row := w1[h*m.in : (h+1)*m.in]
		for i, xi := range x {
			s += row[i] * xi
		}
		hidden[h] = math.Tanh(s)
	}
	for o := 0; o < m.out; o++ {
		s := b2[o]
		row := w2[o*m.hidden : (o+1)*m.hidden]
		for h, hv := range hidden {
			s += row[h] * hv
		}
		logits[o] = s
	}
}

// Loss returns the batch's mean cross-entropy.
func (m *MLP) Loss(batch []Example) (float64, error) {
	if err := m.check(batch); err != nil {
		return 0, err
	}
	hidden := make([]float64, m.hidden)
	logits := make([]float64, m.out)
	dl := make([]float64, m.out)
	total := 0.0
	for _, ex := range batch {
		m.forward(ex.Features, hidden, logits)
		total += softmaxCrossEntropy(logits, ex.Label, dl)
	}
	return total / float64(len(batch)), nil
}

// Gradients returns the mean gradient over the batch via backpropagation,
// in a fresh slice the caller owns.
func (m *MLP) Gradients(batch []Example) ([]float64, float64, error) {
	grads := make([]float64, len(m.params))
	total, err := m.accumulate(batch, grads)
	if err != nil {
		return nil, 0, err
	}
	inv := 1 / float64(len(batch))
	for i := range grads {
		grads[i] *= inv
	}
	return grads, total * inv, nil
}

// blockWidth is the number of examples one kernel block carries.
const blockWidth = 4

// actPool holds the kernel's activation scratch (a blockScratch's slab). It
// is pooled rather than kept on the model, so a model between steps holds no
// scratch.
var actPool = sync.Pool{New: func() any { return new([]float64) }}

// blockScratch is block4's working memory for one block of four examples,
// carved from one pooled slab, in the lanes and rows layouts of kernel.go.
type blockScratch struct {
	xt, xs []float64 // inputs: lanes, rows
	ht, hs []float64 // hidden activations: lanes, rows
	lt     []float64 // logits: lanes
	ls     []float64 // logits, then ∂loss/∂logits: rows
	ds     []float64 // ∂loss/∂h, then ∂loss/∂(W1·x + b1): rows
}

// accumulate validates the batch, adds its summed gradient into grads (zero
// on entry, one element per parameter) and returns its summed loss.
//
// It is per-example backpropagation run blockWidth examples at a time, with
// the unroll across the block's independent examples: every hidden and logit
// sum keeps its input order, the loss and every gradient element still
// accumulate in example order, and each update keeps the per-example form
// acc += a*b. The sums and the gradient are therefore bit-identical to one
// example at a time; blocking only loads each weight and gradient element
// once per block instead of once per example, and gives the kernels four
// independent sums to run side by side.
func (m *MLP) accumulate(batch []Example, grads []float64) (float64, error) {
	if err := m.check(batch); err != nil {
		return 0, err
	}
	ni, nh, no := blockWidth*m.in, blockWidth*m.hidden, blockWidth*m.out
	sp := getSlab(&actPool, 2*ni+3*nh+2*no)
	defer actPool.Put(sp)
	act := *sp
	s := blockScratch{
		xt: act[:ni], xs: act[ni : 2*ni],
		ht: act[2*ni : 2*ni+nh], hs: act[2*ni+nh : 2*ni+2*nh], ds: act[2*ni+2*nh : 2*ni+3*nh],
		lt: act[2*ni+3*nh : 2*ni+3*nh+no], ls: act[2*ni+3*nh+no:],
	}
	total := 0.0
	i := 0
	for ; i+blockWidth <= len(batch); i += blockWidth {
		total = m.block4(batch[i:i+blockWidth], grads, &s, total)
	}
	for ; i < len(batch); i++ {
		total = m.block1(batch[i], grads, s.hs[:m.hidden], s.ls[:m.out], s.ds[:m.hidden], total)
	}
	return total, nil
}

// block4 adds four examples' gradients into grads and their losses to total.
func (m *MLP) block4(b []Example, grads []float64, s *blockScratch, total float64) float64 {
	ni, nh, no := m.in, m.hidden, m.out
	w1, b1, w2, b2 := m.slices(m.params)
	gw1, gb1, gw2, gb2 := m.slices(grads)
	b = b[:blockWidth]
	for l, ex := range b {
		x := ex.Features[:ni]
		copy(s.xs[l*ni:(l+1)*ni], x)
		for i, v := range x {
			s.xt[4*i+l] = v
		}
	}

	// Forward: h = tanh(W1·x + b1), logits = W2·h + b2.
	dense4(w1, b1, s.xt, s.ht)
	for h := 0; h < nh; h++ {
		for l := 0; l < blockWidth; l++ {
			v := math.Tanh(s.ht[4*h+l])
			s.ht[4*h+l] = v
			s.hs[l*nh+h] = v
		}
	}
	dense4(w2, b2, s.ht, s.lt)
	for o := 0; o < no; o++ {
		for l := 0; l < blockWidth; l++ {
			s.ls[l*no+o] = s.lt[4*o+l]
		}
	}
	for l, ex := range b {
		e := s.ls[l*no : (l+1)*no]
		total += softmaxCrossEntropy(e, ex.Label, e)
	}

	// Backward through W2 and b2, collecting ∂loss/∂h.
	clear(s.ds)
	backOut4(gw2, w2, s.ls, s.hs, s.ds)
	e0, e1, e2, e3 := s.ls[:no], s.ls[no:2*no], s.ls[2*no:3*no], s.ls[3*no:4*no]
	for o := range gb2 {
		gb2[o] += e0[o]
		gb2[o] += e1[o]
		gb2[o] += e2[o]
		gb2[o] += e3[o]
	}
	// Backward through tanh (d tanh = 1 − tanh²), W1 and b1.
	for j, hv := range s.hs {
		s.ds[j] *= 1 - hv*hv
	}
	outer4(gw1, s.ds, s.xs)
	p0, p1, p2, p3 := s.ds[:nh], s.ds[nh:2*nh], s.ds[2*nh:3*nh], s.ds[3*nh:4*nh]
	for h := range gb1 {
		gb1[h] += p0[h]
		gb1[h] += p1[h]
		gb1[h] += p2[h]
		gb1[h] += p3[h]
	}
	return total
}

// block1 is block4 for one example: the tail of a batch whose length is not
// a multiple of blockWidth.
func (m *MLP) block1(ex Example, grads, hid, lg, dh []float64, total float64) float64 {
	_, _, w2, _ := m.slices(m.params)
	gw1, gb1, gw2, gb2 := m.slices(grads)
	x := ex.Features
	m.forward(x, hid, lg)
	total += softmaxCrossEntropy(lg, ex.Label, lg)

	clear(dh)
	for o, e := range lg {
		row := w2[o*m.hidden : (o+1)*m.hidden]
		grow := gw2[o*m.hidden : (o+1)*m.hidden]
		for h, hv := range hid {
			grow[h] += e * hv
			dh[h] += e * row[h]
		}
		gb2[o] += e
	}
	for h, hv := range hid {
		p := dh[h] * (1 - hv*hv)
		grow := gw1[h*m.in : (h+1)*m.in]
		for i, xi := range x {
			grow[i] += p * xi
		}
		gb1[h] += p
	}
	return total
}

// Predict returns the argmax class.
func (m *MLP) Predict(ex Example) (int, error) {
	if err := m.check([]Example{ex}); err != nil {
		return 0, err
	}
	hidden := make([]float64, m.hidden)
	logits := make([]float64, m.out)
	m.forward(ex.Features, hidden, logits)
	best := 0
	for o, v := range logits {
		if v > logits[best] {
			best = o
		}
	}
	return best, nil
}

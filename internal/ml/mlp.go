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

// actPool holds the kernel's activation scratch: per block slot, the hidden
// activations, the logits (overwritten by their gradient) and the hidden
// gradient. It is pooled rather than kept on the model, so a model between
// steps holds no scratch.
var actPool = sync.Pool{New: func() any { return new([]float64) }}

// accumulate validates the batch, adds its summed gradient into grads (zero
// on entry, one element per parameter) and returns its summed loss.
//
// It is per-example backpropagation run blockWidth examples at a time, with
// the unroll across the block's independent examples: every hidden and logit
// sum keeps its input order, the loss and every gradient element still
// accumulate in example order, and each update keeps the per-example form
// acc += a*b. The sums and the gradient are therefore bit-identical to one
// example at a time; blocking only loads each weight and gradient element
// once per block instead of once per example, and interleaves four
// independent dependency chains in the forward sums.
func (m *MLP) accumulate(batch []Example, grads []float64) (float64, error) {
	if err := m.check(batch); err != nil {
		return 0, err
	}
	nh, no := m.hidden, m.out
	sp := getSlab(&actPool, blockWidth*(2*nh+no))
	defer actPool.Put(sp)
	act := *sp
	hid, lg, dh := act[:blockWidth*nh], act[blockWidth*nh:blockWidth*(nh+no)], act[blockWidth*(nh+no):]
	total := 0.0
	i := 0
	for ; i+blockWidth <= len(batch); i += blockWidth {
		total = m.block4(batch[i:i+blockWidth], grads, hid, lg, dh, total)
	}
	for ; i < len(batch); i++ {
		total = m.block1(batch[i], grads, hid[:nh], lg[:no], dh[:nh], total)
	}
	return total, nil
}

// block4 adds four examples' gradients into grads and their losses to total,
// using hid, lg and dh (four rows each) as scratch.
func (m *MLP) block4(b []Example, grads, hid, lg, dh []float64, total float64) float64 {
	nh, no := m.hidden, m.out
	w1, b1, w2, b2 := m.slices(m.params)
	gw1, gb1, gw2, gb2 := m.slices(grads)
	x0, x1, x2, x3 := b[0].Features, b[1].Features, b[2].Features, b[3].Features
	h0, h1, h2, h3 := hid[:nh], hid[nh:2*nh], hid[2*nh:3*nh], hid[3*nh:4*nh]
	l0, l1, l2, l3 := lg[:no], lg[no:2*no], lg[2*no:3*no], lg[3*no:4*no]
	d0, d1, d2, d3 := dh[:nh], dh[nh:2*nh], dh[2*nh:3*nh], dh[3*nh:4*nh]

	// Forward: h = tanh(W1·x + b1), logits = W2·h + b2.
	for h := range h0 {
		row := w1[h*m.in : (h+1)*m.in]
		x0, x1, x2, x3 := x0[:len(row)], x1[:len(row)], x2[:len(row)], x3[:len(row)]
		s0, s1, s2, s3 := b1[h], b1[h], b1[h], b1[h]
		for i, w := range row {
			s0 += w * x0[i]
			s1 += w * x1[i]
			s2 += w * x2[i]
			s3 += w * x3[i]
		}
		h0[h], h1[h], h2[h], h3[h] = math.Tanh(s0), math.Tanh(s1), math.Tanh(s2), math.Tanh(s3)
	}
	for o := range l0 {
		row := w2[o*nh : (o+1)*nh]
		h0, h1, h2, h3 := h0[:len(row)], h1[:len(row)], h2[:len(row)], h3[:len(row)]
		s0, s1, s2, s3 := b2[o], b2[o], b2[o], b2[o]
		for h, w := range row {
			s0 += w * h0[h]
			s1 += w * h1[h]
			s2 += w * h2[h]
			s3 += w * h3[h]
		}
		l0[o], l1[o], l2[o], l3[o] = s0, s1, s2, s3
	}
	total += softmaxCrossEntropy(l0, b[0].Label, l0)
	total += softmaxCrossEntropy(l1, b[1].Label, l1)
	total += softmaxCrossEntropy(l2, b[2].Label, l2)
	total += softmaxCrossEntropy(l3, b[3].Label, l3)

	// Backward through W2 and b2, collecting ∂loss/∂h.
	clear(dh)
	for o := range l0 {
		row := w2[o*nh : (o+1)*nh]
		grow := gw2[o*nh : (o+1)*nh]
		h0, h1, h2, h3 := h0[:len(row)], h1[:len(row)], h2[:len(row)], h3[:len(row)]
		d0, d1, d2, d3 := d0[:len(row)], d1[:len(row)], d2[:len(row)], d3[:len(row)]
		e0, e1, e2, e3 := l0[o], l1[o], l2[o], l3[o]
		for h, w := range row {
			g := grow[h]
			g += e0 * h0[h]
			g += e1 * h1[h]
			g += e2 * h2[h]
			g += e3 * h3[h]
			grow[h] = g
			d0[h] += e0 * w
			d1[h] += e1 * w
			d2[h] += e2 * w
			d3[h] += e3 * w
		}
		gb2[o] += e0
		gb2[o] += e1
		gb2[o] += e2
		gb2[o] += e3
	}
	// Backward through tanh (d tanh = 1 − tanh²), W1 and b1.
	for h := range h0 {
		p0 := d0[h] * (1 - h0[h]*h0[h])
		p1 := d1[h] * (1 - h1[h]*h1[h])
		p2 := d2[h] * (1 - h2[h]*h2[h])
		p3 := d3[h] * (1 - h3[h]*h3[h])
		grow := gw1[h*m.in : (h+1)*m.in]
		x0, x1, x2, x3 := x0[:len(grow)], x1[:len(grow)], x2[:len(grow)], x3[:len(grow)]
		for i, g := range grow {
			g += p0 * x0[i]
			g += p1 * x1[i]
			g += p2 * x2[i]
			g += p3 * x3[i]
			grow[i] = g
		}
		gb1[h] += p0
		gb1[h] += p1
		gb1[h] += p2
		gb1[h] += p3
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

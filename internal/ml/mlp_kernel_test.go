package ml

import (
	"fmt"
	"math"
	"testing"
)

// referenceGradients is the per-example backpropagation the blocked kernel
// replaced, kept as its oracle.
func (m *MLP) referenceGradients(batch []Example) ([]float64, float64, error) {
	if err := m.check(batch); err != nil {
		return nil, 0, err
	}
	grads := make([]float64, len(m.params))
	gw1, gb1, gw2, gb2 := m.slices(grads)
	_, _, w2, _ := m.slices(m.params)

	hidden := make([]float64, m.hidden)
	logits := make([]float64, m.out)
	dl := make([]float64, m.out)
	dh := make([]float64, m.hidden)
	total := 0.0
	for _, ex := range batch {
		m.forward(ex.Features, hidden, logits)
		total += softmaxCrossEntropy(logits, ex.Label, dl)

		for h := range dh {
			dh[h] = 0
		}
		for o := 0; o < m.out; o++ {
			row := w2[o*m.hidden : (o+1)*m.hidden]
			grow := gw2[o*m.hidden : (o+1)*m.hidden]
			for h, hv := range hidden {
				grow[h] += dl[o] * hv
				dh[h] += dl[o] * row[h]
			}
			gb2[o] += dl[o]
		}
		for h := 0; h < m.hidden; h++ {
			// d tanh = 1 − tanh².
			dpre := dh[h] * (1 - hidden[h]*hidden[h])
			grow := gw1[h*m.in : (h+1)*m.in]
			for i, xi := range ex.Features {
				grow[i] += dpre * xi
			}
			gb1[h] += dpre
		}
	}
	inv := 1 / float64(len(batch))
	for i := range grads {
		grads[i] *= inv
	}
	return grads, total * inv, nil
}

// sameBits fails the test at the first element whose bits differ.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// kernelLegs runs fn as a subtest on the Go kernel bodies and, where the CPU
// has AVX2, again on the assembly kernels, then restores the CPU's choice.
func kernelLegs(t *testing.T, fn func(t *testing.T)) {
	d, o, b, s := dense4, outer4, backOut4, sgd
	restore := func() { dense4, outer4, backOut4, sgd = d, o, b, s }
	t.Cleanup(restore)
	t.Run("go", func(t *testing.T) {
		dense4, outer4, backOut4, sgd = dense4Go, outer4Go, backOut4Go, sgdGo
		fn(t)
	})
	if useAVX2 {
		t.Run("avx2", func(t *testing.T) {
			restore()
			fn(t)
		})
	}
}

// TestMLPKernelMatchesReference trains one replica with TrainStep and its
// twin with the per-example oracle and SGD, and holds the loss, the gradient
// and the parameters of every step equal bit for bit, on the Go kernels and
// on the AVX2 ones. The batch sizes leave every tail length modulo the block
// width; the shapes are round-http's MLP, the flserver/flclient demo's, the
// smallest, and odd ones whose in, hidden and out dimensions between them
// leave every remainder modulo the vector width.
func TestMLPKernelMatchesReference(t *testing.T) {
	const steps, lr = 6, 0.05
	shapes := [][3]int{{32, 256, 32}, {8, 16, 4}, {6, 7, 4}, {1, 1, 2}, {5, 6, 7}, {7, 9, 5}}
	for _, sh := range shapes {
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 17} {
			t.Run(fmt.Sprintf("%dx%dx%d/batch%d", sh[0], sh[1], sh[2], n), func(t *testing.T) {
				kernelLegs(t, func(t *testing.T) {
					seed := int64(sh[0]*1000 + sh[1]*10 + n)
					fast, err := NewMLP(sh[0], sh[1], sh[2], seed)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := NewMLP(sh[0], sh[1], sh[2], seed)
					if err != nil {
						t.Fatal(err)
					}
					data, err := Blobs(steps*n, sh[0], sh[2], 1.0, seed+1)
					if err != nil {
						t.Fatal(err)
					}
					for s := 0; s < steps; s++ {
						batch := data[s*n : (s+1)*n]
						g, loss, err := fast.Gradients(batch)
						if err != nil {
							t.Fatal(err)
						}
						rg, rloss, err := ref.referenceGradients(batch)
						if err != nil {
							t.Fatal(err)
						}
						sameBits(t, fmt.Sprintf("step %d Gradients", s), g, rg)
						sameBits(t, fmt.Sprintf("step %d Gradients loss", s), []float64{loss}, []float64{rloss})

						stepLoss, err := TrainStep(fast, batch, lr)
						if err != nil {
							t.Fatal(err)
						}
						if err := SGD(ref, rg, lr); err != nil {
							t.Fatal(err)
						}
						sameBits(t, fmt.Sprintf("step %d TrainStep loss", s), []float64{stepLoss}, []float64{rloss})
						sameBits(t, fmt.Sprintf("step %d params", s), fast.Params(), ref.Params())
						// The step's pooled scratch must not be the slice
						// Gradients handed out.
						sameBits(t, fmt.Sprintf("step %d Gradients after TrainStep", s), g, rg)
					}
				})
			})
		}
	}
}

// TestTrainStepZeroAlloc pins the MLP's training step at zero allocations
// once its pooled scratch is warm.
func TestTrainStepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts at random")
	}
	m, err := NewMLP(32, 256, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Blobs(16, 32, 32, 1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TrainStep(m, batch, 0.05); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := TrainStep(m, batch, 0.05); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("TrainStep allocates %v times per step, want 0", allocs)
	}
}

// TestTrainStepRejectsNonFiniteRate checks the accumulating path and the
// Gradients-then-SGD path refuse a NaN or infinite rate before touching the
// parameters.
func TestTrainStepRejectsNonFiniteRate(t *testing.T) {
	mlp, err := NewMLP(4, 5, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := NewLinear(4, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Blobs(6, 4, 3, 1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Model{mlp, lin} {
		before := append([]float64(nil), m.Params()...)
		for _, lr := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -0.1} {
			if _, err := TrainStep(m, batch, lr); err == nil {
				t.Errorf("%T: TrainStep accepted learning rate %v", m, lr)
			}
		}
		sameBits(t, fmt.Sprintf("%T params after rejected steps", m), m.Params(), before)
	}
}

// BenchmarkMLPTrainStep times one round-http training step: a 32×256×32 MLP
// on a 16-example batch.
func BenchmarkMLPTrainStep(b *testing.B) {
	m, err := NewMLP(32, 256, 32, 1)
	if err != nil {
		b.Fatal(err)
	}
	batch, err := Blobs(16, 32, 32, 1.0, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainStep(m, batch, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

package mobo

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"bofl/internal/device"
)

// prescreenProblem is a synthetic optimizer over 300 random 3-D candidates
// with 14 noisy observations of two positive objectives with multiplicative
// structure, like the energy/latency pair the optimizer models. scale
// multiplies both objectives, as a change of units would (1e6 turns J and s
// into µJ and µs); EHVI scales with the product of the two units.
func prescreenProblem(t *testing.T, seed int64, scale float64) *Optimizer {
	t.Helper()
	rng := rand.New(rand.NewSource(1000 + seed))
	const dim, nc = 3, 300
	candidates := make([][]float64, nc)
	for i := range candidates {
		c := make([]float64, dim)
		for d := range c {
			c[d] = rng.Float64()
		}
		candidates[i] = c
	}
	objE := func(x []float64) float64 {
		return math.Exp(0.8*x[0] - 0.3*x[1] + 0.2*x[2]*x[2])
	}
	objT := func(x []float64) float64 {
		return math.Exp(-0.5*x[0] + 0.9*x[1] + 0.1*x[2])
	}
	opt, err := NewOptimizer(candidates, Options{Seed: seed, Restarts: 2, Iters: 5})
	if err != nil {
		t.Fatal(err)
	}
	obsRng := rand.New(rand.NewSource(2000 + seed))
	for i := 0; i < 14; i++ {
		idx := obsRng.Intn(nc)
		x := candidates[idx]
		if err := opt.Observe(Observation{
			Index:   idx,
			Energy:  scale * objE(x) * (1 + 0.05*obsRng.NormFloat64()),
			Latency: scale * objT(x) * (1 + 0.05*obsRng.NormFloat64()),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return opt
}

// assertPrescreenMatches checks that SuggestBatch returns exactly the
// suggestions of the all-float64 scan: same indices, same coordinates, same
// float64 EHVI values.
func assertPrescreenMatches(t *testing.T, opt *Optimizer, k int) {
	t.Helper()
	exact, err := opt.suggestBatch(k, true)
	if err != nil {
		t.Fatal(err)
	}
	screened, err := opt.SuggestBatch(k)
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) == 0 {
		t.Fatal("no suggestions produced")
	}
	if !reflect.DeepEqual(exact, screened) {
		for i := range exact {
			if i >= len(screened) || !reflect.DeepEqual(exact[i], screened[i]) {
				t.Fatalf("pre-screen diverged from the float64 scan at pick %d of %d:\nfloat64:   %+v\nprescreen: %+v",
					i, len(exact), exact[i:], screened[min(i, len(screened)):])
			}
		}
		t.Fatalf("pre-screen returned %d suggestions, the float64 scan %d", len(screened), len(exact))
	}
}

// TestFloat32PrescreenMatchesFloat64 pins the pre-screen's soundness
// contract on many synthetic problems, at batch 8 in the objectives' own
// units, then across objective scales from 1e-6 to 1e9 and batches deep
// enough (120 of 300 candidates) to reach the acquisition's small-value
// regime, where the float32 helpers' relative error bounds carry the
// factor-of-two margin.
func TestFloat32PrescreenMatchesFloat64(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		assertPrescreenMatches(t, prescreenProblem(t, seed, 1), 8)
	}
	for _, scale := range []float64{1e-6, 1, 1e3, 1e6, 1e9} {
		for _, k := range []int{8, 40, 120} {
			t.Run(fmt.Sprintf("scale%g/batch%d", scale, k), func(t *testing.T) {
				for seed := int64(0); seed < 4; seed++ {
					assertPrescreenMatches(t, prescreenProblem(t, seed, scale), k)
				}
			})
		}
	}
}

// deviceProblem is an optimizer over a Jetson configuration space seeded
// with 21 Halton observations of one workload's modelled objectives, the
// state the pace controller's first batch selection starts from.
func deviceProblem(tb testing.TB, dev *device.Device, w device.Workload, seed int64) *Optimizer {
	tb.Helper()
	space := dev.Space()
	candidates := make([][]float64, space.Size())
	for i := range candidates {
		cfg, err := space.Config(i)
		if err != nil {
			tb.Fatal(err)
		}
		if candidates[i], err = space.Normalize(cfg); err != nil {
			tb.Fatal(err)
		}
	}
	seedIdx, err := HaltonIndices(21, space.Dims())
	if err != nil {
		tb.Fatal(err)
	}
	opt, err := NewOptimizer(candidates, Options{Seed: seed, Restarts: 2, Iters: 5})
	if err != nil {
		tb.Fatal(err)
	}
	for _, idx := range seedIdx {
		cfg, err := space.Config(idx)
		if err != nil {
			tb.Fatal(err)
		}
		lat, energy, err := dev.Perf(w, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		if err := opt.Observe(Observation{Index: idx, Energy: energy, Latency: lat}); err != nil {
			tb.Fatal(err)
		}
	}
	return opt
}

// TestPrescreenMatchesFloat64OnDeviceSpaces holds the production scan to the
// all-float64 oracle on the configuration spaces the pace controller
// searches: both Jetson spaces under each paper workload's objectives, with
// a batch of 10.
func TestPrescreenMatchesFloat64OnDeviceSpaces(t *testing.T) {
	for _, dev := range []*device.Device{device.JetsonAGX(), device.JetsonTX2()} {
		for _, w := range []device.Workload{device.ViT, device.ResNet50, device.LSTM} {
			t.Run(dev.Name()+"/"+string(w), func(t *testing.T) {
				assertPrescreenMatches(t, deviceProblem(t, dev, w, 5), 10)
			})
		}
	}
}

// BenchmarkSuggestBatchF64 times the all-float64 oracle scan on the
// acquisition benchmark's problem (AGX space, ViT objectives, batch 10), so
// the pre-screen's share of the root BenchmarkMBOSuggestBatch stays
// measurable.
func BenchmarkSuggestBatchF64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		opt := deviceProblem(b, device.JetsonAGX(), device.ViT, int64(i))
		b.StartTimer()
		if _, err := opt.suggestBatch(10, true); err != nil {
			b.Fatal(err)
		}
	}
}

package ml

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// kernelInput draws n values: normal numbers over a wide range of scales,
// ±0 and subnormals and, when special is set, NaN and ±Inf as well.
func kernelInput(rng *rand.Rand, n int, special bool) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch r := rng.Intn(12); {
		case r == 0:
			v[i] = math.Copysign(0, float64(rng.Intn(2)*2-1))
		case r == 1:
			sub := math.Float64frombits(rng.Uint64() & (1<<52 - 1))
			v[i] = math.Copysign(sub, float64(rng.Intn(2)*2-1))
		case r == 2 && special:
			v[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
		default:
			v[i] = math.Ldexp(rng.NormFloat64(), rng.Intn(41)-20)
		}
	}
	return v
}

// sameOutcome fails the test at the first element where got and want are
// not the same bits, counting any two NaNs as equal: the payload of a NaN
// depends on which operand an instruction names first, which Go leaves to
// the compiler.
func sameOutcome(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range got {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestAVX2KernelsMatchGoBodies runs each assembly kernel and its Go body on
// the same inputs, over every row count and width up to 9 and a wider one,
// so every vector tail length runs. On finite inputs, ±0 and subnormals
// included, the outputs must be the same bits; with NaN and ±Inf among the
// inputs, NaN and ±Inf must land in the same elements.
func TestAVX2KernelsMatchGoBodies(t *testing.T) {
	if !useAVX2 {
		t.Skip("the CPU has no AVX2")
	}
	rng := rand.New(rand.NewSource(1))
	clone := func(v []float64) []float64 { return append([]float64(nil), v...) }
	for _, special := range []bool{false, true} {
		check := sameBits
		if special {
			check = sameOutcome
		}
		for rows := 0; rows <= 9; rows++ {
			for _, k := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 33} {
				name := fmt.Sprintf("special=%v/rows%d/k%d", special, rows, k)
				in := func(n int) []float64 { return kernelInput(rng, n, special) }

				w, b, xt, st := in(rows*k), in(rows), in(4*k), in(4*rows)
				got, want := clone(st), clone(st)
				dense4AVX2(w, b, xt, got)
				dense4Go(w, b, xt, want)
				check(t, name+" dense4", got, want)

				gw, ps, xs := in(rows*k), in(4*rows), in(4*k)
				got, want = clone(gw), clone(gw)
				outer4AVX2(got, ps, xs)
				outer4Go(want, ps, xs)
				check(t, name+" outer4", got, want)

				gw, w, es, hs, ds := in(rows*k), in(rows*k), in(4*rows), in(4*k), in(4*k)
				got, want = clone(gw), clone(gw)
				gotD, wantD := clone(ds), clone(ds)
				backOut4AVX2(got, w, es, hs, gotD)
				backOut4Go(want, w, es, hs, wantD)
				check(t, name+" backOut4 gw", got, want)
				check(t, name+" backOut4 ds", gotD, wantD)

				p, g, rate := in(rows*k), in(rows*k), in(2)
				got, want = clone(p), clone(p)
				sgdAVX2(got, g, rate[0], rate[1])
				sgdGo(want, g, rate[0], rate[1])
				check(t, name+" sgd", got, want)
			}
		}
	}
}

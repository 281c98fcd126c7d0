package exact

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// oracleSum computes the correctly rounded sum of xs with math/big at a
// precision wide enough to be exact for any test input (big.Float addition at
// 2200 bits covers the whole double range plus carries).
func oracleSum(xs []float64) float64 {
	acc := new(big.Float).SetPrec(2200)
	for _, x := range xs {
		acc.Add(acc, new(big.Float).SetPrec(2200).SetFloat64(x))
	}
	out, _ := acc.Float64()
	return out
}

func addAll(t *testing.T, xs []float64) float64 {
	t.Helper()
	v := NewVec(1)
	for _, x := range xs {
		v.Add([]float64{x})
	}
	var dst [1]float64
	v.RoundTo(dst[:])
	return dst[0]
}

func bitsEq(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestRoundMatchesOracle drives random sums — mixed magnitudes, signs,
// subnormals, exact cancellations — against the big.Float oracle.
func TestRoundMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	draw := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return rng.NormFloat64()
		case 1:
			return rng.NormFloat64() * math.Ldexp(1, rng.Intn(600)-300)
		case 2:
			return math.Ldexp(float64(1+rng.Intn(1<<20)), -1074+rng.Intn(60)) // deep subnormal
		case 3:
			return -math.Ldexp(float64(1+rng.Intn(1<<20)), 1000-rng.Intn(60)) // huge
		case 4:
			return 0
		default:
			return float64(rng.Intn(2001) - 1000)
		}
	}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = draw()
		}
		if trial%3 == 0 {
			// Force near-total cancellation: append the negations shuffled.
			for _, x := range xs[:n/2] {
				xs = append(xs, -x)
			}
			rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		}
		got := addAll(t, xs)
		want := oracleSum(xs)
		if !bitsEq(got, want) {
			t.Fatalf("trial %d: sum(%v) = %x, oracle %x", trial, xs,
				math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// TestRoundEdgeCases pins hand-picked rounding traps: ties to even, carry
// into a new binade, subnormal boundary, overflow to Inf.
func TestRoundEdgeCases(t *testing.T) {
	ulp := math.Nextafter(1, 2) - 1 // 2^-52
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"zeros", []float64{0, 0, -0.0}, 0},
		{"one", []float64{1}, 1},
		{"neg", []float64{-3.5}, -3.5},
		{"cancel", []float64{1e300, -1e300}, 0},
		{"tie-even-down", []float64{1, ulp / 2}, 1},
		{"tie-even-up", []float64{1 + ulp, ulp / 2}, 1 + 2*ulp},
		{"above-tie", []float64{1, ulp/2 + ulp/1024}, 1 + ulp},
		{"carry-binade", []float64{1, 1 - ulp/4}, 2},
		{"min-subnormal", []float64{math.SmallestNonzeroFloat64}, math.SmallestNonzeroFloat64},
		{"subnormal-sum", []float64{math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64}, 2 * math.SmallestNonzeroFloat64},
		{"subnormal-cancel", []float64{1.5, math.SmallestNonzeroFloat64, -1.5}, math.SmallestNonzeroFloat64},
		{"overflow", []float64{math.MaxFloat64, math.MaxFloat64}, math.Inf(1)},
		{"neg-overflow", []float64{-math.MaxFloat64, -math.MaxFloat64, 1e300}, math.Inf(-1)},
		{"max-exact", []float64{math.MaxFloat64, -1, 1}, math.MaxFloat64},
		{"inf", []float64{1, math.Inf(1)}, math.Inf(1)},
		{"neg-inf", []float64{math.Inf(-1), 5}, math.Inf(-1)},
		{"inf-conflict", []float64{math.Inf(1), math.Inf(-1)}, math.NaN()},
		{"nan", []float64{1, math.NaN(), 2}, math.NaN()},
	}
	for _, tc := range cases {
		got := addAll(t, tc.xs)
		if !bitsEq(got, tc.want) {
			t.Errorf("%s: got %v (%x), want %v", tc.name, got, math.Float64bits(got), tc.want)
		}
	}
}

// TestAssociativity is the tree-aggregation keystone: summing in any
// grouping — flat, random binary splits, random permutations merged via
// AddVec — yields bit-identical rounded results.
func TestAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(200)
		dim := 1 + rng.Intn(8)
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, dim)
			for j := range rows[i] {
				rows[i][j] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(120)-60)
			}
		}
		// Flat reference, in index order.
		flat := NewVec(dim)
		for _, r := range rows {
			flat.Add(r)
		}
		want := make([]float64, dim)
		flat.RoundTo(want)

		// Random tree: shuffle rows, split into random segments, sum each
		// into its own Vec, merge the Vecs in random order.
		order := rng.Perm(n)
		var parts []*Vec
		for i := 0; i < n; {
			seg := 1 + rng.Intn(n-i)
			p := NewVec(dim)
			for _, k := range order[i : i+seg] {
				p.Add(rows[k])
			}
			parts = append(parts, p)
			i += seg
		}
		root := NewVec(dim)
		for _, idx := range rng.Perm(len(parts)) {
			if err := root.AddVec(parts[idx]); err != nil {
				t.Fatal(err)
			}
		}
		got := make([]float64, dim)
		root.RoundTo(got)
		for j := range want {
			if !bitsEq(got[j], want[j]) {
				t.Fatalf("trial %d dim %d: tree %x != flat %x", trial, j,
					math.Float64bits(got[j]), math.Float64bits(want[j]))
			}
		}
	}
}

// TestSerializeRoundTrip checks that shipping a partial through its portable
// form and absorbing it elsewhere is exact, including specials.
func TestSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const dim = 5
	a := NewVec(dim)
	for i := 0; i < 500; i++ {
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(200)-100)
		}
		a.AddScaled(float64(1+rng.Intn(50)), row)
	}
	a.Add([]float64{0, math.Inf(1), 0, 0, math.NaN()})

	s := a.Serialize()
	b := NewVec(dim)
	if err := b.Absorb(s); err != nil {
		t.Fatal(err)
	}
	got, want := make([]float64, dim), make([]float64, dim)
	a.RoundTo(want)
	b.RoundTo(got)
	for j := range want {
		if !bitsEq(got[j], want[j]) {
			t.Fatalf("dim %d: absorbed %x != original %x", j,
				math.Float64bits(got[j]), math.Float64bits(want[j]))
		}
	}
}

// TestAbsorbRejectsCorrupt covers the defensive paths a hostile partial frame
// can hit.
func TestAbsorbRejectsCorrupt(t *testing.T) {
	v := NewVec(2)
	if err := v.Absorb(Serialized{Dim: 3}); err == nil {
		t.Error("dim mismatch accepted")
	}
	if err := v.Absorb(Serialized{Dim: 2, Lo: 5, Hi: 3}); err == nil {
		t.Error("inverted window accepted")
	}
	if err := v.Absorb(Serialized{Dim: 2, Lo: 0, Hi: limbsPerAcc + 1}); err == nil {
		t.Error("oversized window accepted")
	}
	if err := v.Absorb(Serialized{Dim: 2, Lo: 0, Hi: 2, Limbs: make([]uint64, 3)}); err == nil {
		t.Error("short limb payload accepted")
	}
	huge := make([]uint64, 4)
	huge[0] = 1 << 63
	if err := v.Absorb(Serialized{Dim: 2, Lo: 0, Hi: 2, Limbs: huge}); err == nil {
		t.Error("overflow-magnitude limb accepted")
	}
	if err := v.Absorb(Serialized{Dim: 2, Lo: 0, Hi: 2, Limbs: make([]uint64, 4), Specials: make([]uint8, 1)}); err == nil {
		t.Error("short specials accepted")
	}
}

// frameSum is the math/big value of the summed limbs of frames, rounded to
// float64: limb k of scalar 0 weighs 2^(32k−1074).
func frameSum(frames []Serialized) float64 {
	acc := new(big.Float).SetPrec(2400)
	for _, s := range frames {
		for k := s.Lo; k < s.Hi; k++ {
			l := new(big.Float).SetInt64(int64(s.Limbs[(k-s.Lo)*s.Dim]))
			acc.Add(acc, l.SetMantExp(l, 32*k-bias))
		}
	}
	out, _ := acc.Float64()
	return out
}

// TestAbsorbChargesLimbMagnitude absorbs frames that pass validation but
// whose limbs are far larger than their declared Adds allows: the merge
// must not wrap an int64 limb, so every sum rounds to the math/big value.
func TestAbsorbChargesLimbMagnitude(t *testing.T) {
	for _, limb := range []int64{1 << 62, -1 << 62, 1<<62 - 1} {
		for _, count := range []int{2, 5} {
			frames := make([]Serialized, count)
			for i := range frames {
				frames[i] = Serialized{Dim: 1, Lo: 40, Hi: 41, Adds: 1, Limbs: []uint64{uint64(limb)}}
			}
			v := NewVec(1)
			for _, s := range frames {
				if err := v.Absorb(s); err != nil {
					t.Fatal(err)
				}
			}
			var got [1]float64
			v.RoundTo(got[:])
			if want := frameSum(frames); !bitsEq(got[0], want) {
				t.Fatalf("%d frames of limb %d: got %v, math/big %v", count, limb, got[0], want)
			}
		}
	}
}

// TestResetReuse checks a reset accumulator behaves like a fresh one.
func TestResetReuse(t *testing.T) {
	v := NewVec(3)
	v.AddScaled(3, []float64{1, -2, math.NaN()})
	v.Reset()
	v.Add([]float64{0.5, 0.25, -0.125})
	got := make([]float64, 3)
	v.RoundTo(got)
	want := []float64{0.5, 0.25, -0.125}
	for j := range want {
		if !bitsEq(got[j], want[j]) {
			t.Fatalf("after reset: got %v want %v", got, want)
		}
	}
}

// TestRenormalization forces the carry-slack path and checks exactness across
// it (a value-preserving operation by construction, verified against the
// oracle).
func TestRenormalization(t *testing.T) {
	v := NewVec(1)
	// Artificially shrink the slack budget by calling normalize mid-stream.
	xs := []float64{1e-300, 1e300, -1e300, 3.5, -1e-300}
	for i, x := range xs {
		v.Add([]float64{x})
		if i%2 == 0 {
			v.normalize()
		}
	}
	var got [1]float64
	v.RoundTo(got[:])
	if want := oracleSum(xs); !bitsEq(got[0], want) {
		t.Fatalf("got %v want %v", got[0], want)
	}
}

// TestWeightedFoldMatchesFloatSemantics pins that AddScaled rounds the
// product exactly once (the float64 multiply), like every fold path.
func TestWeightedFoldMatchesFloatSemantics(t *testing.T) {
	v := NewVec(1)
	w, x := 3.1, 0.7
	v.AddScaled(w, []float64{x})
	var got [1]float64
	v.RoundTo(got[:])
	if !bitsEq(got[0], w*x) {
		t.Fatalf("got %x want %x", math.Float64bits(got[0]), math.Float64bits(w*x))
	}
}

// BenchmarkAddScaled times the fold kernel in ns per scalar on the row
// shapes the aggregation workloads feed it: one-sign rows, where a sign
// branch would always predict, and mixed-sign rows, where it would miss
// about half the time.
func BenchmarkAddScaled(b *testing.B) {
	// rows builds count rows of width dim from draw, each paired with a
	// weight in [1, maxW].
	rows := func(dim, count, maxW int, draw func(rng *rand.Rand, j int) float64) ([][]float64, []float64) {
		rng := rand.New(rand.NewSource(1))
		xs, ws := make([][]float64, count), make([]float64, count)
		for k := range xs {
			xs[k] = make([]float64, dim)
			for j := range xs[k] {
				xs[k][j] = draw(rng, j)
			}
			ws[k] = float64(1 + rng.Intn(maxW))
		}
		return xs, ws
	}
	cases := []struct {
		name      string
		dim, maxW int
		draw      func(rng *rand.Rand, j int) float64
	}{
		// The fleet's affine updates of a global model in [0.5, 1.5]:
		// every product is positive.
		{"onesign-dim256", 256, 29, func(rng *rand.Rand, j int) float64 {
			return (float64(j%17)/16+0.5)*(1+(rng.Float64()-0.5)/32) + (rng.Float64()-0.5)/32
		}},
		// round-flat's float32-valued model at its odd fold width.
		{"mixed-f32-dim65537", 65_537, 64, func(rng *rand.Rand, _ int) float64 {
			return float64(float32(rng.NormFloat64() * 0.05))
		}},
		// round-http's fold width under example-count weights.
		{"mixed-dim16673", 16_673, 1000, func(rng *rand.Rand, _ int) float64 {
			return rng.NormFloat64() * 0.05
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			xs, ws := rows(c.dim, 8, c.maxW, c.draw)
			v := NewVec(c.dim)
			for k := range xs {
				v.AddScaled(ws[k], xs[k]) // settle the window outside the timer
			}
			b.SetBytes(int64(c.dim) * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(xs)
				v.AddScaled(ws[k], xs[k])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.dim), "ns/scalar")
		})
	}
}

func BenchmarkRoundTo(b *testing.B) {
	const dim = 4096
	rng := rand.New(rand.NewSource(1))
	row := make([]float64, dim)
	for i := range row {
		row[i] = rng.NormFloat64()
	}
	v := NewVec(dim)
	for i := 0; i < 100; i++ {
		v.AddScaled(float64(1+i%17), row)
	}
	dst := make([]float64, dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.RoundTo(dst)
	}
}

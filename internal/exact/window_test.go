package exact

import (
	"math"
	"math/rand"
	"testing"
)

// tracked is a Vec plus the exact terms each scalar received, so its rounded
// sums can be checked bitwise against oracleSum.
type tracked struct {
	v     *Vec
	terms [][]float64
}

func newTracked(dim int) *tracked {
	return &tracked{v: NewVec(dim), terms: make([][]float64, dim)}
}

func (tr *tracked) addScaled(w float64, x []float64) {
	tr.v.AddScaled(w, x)
	for i, xi := range x {
		tr.terms[i] = append(tr.terms[i], w*xi)
	}
}

func (tr *tracked) reset() {
	tr.v.Reset()
	for i := range tr.terms {
		tr.terms[i] = tr.terms[i][:0]
	}
}

// check rounds the accumulator and compares every scalar with the oracle.
func (tr *tracked) check(t *testing.T, label string) {
	t.Helper()
	got := make([]float64, tr.v.Dim())
	tr.v.RoundTo(got)
	for i, g := range got {
		if want := oracleSum(tr.terms[i]); !bitsEq(g, want) {
			t.Fatalf("%s: scalar %d = %x, oracle %x", label, i, math.Float64bits(g), math.Float64bits(want))
		}
	}
	if m := tr.v.MemoryBytes(); m > VecBytes(tr.v.Dim()) {
		t.Fatalf("%s: %d bytes allocated, worst case %d", label, m, VecBytes(tr.v.Dim()))
	}
}

// scaledRow draws dim values of magnitude around 2^exp with mixed signs.
func scaledRow(rng *rand.Rand, dim, exp int) []float64 {
	x := make([]float64, dim)
	for i := range x {
		x[i] = rng.NormFloat64() * math.Ldexp(1, exp+rng.Intn(9)-4)
	}
	return x
}

// TestWindowMovesAcrossReset reuses one Vec while the workload's scale moves
// up, then down, then back: each round's sums match the oracle, no limb of
// an earlier window leaks into a later one, and a Reset keeps the planes
// already allocated.
func TestWindowMovesAcrossReset(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const dim = 24
	tr := newTracked(dim)
	if tr.v.MemoryBytes() != 0 {
		t.Fatalf("fresh Vec holds %d bytes", tr.v.MemoryBytes())
	}
	var prevBytes int64
	for round, exp := range []int{0, 300, 900, -200, -900, 0} {
		if round > 0 {
			tr.reset()
			if lo, hi := tr.v.Window(); lo < hi {
				t.Fatalf("round %d: window [%d,%d) after Reset", round, lo, hi)
			}
		}
		for k := 0; k < 20; k++ {
			tr.addScaled(float64(1+rng.Intn(60)), scaledRow(rng, dim, exp))
		}
		tr.check(t, "round "+string(rune('0'+round)))
		m := tr.v.MemoryBytes()
		if m < prevBytes {
			t.Fatalf("round %d: allocation shrank from %d to %d bytes", round, prevBytes, m)
		}
		prevBytes = m
	}
	if lo, hi := tr.v.Window(); hi-lo > 6 {
		t.Fatalf("final unit-scale window [%d,%d) is not narrow", lo, hi)
	}
}

// TestSubnormalsAndHugeValuesInOneVec spans the whole limb range in one
// accumulator: subnormals, near-MaxFloat64 magnitudes and ordinary values
// folded together, allocating down to plane 0 and up to the top plane.
func TestSubnormalsAndHugeValuesInOneVec(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const dim = 6
	tr := newTracked(dim)
	draw := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return math.Ldexp(float64(1+rng.Intn(1<<30)), -1074) // subnormal
		case 1:
			return -math.Ldexp(float64(1+rng.Intn(1<<20)), -1074)
		case 2:
			return math.MaxFloat64 / float64(4+rng.Intn(64)) * float64(1-2*rng.Intn(2))
		default:
			return rng.NormFloat64()
		}
	}
	for k := 0; k < 60; k++ {
		x := make([]float64, dim)
		for i := range x {
			x[i] = draw()
		}
		tr.addScaled(1, x)
	}
	tr.check(t, "mixed range")
	if lo, hi := tr.v.Window(); lo != 0 || hi < limbsPerAcc-1 {
		t.Fatalf("window [%d,%d) does not span the range", lo, hi)
	}
}

// TestMergeBetweenDisjointPlanes merges accumulators whose allocated planes
// do not overlap, through AddVec and through Serialize/Absorb, in both
// directions.
func TestMergeBetweenDisjointPlanes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const dim = 9
	small, big := newTracked(dim), newTracked(dim)
	for k := 0; k < 10; k++ {
		small.addScaled(float64(1+k), scaledRow(rng, dim, -600))
		big.addScaled(float64(1+k), scaledRow(rng, dim, 600))
	}
	if small.v.top > big.v.base {
		t.Fatalf("planes overlap: [%d,%d) and [%d,%d)", small.v.base, small.v.top, big.v.base, big.v.top)
	}
	union := func(a, b *tracked) *tracked {
		u := newTracked(dim)
		for i := range u.terms {
			u.terms[i] = append(append([]float64(nil), a.terms[i]...), b.terms[i]...)
		}
		return u
	}
	// AddVec upward and downward into a copy of each side.
	for _, pair := range [][2]*tracked{{small, big}, {big, small}} {
		dst := union(pair[0], pair[1])
		if err := dst.v.Absorb(pair[0].v.Serialize()); err != nil {
			t.Fatal(err)
		}
		if err := dst.v.AddVec(pair[1].v); err != nil {
			t.Fatal(err)
		}
		dst.check(t, "AddVec")
	}
	// Absorb into a Vec that already holds the other side's planes.
	for _, pair := range [][2]*tracked{{small, big}, {big, small}} {
		dst := union(pair[0], pair[1])
		if err := dst.v.AddVec(pair[0].v); err != nil {
			t.Fatal(err)
		}
		if err := dst.v.Absorb(pair[1].v.Serialize()); err != nil {
			t.Fatal(err)
		}
		dst.check(t, "Absorb")
	}
}

// TestNormalizeCarriesIntoUnallocatedPlane drives a carry out of the top of
// the touched window — a negative sum's sign, and a positive top limb past
// 2^32 — into a plane no addition has reached, which normalize allocates.
func TestNormalizeCarriesIntoUnallocatedPlane(t *testing.T) {
	neg := newTracked(3)
	neg.addScaled(1, []float64{-1.5, 2, -3})
	_, hi := neg.v.Window()
	if neg.v.top != hi {
		t.Fatalf("plane %d already allocated (slab to %d)", hi, neg.v.top)
	}
	neg.check(t, "negative")
	if _, h := neg.v.Window(); h != hi+1 || neg.v.top < h {
		t.Fatalf("window top %d, slab top %d after carry out of plane %d", h, neg.v.top, hi-1)
	}

	// (2^53-1)·2^13 sits at bit offset 31 of its base limb, putting a 20-bit
	// delta in the window's top plane; 5000 of them overflow that plane's 32
	// canonical bits.
	pos := newTracked(1)
	x := []float64{math.Ldexp(1<<53-1, 13)}
	for k := 0; k < 5000; k++ {
		pos.addScaled(1, x)
	}
	_, hi = pos.v.Window()
	pos.check(t, "positive overflow")
	if _, h := pos.v.Window(); h != hi+1 {
		t.Fatalf("window top %d, want %d after the top plane carried", h, hi+1)
	}
}

// TestAddDecompZeroSlotsPlaneZeroUnallocated replays a decomposition whose
// zero slots — leading, interior and trailing — sit beside normal values far
// above plane 0, into a Vec that never allocated plane 0.
func TestAddDecompZeroSlotsPlaneZeroUnallocated(t *testing.T) {
	x := []float64{0, 0, 1.5, 0, -2.25, 1e10, 0, -3, 0}
	const w, a, c = 3, 1, 0
	direct := NewVec(len(x))
	replay := NewVec(len(x))
	var d Decomp
	d.From(w, a, c, x)
	for rep := 0; rep < 3; rep++ {
		direct.AddScaledAffine(w, a, c, x)
		replay.AddDecomp(&d)
	}
	// Leading zeros must not widen an empty window down to plane 0 on any
	// add path.
	scaled := NewVec(len(x))
	scaled.AddScaled(w, x)
	for _, u := range []*Vec{replay, direct, scaled} {
		lo, hi := u.Window()
		if dl, dh := direct.Window(); lo != dl || hi != dh || u.base == 0 {
			t.Fatalf("window [%d,%d) from slab plane %d, want [%d,%d) above plane 0", lo, hi, u.base, dl, dh)
		}
	}
	got, want := make([]float64, len(x)), make([]float64, len(x))
	replay.RoundTo(got)
	direct.RoundTo(want)
	for i := range got {
		oracle := oracleSum([]float64{w * x[i], w * x[i], w * x[i]})
		if !bitsEq(got[i], want[i]) || !bitsEq(got[i], oracle) {
			t.Fatalf("scalar %d: replay %v, direct %v, oracle %v", i, got[i], want[i], oracle)
		}
	}

	// A decomposition with no normal value allocates nothing.
	empty := NewVec(3)
	d.From(1, 1, 0, []float64{0, 0, -0.0})
	empty.AddDecomp(&d)
	if lo, hi := empty.Window(); lo < hi || empty.MemoryBytes() != 0 {
		t.Fatalf("all-zero replay touched window [%d,%d), %d bytes", lo, hi, empty.MemoryBytes())
	}
}

// TestSteadyStateAddsAllocateNothing pins the hot paths at zero allocations
// once the planes their workload touches exist: every add shape, both
// merges, rounding and Reset.
func TestSteadyStateAddsAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const dim = 256
	x := scaledRow(rng, dim, 0)
	var d Decomp
	d.From(7, 1.25, 0.5, x)
	other := NewVec(dim)
	other.AddScaled(3, x)
	ser := other.Serialize()
	dst := make([]float64, dim)
	v := NewVec(dim)
	step := func() {
		v.AddScaled(float64(1+rng.Intn(9)), x)
		v.AddScaledAffine(5, 1.5, -0.25, x)
		v.AddDecomp(&d)
		if err := v.AddVec(other); err != nil {
			t.Fatal(err)
		}
		if err := v.Absorb(ser); err != nil {
			t.Fatal(err)
		}
		v.RoundTo(dst)
		v.Reset()
	}
	step() // warm-up: allocates the planes, the carry row
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Fatalf("steady-state adds allocate %v times per run", allocs)
	}
}

// Package exact provides an error-free weighted-sum accumulator for float64
// vectors — the numeric foundation of hierarchical FedAvg aggregation.
//
// Floating-point addition is not associative, so a tree of partial sums is in
// general *not* bit-identical to a flat left-to-right fold: the two paths
// round at different points. BoFL's aggregation tree needs the opposite
// guarantee — the root commit must be byte-identical to the flat streaming
// fold for any tree shape — so the fold is built on a fixed-point
// superaccumulator instead: every product w·v (rounded once, by the ordinary
// float64 multiply, identically on every path) is added *exactly* into a
// 2112-bit two's-complement accumulator. Exact addition is associative and
// commutative, so any grouping of the leaves — flat, binary tree, fanout-64
// tree with ragged tails, arrival-order folds inside a discrete-event
// simulator, concurrent subtree folds merged in completion order — produces
// the same accumulator state bit for bit. Rounding back to float64 happens
// exactly once, at the root commit.
//
// Representation: per accumulated scalar, 66 little-endian limbs of radix
// 2^32 held in int64 words, so each limb keeps 31 bits of carry slack. Limb k
// carries bit positions [32k, 32k+32) of the fixed-point value, with bit 0
// pinned at 2^-1074 (the smallest subnormal): the full double range
// [2^-1074, 2^1024) spans bits 0..2097, and the top limb's slack absorbs
// sums beyond the float range (they round to ±Inf). A float64 contributes its
// 53-bit significand across at most three adjacent limbs, so an Add is a
// handful of shifts and three integer adds — no branches on data magnitude.
// The slack supports ≥ 2^29 additions between carry normalizations; the
// accumulator renormalizes itself (an exact, value-preserving operation)
// long before that bound.
//
// Storage is plane-major: limb plane k of every scalar is contiguous
// (plane k holds limb k of scalar 0, 1, …, dim-1). Well-scaled workloads
// touch a narrow limb window, so the planes an Add writes, a Reset clears,
// and a Serialize/Absorb/AddVec walks are a handful of contiguous runs — the
// layout that lets the fleet simulator's fold hot path stream instead of
// striding 528 bytes between scalars. Planes are allocated on first touch:
// a Vec holds one slab covering the planes its window has reached, grown on
// demand and kept across Reset, so an accumulator costs what its workload
// touches (a few planes) rather than all 66 (VecBytes, the worst case).
//
// Specials (±Inf, NaN) cannot live in fixed point; they are tracked as
// per-scalar sticky flags with IEEE-like semantics: NaN poisons, +Inf and
// -Inf together make NaN, a lone infinity wins over any finite sum.
package exact

import (
	"fmt"
	"math"
	"math/bits"
)

// limbBits is the radix width; limbsPerAcc covers bit positions 0..2111 with
// bit 0 = 2^-1074, enough for any sum of finite float64 products plus carry
// headroom above 2^1023.
const (
	limbBits    = 32
	limbMask    = (1 << limbBits) - 1
	limbsPerAcc = 66

	// bias maps a float64's bit position onto the accumulator: a value's
	// least significant bit sits at accumulator bit (unbiasedExp + 1074).
	bias = 1074

	// renormAfter bounds unnormalized additions: each Add changes a limb by
	// < 2^33, so 2^29 adds stay well inside the int64 range (2^62).
	renormAfter = 1 << 29
)

// pow2[s] = 2^s for s in [0, 32): the multiplier table that turns AddScaled's
// variable significand shift into one widening multiply.
var pow2 = func() (t [32]uint64) {
	for s := range t {
		t[s] = 1 << s
	}
	return
}()

// special flags, per scalar.
const (
	flagNaN = 1 << iota
	flagPosInf
	flagNegInf
)

// Vec is a vector of exact accumulators, one per scalar of a parameter
// vector. The zero Vec is not usable; construct with NewVec.
type Vec struct {
	dim int
	// planes is the allocated slab: limb planes [base, top), plane-major,
	// limb k of scalar i at planes[(k-base)·dim + i]. It always covers the
	// touched window, and every plane outside the window is zero.
	planes    []int64
	base, top int
	// loLimb/hiLimb bound the limb window any scalar has touched: [lo, hi).
	// Serialization, merging and rounding only walk the window, so a
	// well-scaled workload pays for the limbs it uses, not the full range.
	loLimb, hiLimb int
	// adds counts magnitude-bearing additions since the last carry
	// normalization (AddVec transfers the counter of the absorbed side).
	adds int64
	// specials holds per-scalar sticky flags; nil until a special arrives.
	specials []uint8
	// carry is normalize's per-scalar carry scratch, allocated on first use.
	carry []int64
}

// NewVec builds an exact accumulator for dim-scalar vectors. No limb plane
// is allocated until an addition reaches it.
func NewVec(dim int) *Vec {
	if dim < 0 {
		dim = 0
	}
	return &Vec{dim: dim, loLimb: limbsPerAcc}
}

// Dim returns the vector width.
func (v *Vec) Dim() int { return v.dim }

// Reset zeroes the accumulator for reuse. Only the touched window is cleared
// — one contiguous run in the plane-major layout — and the allocated planes
// are kept, so resetting a fresh or well-scaled accumulator is cheap.
func (v *Vec) Reset() {
	if v.loLimb < v.hiLimb {
		clear(v.slab(v.loLimb, v.hiLimb))
	}
	v.loLimb, v.hiLimb = limbsPerAcc, 0
	v.adds = 0
	v.specials = nil
}

// Window returns the touched limb window [lo, hi); lo ≥ hi means untouched.
func (v *Vec) Window() (lo, hi int) { return v.loLimb, v.hiLimb }

// slab returns the storage of allocated planes [lo, hi).
func (v *Vec) slab(lo, hi int) []int64 {
	return v.planes[(lo-v.base)*v.dim : (hi-v.base)*v.dim]
}

// special returns the flag byte for scalar i.
func (v *Vec) special(i int) uint8 {
	if v.specials == nil {
		return 0
	}
	return v.specials[i]
}

// orSpecial merges flags into scalar i's sticky byte.
func (v *Vec) orSpecial(i int, f uint8) {
	if f == 0 {
		return
	}
	if v.specials == nil {
		v.specials = make([]uint8, v.dim)
	}
	v.specials[i] |= f
}

// widen grows the touched window to include limbs [lo, hi), first
// allocating any plane the window reaches for the first time. The add loops
// never call it: they stop at the first product outside the window, so
// growth (and its reallocation) stays out of the hot path.
func (v *Vec) widen(lo, hi int) {
	lo = min(lo, v.loLimb)
	hi = max(hi, v.hiLimb)
	if lo < v.base || hi > v.top {
		if v.top > v.base {
			lo, hi := min(lo, v.base), max(hi, v.top)
			planes := make([]int64, (hi-lo)*v.dim)
			copy(planes[(v.base-lo)*v.dim:], v.planes)
			v.planes, v.base, v.top = planes, lo, hi
		} else {
			v.planes, v.base, v.top = make([]int64, (hi-lo)*v.dim), lo, hi
		}
	}
	v.loLimb, v.hiLimb = lo, hi
}

// addBits adds the float64 with bit pattern b into scalar i — the general
// path behind the inlined add loops: specials, subnormals and products that
// widen the window. ±0 adds nothing and touches no plane.
func (v *Vec) addBits(i int, b uint64) {
	if b<<1 == 0 {
		return
	}
	exp := int(b>>52) & 0x7FF
	frac := b & (1<<52 - 1)
	if exp == 0x7FF {
		switch {
		case frac != 0:
			v.orSpecial(i, flagNaN)
		case b>>63 != 0:
			v.orSpecial(i, flagNegInf)
		default:
			v.orSpecial(i, flagPosInf)
		}
		return
	}
	if exp == 0 {
		// Subnormal: same scale as exponent 1, no implicit bit — the
		// significand lands at bit 0, spanning limb planes 0 and 1.
		exp = 1
	} else {
		frac |= 1 << 52
	}
	pos := exp - 1
	limb := pos >> 5
	high, low := bits.Mul64(frac, pow2[pos&31])
	v.widen(limb, limb+3)
	p := v.slab(limb, limb+3)
	dim := v.dim
	if int64(b) < 0 {
		p[i] -= int64(low & limbMask)
		p[dim+i] -= int64(low >> limbBits)
		p[2*dim+i] -= int64(high)
	} else {
		p[i] += int64(low & limbMask)
		p[dim+i] += int64(low >> limbBits)
		p[2*dim+i] += int64(high)
	}
}

// bumpAdds charges n additions against the carry slack, renormalizing first
// when the budget would run out. Renormalization is exact, so *when* it runs
// never affects the rounded result.
func (v *Vec) bumpAdds(n int64) {
	if v.adds+n >= renormAfter {
		v.normalize()
	}
	v.adds += n
}

// Add adds x[i] exactly into scalar i for every i. len(x) must equal Dim.
func (v *Vec) Add(x []float64) {
	// 1·x is exact for every float64 (including ±0, subnormals and specials),
	// so Add shares AddScaled's inlined hot loop.
	v.AddScaled(1, x)
}

// AddScaled adds w·x[i] into scalar i for every i. The product is rounded
// once by the ordinary float64 multiply — the same rounding every aggregation
// path performs — and then accumulated exactly.
func (v *Vec) AddScaled(w float64, x []float64) {
	v.checkDim(len(x))
	v.bumpAdds(1)
	for i := v.scaledRun(w, x, 0); i < len(x); i = v.scaledRun(w, x, i+1) {
		v.addBits(i, math.Float64bits(w*x[i]))
	}
}

// scaledRun is the fold hot path: it adds w·x[i] for i = from, from+1, …
// and returns the index of the first product it cannot place — a special, a
// subnormal, or a normal value whose limbs reach outside the touched window
// (len(x) when none). The loop makes no calls and tracks no window bounds:
// the decomposition is inlined, the three limb writes of scalar i land dim
// words apart (adjacent planes), and one unsigned compare keeps them inside
// the window.
func (v *Vec) scaledRun(w float64, x []float64, from int) int {
	lo, hi := v.loLimb, v.hiLimb
	if hi-lo < 3 {
		return from
	}
	span := uint(hi - 3 - lo)
	dim := v.dim
	p := v.planes[(lo-v.base)*dim:]
	for i := from; i < len(x); i++ {
		b := math.Float64bits(w * x[i])
		exp := int(b>>52) & 0x7FF
		if uint(exp-1) >= 0x7FE { // subnormal, zero or special
			if b<<1 == 0 {
				continue // ±0 contributes nothing
			}
			return i
		}
		// Value = frac · 2^(exp-1075); its least significant bit sits at
		// accumulator bit pos = (exp-1075) + bias = exp - 1. The widening
		// multiply by 2^(pos mod 32) is the 85-bit shift-and-split in one
		// µop — no variable shifts, no shift-amount branches.
		pos := exp - 1
		rel := pos>>5 - lo
		if uint(rel) > span {
			return i
		}
		high, low := bits.Mul64(b&(1<<52-1)|1<<52, pow2[pos&31])
		base := rel*dim + i
		// All three loads issue before any store: with power-of-two dims the
		// first store and the plane+2 load sit exactly 2·8·dim bytes apart,
		// and store-before-load ordering would trip 4K-aliasing false
		// dependences that serialize the loop.
		d0, d1, d2 := p[base], p[base+dim], p[base+2*dim]
		if int64(b) < 0 {
			d0 -= int64(low & limbMask)
			d1 -= int64(low >> limbBits)
			d2 -= int64(high)
		} else {
			d0 += int64(low & limbMask)
			d1 += int64(low >> limbBits)
			d2 += int64(high)
		}
		p[base] = d0
		p[base+dim] = d1
		p[base+2*dim] = d2
	}
	return len(x)
}

func (v *Vec) checkDim(n int) {
	if n != v.dim {
		panic(fmt.Sprintf("exact: vector length %d, accumulator dim %d", n, v.dim))
	}
}

// AddVec merges o into v exactly: afterwards v holds the sum of everything
// either accumulator had absorbed. This is the tree-aggregation merge; it is
// associative by construction. o is left unchanged.
func (v *Vec) AddVec(o *Vec) error {
	if o.dim != v.dim {
		return fmt.Errorf("exact: merge dim %d into dim %d", o.dim, v.dim)
	}
	if o.loLimb < o.hiLimb {
		// Each merged limb may carry up to o.adds' worth of magnitude.
		v.bumpAdds(max(o.adds, 1))
		v.widen(o.loLimb, o.hiLimb)
		dst := v.slab(o.loLimb, o.hiLimb)
		for j, d := range o.slab(o.loLimb, o.hiLimb) {
			dst[j] += d
		}
	}
	if o.specials != nil {
		for i, f := range o.specials {
			v.orSpecial(i, f)
		}
	}
	return nil
}

// normalize propagates carries to canonical two's-complement form: every
// limb below the top of the window is in [0, 2^32); the top limb keeps the
// sign. Exact: the represented value is unchanged. Called only at rounding
// time and for carry-slack relief, never on the serialization path, so
// partial frames keep their compact windows.
//
// The plane-major layout turns the per-scalar carry chains into a batched
// sweep: one pass per limb plane with a dim-wide carry row, so the whole
// vector normalizes in contiguous memory instead of dim separate strided
// chains. A residual carry out of the top processed plane is parked in the
// next plane up, which becomes the new signed top limb — for a negative sum
// this replaces the old sign-extension walk to the array top, and the window
// grows by at most one plane (allocated here if the window never reached it).
func (v *Vec) normalize() {
	if v.loLimb >= v.hiLimb {
		v.adds = 0
		return
	}
	dim := v.dim
	if cap(v.carry) < dim {
		v.carry = make([]int64, dim)
	}
	carry := v.carry[:dim]
	clear(carry)
	top := v.hiLimb
	if top == limbsPerAcc {
		top = limbsPerAcc - 1 // the last plane stays signed; never canonicalized
	}
	for k := v.loLimb; k < top; k++ {
		plane := v.slab(k, k+1)
		for i, d := range plane {
			t := d + carry[i]
			carry[i] = t >> limbBits // arithmetic shift: floor division
			plane[i] = t & limbMask
		}
	}
	for j, c := range carry {
		if c != 0 {
			v.widen(v.loLimb, top+1)
			plane := v.slab(top, top+1)
			for i := j; i < dim; i++ {
				plane[i] += carry[i]
			}
			break
		}
	}
	v.adds = 1
	// The bottom of the window cannot move down, and zero limbs at the
	// bottom are harmless; leave loLimb as-is.
}

// RoundTo writes the correctly rounded (nearest-even) float64 value of every
// scalar into dst, which must have length Dim. The accumulator is left
// normalized but intact — rounding is read-only with respect to the sum.
func (v *Vec) RoundTo(dst []float64) {
	v.checkDim(len(dst))
	v.normalize()
	var mag [limbsPerAcc]uint64
	for i := range dst {
		dst[i] = v.roundScalar(i, &mag)
	}
}

// roundScalar rounds scalar i. mag is caller scratch for the magnitude limbs.
func (v *Vec) roundScalar(i int, mag *[limbsPerAcc]uint64) float64 {
	if f := v.special(i); f != 0 {
		switch {
		case f&flagNaN != 0, f&(flagPosInf|flagNegInf) == flagPosInf|flagNegInf:
			return math.NaN()
		case f&flagPosInf != 0:
			return math.Inf(1)
		default:
			return math.Inf(-1)
		}
	}
	dim := v.dim
	lo, hi := v.loLimb, v.hiLimb
	if lo >= hi {
		return 0
	}
	// After normalize, limbs below hi-1 are in [0, 2^32); the top limb is
	// signed and dominates the sign. Limb k of scalar i is at
	// limbs[(k-lo)·dim + i].
	limbs := v.slab(lo, hi)
	neg := limbs[(hi-1-lo)*dim+i] < 0
	if !neg {
		for k := lo; k < hi; k++ {
			mag[k] = uint64(limbs[(k-lo)*dim+i])
		}
	} else {
		// Negate the two's-complement digit string to get the magnitude:
		// m_k = (2^32 - d_k - borrow) mod 2^32, with the signed top limb
		// absorbing the final borrow.
		var borrow uint64
		for k := lo; k < hi-1; k++ {
			d := uint64(limbs[(k-lo)*dim+i]) // in [0, 2^32) after normalize
			mag[k] = (0 - d - borrow) & limbMask
			if d != 0 || borrow != 0 {
				borrow = 1
			}
		}
		mag[hi-1] = uint64(-(limbs[(hi-1-lo)*dim+i] + int64(borrow)))
	}
	// Locate the most significant set bit.
	msLimb := -1
	for k := hi - 1; k >= lo; k-- {
		if mag[k] != 0 {
			msLimb = k
			break
		}
	}
	if msLimb < 0 {
		return 0 // exact zero keeps the +0 sign, like a float64 sum reset to 0
	}
	msBit := msLimb*limbBits + 63 - bits.LeadingZeros64(mag[msLimb])
	// Unbiased exponent of the leading bit.
	e := msBit - bias
	if e > 1023 {
		if neg {
			return math.Inf(-1)
		}
		return math.Inf(1)
	}
	if e < -1022 {
		// Entirely within subnormal range: every bit position ≥ 0 is
		// representable, so the value is exact. msBit ≤ 51 here.
		frac := v.gatherBits(mag, lo, 0, msBit)
		b := frac
		if neg {
			b |= 1 << 63
		}
		return math.Float64frombits(b)
	}
	// Normal: significand bits msBit..msBit-52, guard at msBit-53, sticky
	// below.
	sig := v.gatherBits(mag, lo, msBit-52, msBit)
	guard := uint64(0)
	if g := msBit - 53; g >= 0 {
		guard = v.gatherBits(mag, lo, g, g)
	}
	sticky := false
	if s := msBit - 54; s >= 0 {
		sticky = v.anyBitsBelow(mag, lo, s)
	}
	if guard == 1 && (sticky || sig&1 == 1) {
		sig++
		if sig == 1<<53 {
			sig >>= 1
			e++
			if e > 1023 {
				if neg {
					return math.Inf(-1)
				}
				return math.Inf(1)
			}
		}
	}
	b := uint64(e+1023)<<52 | (sig &^ (1 << 52))
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b)
}

// gatherBits extracts bit positions [from, to] (inclusive, to ≥ from) of the
// magnitude digit string as a uint64; positions below limb lo (or 0) read 0.
func (v *Vec) gatherBits(mag *[limbsPerAcc]uint64, loLimb, from, to int) uint64 {
	if from < 0 {
		from = 0
	}
	var out uint64
	for k := from >> 5; k <= to>>5 && k < limbsPerAcc; k++ {
		if k < loLimb {
			continue
		}
		d := mag[k]
		limbBase := k * limbBits
		shift := from - limbBase
		if shift > 0 {
			d >>= uint(shift)
			limbBase = from
		}
		out |= d << uint(limbBase-from)
	}
	width := uint(to - from + 1)
	if width < 64 {
		out &= 1<<width - 1
	}
	return out
}

// anyBitsBelow reports whether any bit at position ≤ to is set.
func (v *Vec) anyBitsBelow(mag *[limbsPerAcc]uint64, loLimb, to int) bool {
	if to < 0 {
		return false
	}
	full := to >> 5
	for k := loLimb; k < full && k < limbsPerAcc; k++ {
		if mag[k] != 0 {
			return true
		}
	}
	if full >= limbsPerAcc || full < loLimb {
		return false
	}
	rem := uint(to - full*limbBits + 1)
	return mag[full]&(1<<rem-1) != 0
}

// --- serialization ------------------------------------------------------

// Serialized is the portable form of a Vec: the touched limb window of every
// scalar plus the sticky special flags — what a tier aggregator ships to its
// parent inside a BFL1 partial-aggregate frame. Limbs are plane-major,
// matching Vec storage: limb plane k ∈ [Lo, Hi) occupies
// Limbs[(k-Lo)·Dim : (k-Lo+1)·Dim], scalar i at offset i.
type Serialized struct {
	Dim      int
	Lo, Hi   int      // limb window [Lo, Hi)
	Adds     int64    // carry-slack charge carried by the window
	Limbs    []uint64 // int64 limbs bit-cast; len = Dim·(Hi-Lo)
	Specials []uint8  // nil when no scalar holds a special
}

// SerializeInto snapshots the accumulator into s, reusing s.Limbs when it has
// capacity — the zero-allocation path for per-node partial frames. The
// snapshot shares no storage with v.
func (v *Vec) SerializeInto(s *Serialized) {
	s.Dim = v.dim
	s.Adds = v.adds
	s.Specials = nil
	if v.loLimb >= v.hiLimb {
		s.Lo, s.Hi = 0, 0
		s.Limbs = s.Limbs[:0]
	} else {
		s.Lo, s.Hi = v.loLimb, v.hiLimb
		n := v.dim * (s.Hi - s.Lo)
		if cap(s.Limbs) < n {
			s.Limbs = make([]uint64, n)
		}
		s.Limbs = s.Limbs[:n]
		for j, d := range v.slab(s.Lo, s.Hi) {
			s.Limbs[j] = uint64(d)
		}
	}
	if v.specials != nil {
		s.Specials = append([]uint8(nil), v.specials...)
	}
}

// Serialize snapshots the accumulator. The snapshot shares no storage with v.
func (v *Vec) Serialize() Serialized {
	var s Serialized
	v.SerializeInto(&s)
	if len(s.Limbs) == 0 {
		s.Limbs = nil
	}
	return s
}

// Absorb merges a serialized accumulator into v exactly — the deserializing
// half of a tier merge. It validates the window and length so a corrupt
// partial frame cannot write out of bounds.
func (v *Vec) Absorb(s Serialized) error {
	if s.Dim != v.dim {
		return fmt.Errorf("exact: absorb dim %d into dim %d", s.Dim, v.dim)
	}
	if s.Lo > s.Hi || s.Lo < 0 || s.Hi > limbsPerAcc {
		return fmt.Errorf("exact: absorb window [%d, %d)", s.Lo, s.Hi)
	}
	w := s.Hi - s.Lo
	if len(s.Limbs) != s.Dim*w {
		return fmt.Errorf("exact: absorb %d limbs, want %d", len(s.Limbs), s.Dim*w)
	}
	if s.Specials != nil && len(s.Specials) != s.Dim {
		return fmt.Errorf("exact: absorb %d special flags, want %d", len(s.Specials), s.Dim)
	}
	if w > 0 {
		// An honest encoder's limbs are bounded by its carry-slack charge; a
		// frame claiming more is corrupt and must not be able to overflow the
		// int64 limbs on merge.
		const maxLimbMag = int64(1) << 62
		for _, l := range s.Limbs {
			if sl := int64(l); sl > maxLimbMag || sl < -maxLimbMag {
				return fmt.Errorf("exact: absorb limb magnitude %d exceeds bound", sl)
			}
		}
		charge := s.Adds
		if charge < 1 {
			charge = 1
		}
		if charge > renormAfter {
			// A hostile Adds cannot force overflow: renormalize now and
			// treat the incoming window as fully charged.
			v.normalize()
			charge = renormAfter - 1
		}
		v.bumpAdds(charge)
		v.widen(s.Lo, s.Hi)
		dst := v.slab(s.Lo, s.Hi)
		for j, l := range s.Limbs {
			dst[j] += int64(l)
		}
	}
	for i, f := range s.Specials {
		v.orSpecial(i, f)
	}
	return nil
}

// MemoryBytes reports the accumulator's allocated limb storage: the planes
// its window has reached so far, 0 for a fresh Vec.
func (v *Vec) MemoryBytes() int64 { return int64(len(v.planes)) * 8 }

// VecBytes is the worst-case limb storage of one dim-scalar accumulator, all
// 66 planes allocated — the per-accumulator bound memory accounting checks
// (MemoryBytes never exceeds it).
func VecBytes(dim int) int64 {
	if dim < 0 {
		dim = 0
	}
	return int64(dim) * limbsPerAcc * 8
}

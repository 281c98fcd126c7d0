package exact

// Precomputed decompositions. A Vec add spends most of its time turning
// float64 values into limb deltas (exponent extraction, significand split);
// when the same weighted vector is folded into many accumulators — the fleet
// simulator's synthetic workload cycles through a small set of affine updates
// of one shared model — that work can be done once and replayed as pure
// integer adds. Replaying a Decomp is bit-identical to the AddScaledAffine
// call it memoizes: exact addition has no rounding, so *how* a contribution
// was decomposed can never show in the result. Pinned by
// TestAddDecompMatchesAddScaledAffine.
//
// Replay is memory-bound (each call streams the whole decomposition), so the
// storage is packed to 12 bytes per scalar: the two 32-bit delta magnitudes
// share a word, and the base limb, sign and the ≤21-bit top delta share
// another. Scalar index is implied by position — zeros and slow-path shapes
// hold a zero-delta slot so the layout stays dense. A zero slot still names
// a base limb, and replay writes its three limbs, so it borrows the base limb
// of a normal slot: every plane replay touches is inside the decomposition's
// window, which AddDecomp allocates before its loop.

import (
	"math"
	"math/bits"
)

// meta word layout: bits 0-6 base limb, bit 7 sign, bits 8-28 top delta.
const (
	decompLimbBits = 7
	decompLimbMask = 1<<decompLimbBits - 1
	decompSignBit  = 1 << decompLimbBits
	decompTopShift = decompLimbBits + 1
)

// Decomp is the precomputed exact decomposition of w·(a·x + c) for one
// (w, a, c, x): per-scalar limb deltas ready to replay into any same-dim Vec.
type Decomp struct {
	dim    int
	lo, hi int      // limb window the deltas touch
	lohi   []uint64 // low 32 bits: plane-0 delta magnitude; high: plane-1
	meta   []uint32 // packed limb/sign/plane-2 delta
	// slow carries the rare shapes (specials, subnormals) replayed through
	// the Vec slow path, keyed by scalar index.
	slow  []int32
	slowB []uint64
}

// Dim returns the decomposition's vector width.
func (d *Decomp) Dim() int { return d.dim }

// From fills d with the decomposition of w·(a·x[i] + c), reusing d's storage.
// The inner affine map and the weighting round exactly like AddScaledAffine's
// (and therefore like the two-instruction float64 reference).
func (d *Decomp) From(w, a, c float64, x []float64) {
	dim := len(x)
	d.dim = dim
	if cap(d.lohi) < dim {
		d.lohi = make([]uint64, dim)
		d.meta = make([]uint32, dim)
	}
	d.lohi = d.lohi[:dim]
	d.meta = d.meta[:dim]
	d.slow = d.slow[:0]
	d.slowB = d.slowB[:0]
	lo, hi := limbsPerAcc, 0
	// fill is the base limb zero slots borrow: the first normal slot's, or
	// -1 while none has been seen (zero slots before it are patched below).
	fill, lead := -1, 0
	for i, xi := range x {
		t := a*xi + c
		b := math.Float64bits(w * t)
		exp := int(b>>52) & 0x7FF
		if uint(exp-1) >= 0x7FE {
			d.lohi[i] = 0
			d.meta[i] = uint32(max(fill, 0))
			if fill < 0 {
				lead = i + 1
			}
			if b<<1 != 0 {
				d.slow = append(d.slow, int32(i))
				d.slowB = append(d.slowB, b)
			}
			continue
		}
		frac := b&(1<<52-1) | 1<<52
		pos := exp - 1
		limb := pos >> 5
		high, low := bits.Mul64(frac, pow2[pos&31])
		m := uint32(limb) | uint32(high)<<decompTopShift
		if int64(b) < 0 {
			m |= decompSignBit
		}
		d.lohi[i] = low
		d.meta[i] = m
		if fill < 0 {
			fill = limb
		}
		if limb < lo {
			lo = limb
		}
		if limb+3 > hi {
			hi = limb + 3
		}
	}
	if fill > 0 {
		for i := range d.meta[:lead] {
			d.meta[i] = uint32(fill)
		}
	}
	d.lo, d.hi = lo, hi
}

// AddDecomp replays a precomputed decomposition into v — bit-identical to
// the AddScaledAffine call d was built from, at a fraction of the cost: the
// hot loop is three integer read-modify-writes per scalar, fed from 12 bytes
// of packed deltas.
func (v *Vec) AddDecomp(d *Decomp) {
	v.checkDim(d.dim)
	v.bumpAdds(1)
	if d.lo < d.hi {
		// Widen before the loop, so the loop itself only adds. Slots name
		// absolute base limbs; the slab starts at plane v.base.
		v.widen(d.lo, d.hi)
		dim := v.dim
		limbs, off := v.planes, v.base*dim
		lohi := d.lohi
		for i, m := range d.meta {
			lh := lohi[i]
			base := int(m&decompLimbMask)*dim - off + i
			d0 := int64(lh & limbMask)
			d1 := int64(lh >> limbBits)
			d2 := int64(m >> decompTopShift)
			if m&decompSignBit != 0 {
				d0, d1, d2 = -d0, -d1, -d2
			}
			// Loads before stores — see scaledRun for the 4K-aliasing
			// rationale.
			s0 := limbs[base] + d0
			s1 := limbs[base+dim] + d1
			s2 := limbs[base+2*dim] + d2
			limbs[base] = s0
			limbs[base+dim] = s1
			limbs[base+2*dim] = s2
		}
	}
	for k, i := range d.slow {
		v.addBits(int(i), d.slowB[k])
	}
}

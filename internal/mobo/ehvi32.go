package mobo

import "math"

// Float32 pre-screen for the EHVI candidate scan, the scan SuggestBatch
// always runs.
//
// The pre-screen scores every live candidate with float32 arithmetic and
// polynomial approximations of exp and erfc, keeps the slice of candidates
// whose approximate score is within a factor of two of the approximate
// maximum, and re-scores only that slice with the exact float64 path.
// Selection then runs on exact float64 values with the usual
// lowest-index-wins rule, so the picked candidates are bit-identical to the
// all-float64 scan (suggestBatch's exact mode, kept as the tests' oracle):
// the approximation only decides how much of the candidate set can be
// skipped, never which candidate wins.
//
// The factor-of-two margin holds because every helper's error is relative,
// not absolute, so it does not grow with the objectives' units. Measured
// against the float64 twins (TestFloat32HelpersErrorGrid bounds them):
//   - exp32: ≤ 3.3e-6 relative.
//   - psi32 at t = (c − mu)/σ: ≤ 4.2e-7 for t ≥ 0, ≤ 1.7e-5 on [−2, 0) and
//     ≤ 0.83% on [−4, −2), where A&S 7.1.26's absolute error starts to
//     show; ≤ 0.05% on the left tail t ∈ [−13, −4), which a continued
//     fraction computes without cancellation.
//   - lognormalMoments32: mean ≤ 3.2e-6 and σ ≤ 5.6e-6 relative for
//     log-space σ in [1e-6, 3], with e^(s²) − 1 taken from its series at
//     small s² so the subtraction cannot cancel.
//
// The scan falls back to the full float64 path whenever the float32 maximum
// is below prescreenMin, the exhaustion regime where scores sink towards
// float32's subnormal range and exp32's flush to zero, and relative error
// no longer holds.

const (
	invSqrt2f   float32 = 0.70710678118654752
	invSqrt2Pif float32 = 0.39894228040143268
)

// exp32 is a range-reduced polynomial e^x: x = k·ln2 + r with |r| ≤ ln2/2,
// e^x = 2^k · e^r, e^r by a degree-5 Taylor polynomial (relative error
// ≤ 3.3e-6, largest at the ends of the reduced interval).
func exp32(x float32) float32 {
	const (
		log2e float32 = 1.4426950408889634
		ln2hi float32 = 6.9314575195e-01
		ln2lo float32 = 1.4286067653e-06
	)
	if x > 88 {
		return float32(math.Inf(1))
	}
	if x < -87 {
		return 0
	}
	kf := x * log2e
	var k int32
	if kf >= 0 {
		k = int32(kf + 0.5)
	} else {
		k = int32(kf - 0.5)
	}
	fk := float32(k)
	r := (x - fk*ln2hi) - fk*ln2lo
	p := 1 + r*(1+r*(0.5+r*(1.0/6+r*(1.0/24+r*(1.0/120)))))
	return p * math.Float32frombits(uint32(127+k)<<23)
}

// psi32 is psi (expected one-dimensional improvement below c) in float32,
// with one exp32 per call: e^(−t²/2) is both the normal density's factor and
// the e^(−z²) factor of the complementary error function at z = |t|/√2.
func psi32(c, mu, sigma float32) float32 {
	if sigma <= 0 {
		if d := c - mu; d > 0 {
			return d
		}
		return 0
	}
	t := (c - mu) / sigma
	e := exp32(-0.5 * t * t)
	if t < -4 {
		// Left tail, x = −t: tΦ(t) + φ(t) = φ(x)·(1 − x·R(x)) with R the
		// Mills ratio. Its Laplace continued fraction R = 1/f₀,
		// f_k = x + (k+1)/f_{k+1}, turns 1 − x·R into 1/(f₀·f₁), which
		// has no cancellation; depth 4 keeps the relative error below 1%.
		x := -t
		f1 := x + 2/(x+3/(x+4/x))
		f0 := x + 1/f1
		return sigma * e * invSqrt2Pif / (f0 * f1)
	}
	// Abramowitz–Stegun 7.1.26 (|ε| ≤ 1.5e-7 absolute):
	// Φ(−|t|) = ½·erfc(z) ≈ ½·poly(q)·e^(−z²), z = |t|/√2.
	z := t * invSqrt2f
	if z < 0 {
		z = -z
	}
	q := 1 / (1 + 0.3275911*z)
	poly := q * (0.254829592 + q*(-0.284496736+q*(1.421413741+q*(-1.453152027+q*1.061405429))))
	cdf := 0.5 * poly * e
	if t > 0 {
		cdf = 1 - cdf
	}
	return sigma * (t*cdf + e*invSqrt2Pif)
}

// lognormalMoments32 is lognormalMoments in float32. Each σ is the mean
// times √(e^(s²) − 1), since e^(2μ+s²) is the mean squared, so a candidate
// costs four exp32; below s² = 0.01 the factor e^(s²) − 1 comes from its
// series instead of a subtraction that would cancel.
func lognormalMoments32(muE, sE, muT, sT float32) (mx, sx, my, sy float32) {
	mx = exp32(muE + sE*sE/2)
	my = exp32(muT + sT*sT/2)
	return mx, mx * sqrtExpm1(sE*sE), my, my * sqrtExpm1(sT*sT)
}

// sqrtExpm1 returns √(e^u − 1) for u ≥ 0.
func sqrtExpm1(u float32) float32 {
	var em1 float32
	if u < 0.01 {
		em1 = u * (1 + u/2*(1+u/3*(1+u/4)))
	} else {
		em1 = exp32(u) - 1
	}
	return float32(math.Sqrt(float64(em1)))
}

// ehviStrips32 is the float32 mirror of an EHVIStrips decomposition, laid
// out as flat bound arrays for the pre-screen's tight scan loop. The value
// buffers are owned by the caller's scratch arena and reused across picks.
type ehviStrips32 struct {
	empty      bool
	refX, refY float32
	b0         float32
	a, b, c    []float32
}

// fill mirrors s into the float32 decomposition, reusing the receiver's
// bound slices.
func (s32 *ehviStrips32) fill(s *EHVIStrips) {
	s32.empty = s.empty
	s32.refX, s32.refY = float32(s.ref.X), float32(s.ref.Y)
	s32.b0 = float32(s.b0)
	s32.a, s32.b, s32.c = s32.a[:0], s32.b[:0], s32.c[:0]
	for _, st := range s.strips {
		s32.a = append(s32.a, float32(st.a))
		s32.b = append(s32.b, float32(st.b))
		s32.c = append(s32.c, float32(st.c))
	}
}

// The strip loop's early exit. The strips are sorted by their lower bound a
// and their ceilings c never increase, so once strips 0…k−1 are summed, the
// strips k, k+1, … can add at most (ψ₁(ref.X) − ψ₁(a_k))·ψ₂(c_k): their
// first-objective ranges are disjoint and lie in [a_k, ref.X), ψ₁ is
// nondecreasing, and every later ceiling is at most c_k. A candidate whose
// partial score plus that bound falls below the caller's floor cannot reach
// it, so value stops its loop and returns prunedScore.
const (
	// boundSlack scales ψ₁(ref.X) in the bound, which is built from the same
	// float32 ψ values the loop sums. psi32's relative error ε ≤ 0.83% lets a
	// later ceiling's ψ₂ exceed ψ₂(c_k) by (1+ε)/(1−ε) ≤ 1.0168, and the
	// telescoped ψ₁ differences exceed ψ₁(ref.X) − ψ₁(a_k) by as much again
	// relative to ψ₁(ref.X). 1.0168² = 1.034, so 1.05 leaves 1.6% of
	// ψ₁(ref.X)·ψ₂(c_k) for float32 rounding of the sums and for ψ₁'s order
	// across a gap between strips, where psi32's smooth error is far below
	// ε. The slack is never less than 5% of the unscaled bound.
	boundSlack float32 = 1.05
	// pruneFrac is the floor prescreenScan passes, as a fraction of the
	// running maximum of the float32 scores its chunk has produced so far.
	// The running maximum never exceeds the final one and the slice keeps
	// scores within prescreenFrac of the final maximum, so any pruneFrac ≤
	// prescreenFrac leaves the slice unchanged; 0.4 also covers a bound that
	// falls short by up to 0.1 of the running maximum.
	pruneFrac float32 = 0.4
	// prunedScore is value's result for a pruned candidate, below every
	// floor-free score (those are clamped at zero).
	prunedScore float32 = -1
)

// value is EHVIStrips.Value in float32, with the same boundary-sharing
// memoization. With floor > 0 it returns prunedScore as soon as the partial
// score plus the remaining strips' bound falls below floor; a candidate that
// is not pruned gets exactly the floor-free score, since the loop's
// arithmetic does not depend on floor.
func (s32 *ehviStrips32) value(muX, sgX, muY, sgY, floor float32) float32 {
	if s32.empty {
		return psi32(s32.refX, muX, sgX) * psi32(s32.refY, muY, sgY)
	}
	prevB := s32.b0
	prevPsi1 := psi32(s32.b0, muX, sgX)
	total := prevPsi1 * psi32(s32.refY, muY, sgY)
	prune := floor > 0 && len(s32.a) > 0
	var top float32 // boundSlack·ψ₁(ref.X), only when a floor can prune
	if prune {
		top = boundSlack * psi32(s32.refX, muX, sgX)
	}
	for i := range s32.a {
		pa := prevPsi1
		if s32.a[i] != prevB {
			pa = psi32(s32.a[i], muX, sgX)
		}
		pc := psi32(s32.c[i], muY, sgY)
		if prune && total+(top-pa)*pc < floor {
			return prunedScore
		}
		pb := psi32(s32.b[i], muX, sgX)
		total += (pb - pa) * pc
		prevB, prevPsi1 = s32.b[i], pb
	}
	if total < 0 {
		total = 0
	}
	return total
}

package mobo

import (
	"math"
	"testing"
)

// relErr is |got/want − 1|, or |got| when want is zero.
func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got/want - 1)
}

// TestFloat32HelpersErrorGrid bounds each float32 pre-screen helper against
// its float64 twin on a dense grid. The pre-screen's factor-of-two margin
// rests on these errors being relative at every objective scale, so the
// left tail of psi and the small-variance lognormal moments are included.
func TestFloat32HelpersErrorGrid(t *testing.T) {
	worstExp := 0.0
	for x := -80.0; x <= 80; x += 1.0 / 1024 {
		x32 := float32(x)
		if e := relErr(float64(exp32(x32)), math.Exp(float64(x32))); e > worstExp {
			worstExp = e
		}
	}
	if worstExp > 5e-6 {
		t.Errorf("exp32 relative error %.3g, want ≤ 5e-6", worstExp)
	}

	// psi at σ = 1 is a function of t = c − mu alone.
	worstPsi, worstT := 0.0, 0.0
	for i := 0; i <= 23*4096; i++ {
		x := -13 + float64(i)/4096
		x32 := float32(x)
		if e := relErr(float64(psi32(x32, 0, 1)), psi(float64(x32), 0, 1)); e > worstPsi {
			worstPsi, worstT = e, x
		}
	}
	if worstPsi > 0.01 {
		t.Errorf("psi32 relative error %.3g at t = %.4f, want ≤ 1%% on [−13, 10]", worstPsi, worstT)
	}

	// The σ reference takes e^(s²) − 1 from math.Expm1: lognormalMoments'
	// own subtraction loses ~1e-16/s² relative, 5e-5 at s = 1e-6.
	worstM, worstS := 0.0, 0.0
	for _, mu := range []float64{-14, -3, 0, 2.5, 21} {
		for ls := -6.0; ls <= math.Log10(3); ls += 1.0 / 64 {
			mu32, s32 := float32(mu), float32(math.Pow(10, ls))
			mx, sx, _, _ := lognormalMoments32(mu32, s32, 0, 0)
			mu64, s64 := float64(mu32), float64(s32)
			mean := lognormalMoments(mu64, s64, 0, 0).MuX
			if e := relErr(float64(mx), mean); e > worstM {
				worstM = e
			}
			if e := relErr(float64(sx), mean*math.Sqrt(math.Expm1(s64*s64))); e > worstS {
				worstS = e
			}
		}
	}
	if worstM > 1e-4 || worstS > 1e-4 {
		t.Errorf("lognormalMoments32 relative error: mean %.3g, σ %.3g, want ≤ 1e-4 for s ∈ [1e-6, 3]", worstM, worstS)
	}
	t.Logf("worst relative error: exp32 %.3g, psi32 %.3g (t = %.4f), lognormal mean %.3g, σ %.3g",
		worstExp, worstPsi, worstT, worstM, worstS)
}

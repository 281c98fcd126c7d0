package mobo

import (
	"math"
	"math/rand"
	"testing"

	"bofl/internal/pareto"
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

// earlyExitFront draws 0–40 points at ref's scale: some at or beyond ref.X
// (their strips collapse and NewEHVIStrips skips them), some beyond ref.Y
// (their ceilings clip to it), and repeated X values.
func earlyExitFront(rng *rand.Rand, ref pareto.Point) []pareto.Point {
	n := rng.Intn(41)
	front := make([]pareto.Point, n)
	for i := range front {
		p := pareto.Point{X: rng.Float64() * ref.X, Y: rng.Float64() * ref.Y}
		switch rng.Intn(8) {
		case 0:
			p.X = ref.X * (1 + rng.Float64()*float64(rng.Intn(2)))
		case 1:
			p.Y = ref.Y * (1 + rng.Float64()*float64(rng.Intn(2)))
		case 2:
			if i > 0 {
				p.X = front[rng.Intn(i)].X
			}
		}
		front[i] = p
	}
	return front
}

// TestStrips32EarlyExitSound holds the strip loop's early exit to its
// contract: with a floor, value returns either the floor-free score bit for
// bit or prunedScore, and prunes only a candidate whose floor-free score is
// below the floor. Fronts come from earlyExitFront, and every other draw
// also drops strips from the float32 mirror, so the loop meets lower bounds
// that differ from the previous upper bound. Candidates and floors span
// objective scales 1e-6 to 1e9, with floors drawn around each candidate's
// floor-free score.
func TestStrips32EarlyExitSound(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	pruned, kept := 0, 0
	var s32 ehviStrips32
	for _, scale := range []float64{1e-6, 1e-3, 1, 1e3, 1e6, 1e9} {
		for trial := 0; trial < 150; trial++ {
			ref := pareto.Point{X: scale * (1 + 3*rng.Float64()), Y: scale * (1 + 3*rng.Float64())}
			s32.fill(NewEHVIStrips(earlyExitFront(rng, ref), ref))
			if trial%2 == 1 {
				// Thin the strips: the survivors stay sorted by a with
				// non-increasing c, but no longer share their bounds.
				a, b, c := s32.a[:0], s32.b[:0], s32.c[:0]
				for i := range s32.a {
					if rng.Intn(3) > 0 {
						a, b, c = append(a, s32.a[i]), append(b, s32.b[i]), append(c, s32.c[i])
					}
				}
				s32.a, s32.b, s32.c = a, b, c
			}
			for probe := 0; probe < 40; probe++ {
				muX := float32(scale * 5 * rng.Float64())
				muY := float32(scale * 5 * rng.Float64())
				sgX := float32(scale * 2 * rng.Float64())
				sgY := float32(scale * 2 * rng.Float64())
				switch probe % 8 {
				case 0:
					sgX, sgY = 0, 0
				case 1:
					sgX, sgY = sgX*1e-3, sgY*1e-3
				}
				free := s32.value(muX, sgX, muY, sgY, 0)
				if free < 0 || math.IsNaN(float64(free)) {
					t.Fatalf("scale %g trial %d probe %d: floor-free score %v", scale, trial, probe, free)
				}
				for f := 0; f < 6; f++ {
					var floor float32
					switch {
					case free == 0:
						floor = float32(scale * scale * rng.Float64())
					case f == 0:
						floor = free
					case f == 1:
						floor = math.Nextafter32(free, float32(math.Inf(1)))
					default:
						floor = free * float32(0.5+rng.Float64())
					}
					got := s32.value(muX, sgX, muY, sgY, floor)
					if got == prunedScore {
						pruned++
						if !(free < floor) {
							t.Fatalf("scale %g trial %d probe %d: pruned at floor %v but the floor-free score is %v (strips %d)",
								scale, trial, probe, floor, free, len(s32.a))
						}
						continue
					}
					kept++
					if math.Float32bits(got) != math.Float32bits(free) {
						t.Fatalf("scale %g trial %d probe %d: unpruned score %v at floor %v, floor-free %v",
							scale, trial, probe, got, floor, free)
					}
				}
			}
		}
	}
	if pruned < kept/10 {
		t.Fatalf("only %d of %d floored evaluations pruned; the draws no longer exercise the early exit", pruned, pruned+kept)
	}
	t.Logf("%d floored evaluations pruned, %d kept", pruned, kept)
}

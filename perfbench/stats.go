package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), like Python's statistics.median. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method), so
// the spreads printed here match the ones computed over the same values
// elsewhere. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, fmt.Errorf("quartiles need at least 2 values, have %d", len(xs))
	}
	s := sorted(xs)
	const n = 4
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3), nil
}

// tailRank is the number of samples a tail percentile must leave beyond it.
const tailRank = 10

// tailPercentile picks the highest integer percentile p in [1, 99] whose
// nearest-rank sample (the ⌈p·n/100⌉-th smallest) leaves at least tailRank
// samples beyond it, and returns p with that sample. ok is false when fewer
// than tailRank+1 samples exist.
func tailPercentile(xs []float64) (p int, v float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	for p = 99; p >= 1; p-- {
		r := (p*n + 99) / 100 // ⌈p·n/100⌉, 1-based rank
		if n-r >= tailRank {
			return p, s[r-1], true
		}
	}
	return 0, 0, false
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Package pareto implements dominance relations, Pareto-set extraction and
// exact two-dimensional hypervolume computations for minimization problems.
//
// BoFL's performance space is two-objective — per-minibatch energy E(x) and
// per-minibatch latency T(x) — and both objectives are minimized. Throughout
// this package a Point is an objective vector (not a decision vector) and
// "better" always means component-wise smaller.
package pareto

import (
	"cmp"
	"errors"
	"math"
	"slices"
	"sort"
)

// Point is a point in the 2-D objective space. By BoFL convention X is the
// first objective (energy per minibatch, Joule) and Y the second (latency per
// minibatch, seconds), but nothing in this package depends on the units.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Dominates reports whether p Pareto-dominates q under minimization: p is no
// worse than q in both objectives and strictly better in at least one.
func (p Point) Dominates(q Point) bool {
	if p.X > q.X || p.Y > q.Y {
		return false
	}
	return p.X < q.X || p.Y < q.Y
}

// WeaklyDominates reports whether p is no worse than q in both objectives.
func (p Point) WeaklyDominates(q Point) bool {
	return p.X <= q.X && p.Y <= q.Y
}

// Front computes the Pareto-optimal subset of pts under minimization. The
// result is sorted by ascending X (and, among equal X, ascending Y). Weakly
// dominated duplicates are removed: for each distinct objective vector at
// most one representative survives.
func Front(pts []Point) []Point {
	if len(pts) == 0 {
		return nil
	}
	sorted := make([]Point, len(pts))
	copy(sorted, pts)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].X != sorted[j].X {
			return sorted[i].X < sorted[j].X
		}
		return sorted[i].Y < sorted[j].Y
	})
	front := make([]Point, 0, len(sorted))
	bestY := math.Inf(1)
	for _, p := range sorted {
		// After sorting, p can only be dominated by an earlier point,
		// and an earlier point dominates p iff its Y ≤ p.Y (its X is
		// ≤ p.X by construction). Equal points are dropped too.
		if p.Y < bestY {
			front = append(front, p)
			bestY = p.Y
		}
	}
	return front
}

// FrontIndices returns the indices (into pts) of a maximal set of mutually
// non-dominated points, preferring earlier indices among duplicates. The
// returned indices are in ascending order of pts[i].X.
func FrontIndices(pts []Point) []int {
	return AppendFrontIndices(nil, pts)
}

// AppendFrontIndices appends FrontIndices(pts) to dst and returns the
// extended slice. It needs room for len(pts) indices beyond len(dst) as
// scratch, so a caller that reuses dst across calls allocates nothing once
// its capacity covers the largest input.
func AppendFrontIndices(dst []int, pts []Point) []int {
	base := len(dst)
	for i := range pts {
		dst = append(dst, i)
	}
	order := dst[base:]
	slices.SortFunc(order, func(i, j int) int {
		pi, pj := pts[i], pts[j]
		switch {
		case pi.X != pj.X:
			return cmp.Compare(pi.X, pj.X)
		case pi.Y != pj.Y:
			return cmp.Compare(pi.Y, pj.Y)
		default:
			return i - j
		}
	})
	// The filter writes at or before the position it reads, so it can
	// compact order in place.
	k := base
	bestY := math.Inf(1)
	for _, i := range order {
		if pts[i].Y < bestY {
			dst[k] = i
			k++
			bestY = pts[i].Y
		}
	}
	return dst[:k]
}

// IsDominated reports whether p is dominated by any point in set.
func IsDominated(p Point, set []Point) bool {
	for _, q := range set {
		if q.Dominates(p) {
			return true
		}
	}
	return false
}

// ErrBadReference indicates a hypervolume reference point that does not
// (weakly) dominate-from-above every front point, i.e. some point lies
// outside the box bounded by the reference.
var ErrBadReference = errors.New("pareto: reference point does not bound the front")

// Hypervolume computes the exact 2-D hypervolume indicator of pts with
// respect to reference point ref under minimization: the Lebesgue measure of
// the region dominated by pts and bounded from above by ref. Points that do
// not improve on ref in both coordinates contribute nothing. An empty input
// yields 0.
func Hypervolume(pts []Point, ref Point) float64 {
	front := Front(pts)
	// front is sorted by ascending X with strictly descending Y. Keep only
	// points strictly inside the reference box, then sweep left to right:
	// each point contributes a rectangle from its X to the next in-box
	// point's X (or ref.X for the last one), with height ref.Y - p.Y.
	inBox := front[:0:0]
	for _, p := range front {
		if p.X < ref.X && p.Y < ref.Y {
			inBox = append(inBox, p)
		}
	}
	hv := 0.0
	for i, p := range inBox {
		nextX := ref.X
		if i+1 < len(inBox) {
			nextX = inBox[i+1].X
		}
		hv += (nextX - p.X) * (ref.Y - p.Y)
	}
	return hv
}

// Improvement computes the hypervolume improvement HVI(q; front, ref): the
// increase in hypervolume obtained by adding the candidate points qs to the
// existing set pts (Eqn. 5 of the paper).
func Improvement(qs []Point, pts []Point, ref Point) float64 {
	base := Hypervolume(pts, ref)
	union := make([]Point, 0, len(pts)+len(qs))
	union = append(union, pts...)
	union = append(union, qs...)
	return Hypervolume(union, ref) - base
}

// ReferenceFrom returns the component-wise worst (maximum) point of pts,
// which the paper uses as the hypervolume reference: the combination of the
// worst observed performances in phase 1. It returns an error on empty input.
func ReferenceFrom(pts []Point) (Point, error) {
	if len(pts) == 0 {
		return Point{}, errors.New("pareto: no points to derive a reference from")
	}
	ref := pts[0]
	for _, p := range pts[1:] {
		ref.X = math.Max(ref.X, p.X)
		ref.Y = math.Max(ref.Y, p.Y)
	}
	return ref, nil
}

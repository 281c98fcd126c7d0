package gp

import (
	"fmt"
)

// ConditionFast returns a regressor conditioned on one extra observation in
// O(n²) by extending the Cholesky factor with one row, instead of the O(n³)
// refit that Condition performs. The original target standardization is kept
// (the new point is standardized with the existing mean/std), which is the
// right trade-off for Kriging-believer fantasies: they are transient
// hypotheses discarded after a batch is selected, so re-standardizing for
// them is wasted work.
//
// The appended row is computed by ExtendCholeskyRow, whose accumulation
// order matches a full refactorization of the bordered Gram matrix exactly —
// the rank-1 update is bit-identical to refitting, not merely close
// (update_test.go pins equality).
func (r *Regressor) ConditionFast(x []float64, y float64) (*Regressor, error) {
	if len(x) != r.kernel.Dim() {
		return nil, fmt.Errorf("gp: point has dim %d, kernel expects %d", len(x), r.kernel.Dim())
	}
	n := len(r.xs)

	// Covariance of the new point against the training set and itself,
	// via the same sweep the Gram build uses, so the appended row matches
	// what a full refactorization would see bit-for-bit.
	kvec := make([]float64, n)
	kernelRow(r.kernel, x, r.xs, kvec)
	kxx := priorVariance(r.kernel) + r.noise*r.noise

	chol := NewMatrix(n+1, n+1)
	for i := 0; i < n; i++ {
		copy(chol.Data[i*(n+1):i*(n+1)+i+1], r.chol.Data[i*r.chol.Cols:i*r.chol.Cols+i+1])
	}
	row, d := ExtendCholeskyRow(r.chol, kvec, kxx, chol.Data[n*(n+1):n*(n+1)+n])
	_ = row // written in place into chol's last row
	chol.Set(n, n, d)

	// Extended dataset in standardized units.
	xs := make([][]float64, n+1)
	copy(xs, r.xs)
	cx := make([]float64, len(x))
	copy(cx, x)
	xs[n] = cx
	ys := make([]float64, n+1)
	copy(ys, r.ys)
	ys[n] = (y - r.mean) / r.std

	return &Regressor{
		kernel: r.kernel,
		noise:  r.noise,
		xs:     xs,
		mean:   r.mean,
		std:    r.std,
		chol:   chol,
		alpha:  CholeskySolve(chol, ys),
		ys:     ys,
	}, nil
}

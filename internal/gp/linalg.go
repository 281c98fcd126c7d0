// Package gp implements Gaussian-process regression from scratch: dense
// linear algebra (Cholesky factorization and triangular solves), stationary
// kernels (Matérn-5/2 and squared-exponential with ARD lengthscales),
// posterior inference, and marginal-likelihood hyperparameter fitting.
//
// This is the surrogate-model layer of BoFL's multi-objective Bayesian
// optimizer. The paper (§4.3) models the two objectives T(·) and E(·) as two
// independent GPs with zero prior mean and Matérn-5/2 kernels; package mobo
// builds the EHVI acquisition on top of the posteriors produced here.
package gp

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix. Cols doubles as the row stride, so a
// Matrix value with Rows < Cols is a valid leading-principal view into a
// larger allocation (the fantasy-chain workspace grows its factor in place
// this way).
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is not
// (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("gp: matrix is not positive definite")

// cholBlock is the panel width of the blocked factorization. 32 keeps the
// active panel (32·n floats) inside L1/L2 for the matrix sizes BoFL sees
// while amortizing loop overhead; correctness does not depend on the value.
const cholBlock = 32

// Cholesky computes the lower-triangular factor L with A = L·Lᵀ. A must be
// square and symmetric positive definite; only the lower triangle of A is
// read. The result has zeros above the diagonal.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("gp: cholesky of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	l := a.Clone()
	if err := CholeskyInPlace(l); err != nil {
		return nil, err
	}
	return l, nil
}

// CholeskyInPlace overwrites the lower triangle of a with its Cholesky factor
// and zeroes the upper triangle. It is the blocked (panel-update) form of the
// factorization: each panel of cholBlock columns is factored left-looking,
// the rows below it are solved against the panel, and the trailing submatrix
// absorbs the panel's rank-cholBlock update before the next panel starts.
//
// Determinism: every element L_ij accumulates its subtractions
// a_ij − Σ_k l_ik·l_jk one product at a time in ascending k, split across
// panels in ascending panel order — exactly the floating-point operation
// sequence of the scalar triple loop (CholeskyScalar). The blocked factor is
// therefore bit-identical to the scalar reference; the property suite in
// linalg_test.go enforces equality, not closeness.
func CholeskyInPlace(a *Matrix) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("gp: cholesky of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	d := a.Data
	for p := 0; p < n; p += cholBlock {
		pe := p + cholBlock
		if pe > n {
			pe = n
		}
		// Factor the diagonal block A[p:pe, p:pe] column by column
		// (contributions of columns < p were already subtracted by earlier
		// trailing updates). Each element's value and its ascending-k
		// subtraction chain are exactly the scalar algorithm's — only the
		// order in which independent elements are produced changes, which
		// lets the rows below each pivot run as paired dependency chains.
		for j := p; j < pe; j++ {
			rowj := d[j*n : j*n+n]
			s := rowj[j]
			for k := p; k < j; k++ {
				s -= rowj[k] * rowj[k]
			}
			if s <= 0 || math.IsNaN(s) {
				return ErrNotPositiveDefinite
			}
			pivot := math.Sqrt(s)
			rowj[j] = pivot
			i := j + 1
			for ; i+1 < pe; i += 2 {
				rowa := d[i*n : i*n+n]
				rowb := d[(i+1)*n : (i+1)*n+n]
				sa := rowa[j]
				sb := rowb[j]
				for k := p; k < j; k++ {
					ljk := rowj[k]
					sa -= rowa[k] * ljk
					sb -= rowb[k] * ljk
				}
				rowa[j] = sa / pivot
				rowb[j] = sb / pivot
			}
			for ; i < pe; i++ {
				rowi := d[i*n : i*n+n]
				si := rowi[j]
				for k := p; k < j; k++ {
					si -= rowi[k] * rowj[k]
				}
				rowi[j] = si / pivot
			}
		}
		// Panel solve: rows below the block against the freshly factored
		// panel (forward substitution per row). Rows are independent of
		// each other, so four are solved at once — each element still
		// accumulates its own subtraction chain sequentially, the grouping
		// only gives the CPU independent dependency chains to overlap.
		i := pe
		for ; i+3 < n; i += 4 {
			rowa := d[i*n : i*n+n]
			rowb := d[(i+1)*n : (i+1)*n+n]
			rowc := d[(i+2)*n : (i+2)*n+n]
			rowe := d[(i+3)*n : (i+3)*n+n]
			for j := p; j < pe; j++ {
				rowj := d[j*n : j*n+n]
				sa := rowa[j]
				sb := rowb[j]
				sc := rowc[j]
				se := rowe[j]
				for k := p; k < j; k++ {
					ljk := rowj[k]
					sa -= rowa[k] * ljk
					sb -= rowb[k] * ljk
					sc -= rowc[k] * ljk
					se -= rowe[k] * ljk
				}
				pivot := rowj[j]
				rowa[j] = sa / pivot
				rowb[j] = sb / pivot
				rowc[j] = sc / pivot
				rowe[j] = se / pivot
			}
		}
		for ; i < n; i++ {
			rowi := d[i*n : i*n+n]
			for j := p; j < pe; j++ {
				rowj := d[j*n : j*n+n]
				s := rowi[j]
				for k := p; k < j; k++ {
					s -= rowi[k] * rowj[k]
				}
				rowi[j] = s / rowj[j]
			}
		}
		// Trailing update: subtract the panel's contribution from the
		// lower triangle of A[pe:, pe:], one product at a time in
		// ascending k so the accumulation order matches the scalar loop.
		// Four target elements run in parallel accumulator chains; each
		// chain is still strictly sequential in k, so every element's
		// value is bit-identical to the scalar loop's.
		for i := pe; i < n; i++ {
			rowi := d[i*n : i*n+n]
			j := pe
			for ; j+3 <= i; j += 4 {
				rowj0 := d[j*n : j*n+n]
				rowj1 := d[(j+1)*n : (j+1)*n+n]
				rowj2 := d[(j+2)*n : (j+2)*n+n]
				rowj3 := d[(j+3)*n : (j+3)*n+n]
				s0 := rowi[j]
				s1 := rowi[j+1]
				s2 := rowi[j+2]
				s3 := rowi[j+3]
				for k := p; k < pe; k++ {
					aik := rowi[k]
					s0 -= aik * rowj0[k]
					s1 -= aik * rowj1[k]
					s2 -= aik * rowj2[k]
					s3 -= aik * rowj3[k]
				}
				rowi[j] = s0
				rowi[j+1] = s1
				rowi[j+2] = s2
				rowi[j+3] = s3
			}
			for ; j <= i; j++ {
				rowj := d[j*n : j*n+n]
				s := rowi[j]
				for k := p; k < pe; k++ {
					s -= rowi[k] * rowj[k]
				}
				rowi[j] = s
			}
		}
	}
	// Zero the upper triangle (the input's upper values are never read by
	// the factorization, but Cholesky's contract is zeros above the
	// diagonal).
	for i := 0; i < n; i++ {
		row := d[i*n : i*n+n]
		for j := i + 1; j < n; j++ {
			row[j] = 0
		}
	}
	return nil
}

// CholeskyScalar is the historical scalar triple-loop factorization, kept as
// the reference implementation for the blocked kernel's property tests and
// benchmarks (BenchmarkCholeskyScalar vs BenchmarkCholeskyBlocked).
func CholeskyScalar(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("gp: cholesky of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return nil, ErrNotPositiveDefinite
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return l, nil
}

// ExtendCholeskyRow computes the appended row [lᵀ, d] that extends a Cholesky
// factor by one observation: L·l = k (forward substitution) and
// d = √(kxx − lᵀl), with the same per-element accumulation order as a full
// refactorization of the bordered matrix — row n of the scalar loop runs the
// identical forward-substitution recurrence and the identical sequential
// diagonal subtraction, so the rank-1 append is bit-identical to refactoring
// from scratch (update_test.go pins exact equality). l must hold the current
// n×n factor (possibly as a view with stride Cols ≥ n), k the new point's
// covariance against the training set, and out a buffer of len ≥ n. The
// returned diagonal is clamped to √1e-12 for (numerically) duplicated points,
// mirroring the refit path's jitter.
func ExtendCholeskyRow(l *Matrix, k []float64, kxx float64, out []float64) (row []float64, diag float64) {
	row = SolveLowerInto(l, k, out)
	d2 := kxx
	for _, v := range row {
		d2 -= v * v
	}
	if d2 < 1e-12 {
		d2 = 1e-12
	}
	return row, math.Sqrt(d2)
}

// SolveLower solves L·x = b for lower-triangular L by forward substitution.
func SolveLower(l *Matrix, b []float64) []float64 {
	return SolveLowerInto(l, b, make([]float64, l.Rows))
}

// SolveLowerInto solves L·x = b into the caller-provided x (len ≥ L.Rows),
// returning x[:L.Rows]. b and x may alias the same slice. The allocation-free
// variant used by the acquisition scan workers.
func SolveLowerInto(l *Matrix, b, x []float64) []float64 {
	n := l.Rows
	x = x[:n]
	for i := 0; i < n; i++ {
		sum := b[i]
		row := l.Data[i*l.Cols : i*l.Cols+i]
		for k, lik := range row {
			sum -= lik * x[k]
		}
		x[i] = sum / l.Data[i*l.Cols+i]
	}
	return x
}

// SolveLowerNormInto is SolveLowerInto fused with the squared norm of the
// solution: ‖x‖² is accumulated as each component is produced, in the same
// ascending order Dot(x, x) uses, so the result is bit-identical to a
// separate solve followed by a dot product — at one pass over memory instead
// of two. This is the kernel behind the fused predict-variance path.
func SolveLowerNormInto(l *Matrix, b, x []float64) ([]float64, float64) {
	n := l.Rows
	x = x[:n]
	norm := 0.0
	for i := 0; i < n; i++ {
		sum := b[i]
		row := l.Data[i*l.Cols : i*l.Cols+i]
		for k, lik := range row {
			sum -= lik * x[k]
		}
		xi := sum / l.Data[i*l.Cols+i]
		x[i] = xi
		norm += xi * xi
	}
	return x, norm
}

// solveLowerNorm4 is SolveLowerNormInto on four right-hand sides at once.
// Row r of b and of x starts at r·stride; x must not alias b. Each row keeps
// SolveLowerNormInto's operation order (one subtraction chain per element in
// ascending k, the division, then the norm term), so every solution and norm
// is bit-identical to four separate calls: as in CholeskyInPlace's four-row
// panel solve, the interleaving only gives the CPU four independent
// dependency chains where one solve has a single chain.
func solveLowerNorm4(l *Matrix, b, x []float64, stride int) (n0, n1, n2, n3 float64) {
	n := l.Rows
	b0, b1, b2, b3 := b[:n], b[stride:][:n], b[2*stride:][:n], b[3*stride:][:n]
	x0, x1, x2, x3 := x[:n], x[stride:][:n], x[2*stride:][:n], x[3*stride:][:n]
	for i := 0; i < n; i++ {
		row := l.Data[i*l.Cols : i*l.Cols+i]
		y0, y1, y2, y3 := x0[:len(row)], x1[:len(row)], x2[:len(row)], x3[:len(row)]
		s0, s1, s2, s3 := b0[i], b1[i], b2[i], b3[i]
		for k, lik := range row {
			s0 -= lik * y0[k]
			s1 -= lik * y1[k]
			s2 -= lik * y2[k]
			s3 -= lik * y3[k]
		}
		d := l.Data[i*l.Cols+i]
		s0 /= d
		s1 /= d
		s2 /= d
		s3 /= d
		x0[i], x1[i], x2[i], x3[i] = s0, s1, s2, s3
		n0 += s0 * s0
		n1 += s1 * s1
		n2 += s2 * s2
		n3 += s3 * s3
	}
	return n0, n1, n2, n3
}

// SolveUpperT solves Lᵀ·x = b for lower-triangular L (so Lᵀ is upper
// triangular) by backward substitution.
func SolveUpperT(l *Matrix, b []float64) []float64 {
	return SolveUpperTInto(l, b, make([]float64, l.Rows))
}

// SolveUpperTInto is SolveUpperT with a caller-provided x (len ≥ L.Rows),
// returning x[:L.Rows]. b and x may alias the same slice.
func SolveUpperTInto(l *Matrix, b, x []float64) []float64 {
	n := l.Rows
	stride := l.Cols
	x = x[:n]
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for k := i + 1; k < n; k++ {
			sum -= l.Data[k*stride+i] * x[k]
		}
		x[i] = sum / l.Data[i*stride+i]
	}
	return x
}

// CholeskySolve solves A·x = b given the Cholesky factor L of A.
func CholeskySolve(l *Matrix, b []float64) []float64 {
	return SolveUpperT(l, SolveLower(l, b))
}

// CholeskySolveInto is CholeskySolve with caller-provided scratch and output
// buffers (each of len ≥ L.Rows). b, tmp and x may all alias.
func CholeskySolveInto(l *Matrix, b, tmp, x []float64) []float64 {
	return SolveUpperTInto(l, SolveLowerInto(l, b, tmp), x)
}

// LogDetFromCholesky returns log|A| = 2·Σ log L_ii given A's Cholesky factor.
func LogDetFromCholesky(l *Matrix) float64 {
	sum := 0.0
	for i := 0; i < l.Rows; i++ {
		sum += math.Log(l.Data[i*l.Cols+i])
	}
	return 2 * sum
}

// Dot returns the inner product of a and b, which must have equal length.
func Dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// dot4 returns Dot(a, x_r) for the four rows x_r = x[r·stride :
// r·stride+len(a)], each accumulated in Dot's ascending order, so the four
// results are bit-identical to four Dot calls.
func dot4(a, x []float64, stride int) (s0, s1, s2, s3 float64) {
	n := len(a)
	x0, x1, x2, x3 := x[:n], x[stride:][:n], x[2*stride:][:n], x[3*stride:][:n]
	for k, ak := range a {
		s0 += ak * x0[k]
		s1 += ak * x1[k]
		s2 += ak * x2[k]
		s3 += ak * x3[k]
	}
	return s0, s1, s2, s3
}

// MulVec computes m·v.
func MulVec(m *Matrix, v []float64) []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, x := range v {
			s += row[j] * x
		}
		out[i] = s
	}
	return out
}

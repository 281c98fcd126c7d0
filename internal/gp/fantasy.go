package gp

import "fmt"

// Fantasy is a Kriging-believer conditioning chain: a preallocated workspace
// for repeatedly extending a regressor with fantasized observations without
// per-step factor copies or allocations. The factor grows in place inside one
// (n+extra)² slab — each Condition appends a single row (O(n²) total work for
// the triangular re-solve of alpha) and returns a leading-principal view.
//
// Only the most recently returned regressor is valid: a later Condition
// reuses the shared alpha buffer and factor slab. Fantasies are transient by
// design (they exist for the duration of one batch selection), and the base
// regressor is never mutated. Release returns the slabs to the package pool.
//
// Determinism: the appended factor row, the standardized target and the
// re-solved alpha are computed by exactly the code path ConditionFast uses on
// the same values, so a chain of k Condition calls is bit-identical to k
// nested ConditionFast calls — with zero copying of the factor prefix.
type Fantasy struct {
	cur    *Regressor
	stride int // row capacity: base n + extra
	dim    int
	chol   []float64 // stride×stride factor slab (pooled, lower triangle valid)
	xsBack []float64 // stride×dim appended-point storage (pooled)
	xs     [][]float64
	ys     []float64 // pooled
	alpha  []float64 // pooled
}

// NewFantasy prepares a conditioning chain on r with capacity for extra
// appended observations. The base factor's lower triangle is copied into the
// slab once; every subsequent extension is copy-free.
func (r *Regressor) NewFantasy(extra int) *Fantasy {
	n := len(r.xs)
	dim := r.kernel.Dim()
	stride := n + extra
	f := &Fantasy{
		cur:    r,
		stride: stride,
		dim:    dim,
		chol:   getF64(stride * stride),
		xsBack: getF64(stride * dim),
		xs:     make([][]float64, n, stride),
		ys:     getF64(stride),
		alpha:  getF64(stride),
	}
	for i := 0; i < n; i++ {
		copy(f.chol[i*stride:i*stride+i+1], r.chol.Data[i*r.chol.Cols:i*r.chol.Cols+i+1])
	}
	copy(f.xs, r.xs)
	copy(f.ys[:n], r.ys)
	return f
}

// Cur returns the chain's current regressor (the base, or the result of the
// latest Condition).
func (f *Fantasy) Cur() *Regressor { return f.cur }

// Condition extends the chain by one observation and returns the conditioned
// regressor, invalidating any regressor previously returned by this chain.
// Bit-identical to calling ConditionFast on the current regressor.
func (f *Fantasy) Condition(x []float64, y float64) (*Regressor, error) {
	cur := f.cur
	if len(x) != f.dim {
		return nil, fmt.Errorf("gp: point has dim %d, kernel expects %d", len(x), f.dim)
	}
	n := len(cur.xs)
	if n >= f.stride {
		return nil, fmt.Errorf("gp: fantasy capacity %d exhausted", f.stride)
	}

	// New factor row, solved in place in the slab: the covariance row is
	// written where the factor row will live and the forward substitution
	// overwrites it element by element (SolveLowerInto permits aliasing).
	row := f.chol[n*f.stride : n*f.stride+n]
	kernelRow(cur.kernel, x, cur.xs, row)
	kxx := priorVariance(cur.kernel) + cur.noise*cur.noise
	_, d := ExtendCholeskyRow(cur.chol, row, kxx, row)
	f.chol[n*f.stride+n] = d

	xrow := f.xsBack[n*f.dim : (n+1)*f.dim : (n+1)*f.dim]
	copy(xrow, x)
	f.xs = append(f.xs, xrow)
	f.ys[n] = (y - cur.mean) / cur.std

	view := &Matrix{Rows: n + 1, Cols: f.stride, Data: f.chol}
	alpha := f.alpha[:n+1]
	CholeskySolveInto(view, f.ys[:n+1], alpha, alpha)

	next := &Regressor{
		kernel: cur.kernel,
		noise:  cur.noise,
		xs:     f.xs[:n+1],
		mean:   cur.mean,
		std:    cur.std,
		chol:   view,
		alpha:  alpha,
		ys:     f.ys[:n+1],
	}
	f.cur = next
	return next, nil
}

// Release returns the chain's slabs to the package pool. The chain and every
// regressor it returned become invalid.
func (f *Fantasy) Release() {
	putF64(f.chol)
	putF64(f.xsBack)
	putF64(f.ys)
	putF64(f.alpha)
	f.chol, f.xsBack, f.ys, f.alpha, f.xs, f.cur = nil, nil, nil, nil, nil, nil
}

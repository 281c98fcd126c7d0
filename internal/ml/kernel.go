package ml

// The loops of the blocked MLP step (block4) and of the SGD update. Each
// function here is the portable body of one kernel: kernel_amd64.go runs an
// AVX2 version of it where the CPU has one and this body everywhere else.
// Every assembly version issues the body's multiplies and adds, unfused, in
// the body's order, so both produce the same bits.
//
// Two layouts carry the block's four examples. Lanes layout is k×4: element
// 4·i+l is example l's value i, so one 4-wide vector holds one value of every
// example. Rows layout is 4×k: example l's k values are contiguous at l·k.

// The kernels block4 and accumulateStep call: the Go bodies, unless
// kernel_amd64.go finds AVX2 when the package is initialized, swaps in its
// assembly and sets useAVX2.
var (
	dense4   = dense4Go
	outer4   = outer4Go
	backOut4 = backOut4Go
	sgd      = sgdGo
	useAVX2  bool
)

// dense4Go is a dense layer's pre-activation for four examples in lanes
// layout: st[4r+l] = b[r] + Σ_i w[r·k+i]·xt[4i+l], summed in i order, for
// each of the len(b) rows, where k = len(xt)/4.
func dense4Go(w, b, xt, st []float64) {
	k := len(xt) / 4
	for r, br := range b {
		row := w[r*k : (r+1)*k]
		s0, s1, s2, s3 := br, br, br, br
		for i, wi := range row {
			x := xt[4*i : 4*i+4]
			s0 += wi * x[0]
			s1 += wi * x[1]
			s2 += wi * x[2]
			s3 += wi * x[3]
		}
		s := st[4*r : 4*r+4]
		s[0], s[1], s[2], s[3] = s0, s1, s2, s3
	}
}

// outer4Go adds four examples' outer products into a weight gradient, one
// example after the other for each element: gw[r·k+i] += ps[l·rows+r] ·
// xs[l·k+i] for l = 0..3, with ps and xs in rows layout, rows = len(ps)/4
// and k = len(xs)/4.
func outer4Go(gw, ps, xs []float64) {
	rows, k := len(ps)/4, len(xs)/4
	x0, x1, x2, x3 := xs[:k], xs[k:2*k], xs[2*k:3*k], xs[3*k:4*k]
	for r := 0; r < rows; r++ {
		p0, p1, p2, p3 := ps[r], ps[rows+r], ps[2*rows+r], ps[3*rows+r]
		grow := gw[r*k : (r+1)*k]
		for i, g := range grow {
			g += p0 * x0[i]
			g += p1 * x1[i]
			g += p2 * x2[i]
			g += p3 * x3[i]
			grow[i] = g
		}
	}
}

// backOut4Go is the output layer's backward row for four examples: for each
// row o it adds the outer products of the logit gradients es and the hidden
// activations hs into gw (as outer4Go does) and adds es[l·rows+o]·w[o·k+h]
// into ds[l·k+h], the gradient with respect to the hidden activations. es,
// hs and ds are in rows layout, rows = len(es)/4 and k = len(hs)/4.
func backOut4Go(gw, w, es, hs, ds []float64) {
	rows, k := len(es)/4, len(hs)/4
	h0, h1, h2, h3 := hs[:k], hs[k:2*k], hs[2*k:3*k], hs[3*k:4*k]
	d0, d1, d2, d3 := ds[:k], ds[k:2*k], ds[2*k:3*k], ds[3*k:4*k]
	for o := 0; o < rows; o++ {
		e0, e1, e2, e3 := es[o], es[rows+o], es[2*rows+o], es[3*rows+o]
		row := w[o*k : (o+1)*k]
		grow := gw[o*k : (o+1)*k]
		for h, wh := range row {
			g := grow[h]
			g += e0 * h0[h]
			g += e1 * h1[h]
			g += e2 * h2[h]
			g += e3 * h3[h]
			grow[h] = g
			d0[h] += e0 * wh
			d1[h] += e1 * wh
			d2[h] += e2 * wh
			d3[h] += e3 * wh
		}
	}
}

// sgdGo takes the SGD step p ← p − lr·(g·inv) from a summed gradient g and
// the reciprocal batch size inv.
func sgdGo(p, g []float64, lr, inv float64) {
	g = g[:len(p)]
	for i, gi := range g {
		p[i] -= lr * (gi * inv)
	}
}

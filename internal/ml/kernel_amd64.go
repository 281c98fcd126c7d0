package ml

func init() {
	if detectAVX2() {
		dense4, outer4, backOut4, sgd = dense4Asm, outer4Asm, backOut4Asm, sgdAsm
		useAVX2 = true
	}
}

// detectAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches (OSXSAVE set and XCR0 enabling the SSE
// and AVX state).
func detectAVX2() bool {
	const (
		osxsave  = 1 << 27 // CPUID.1:ECX
		avx      = 1 << 28 // CPUID.1:ECX
		avx2     = 1 << 5  // CPUID.(7,0):EBX
		ymmState = 0b110   // XCR0: SSE and AVX state
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&ymmState != ymmState {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func dense4AVX2(w, b, xt, st []float64)

//go:noescape
func outer4AVX2(gw, ps, xs []float64)

//go:noescape
func backOut4AVX2(gw, w, es, hs, ds []float64)

//go:noescape
func sgdAVX2(p, g []float64, lr, inv float64)

// The kernels below run the assembly only on slices the Go body would
// index in bounds, since the assembly checks none.

func dense4Asm(w, b, xt, st []float64) {
	if len(w) < len(b)*(len(xt)/4) || len(st) < 4*len(b) {
		panic("ml: dense4 shapes disagree")
	}
	dense4AVX2(w, b, xt, st)
}

func outer4Asm(gw, ps, xs []float64) {
	if len(gw) < (len(ps)/4)*(len(xs)/4) {
		panic("ml: outer4 shapes disagree")
	}
	outer4AVX2(gw, ps, xs)
}

func backOut4Asm(gw, w, es, hs, ds []float64) {
	if n := (len(es) / 4) * (len(hs) / 4); len(gw) < n || len(w) < n || len(ds) < 4*(len(hs)/4) {
		panic("ml: backOut4 shapes disagree")
	}
	backOut4AVX2(gw, w, es, hs, ds)
}

func sgdAsm(p, g []float64, lr, inv float64) {
	if len(g) < len(p) {
		panic("ml: sgd shapes disagree")
	}
	sgdAVX2(p, g, lr, inv)
}

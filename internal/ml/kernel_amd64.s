#include "textflag.h"

// AVX2 versions of the Go bodies in kernel.go. Each keeps its body's
// operation order: a product is a VMULPD (VMULSD in the scalar tails) and
// every sum adds it with a separate VADDPD, never a fused multiply-add, so
// every element rounds exactly as the body's s += a*b does. A vector holds
// four examples (dense4AVX2) or four consecutive columns of one row (the
// others); the columns left over from the vectors run one at a time.

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func dense4AVX2(w, b, xt, st []float64)
//
// Four rows per pass, so four independent sums hide the add latency, then
// the rows left over one at a time.
TEXT ·dense4AVX2(SB), NOSPLIT, $0-96
	MOVQ w_base+0(FP), SI   // w[r·k+i]
	MOVQ b_base+24(FP), BX  // b[r]
	MOVQ b_len+32(FP), DX   // rows left
	MOVQ xt_base+48(FP), R10
	MOVQ xt_len+56(FP), R11
	SHRQ $2, R11            // k
	MOVQ st_base+72(FP), DI // st[4r]
	MOVQ R11, R8
	SHLQ $3, R8             // row stride
	LEAQ (R8)(R8*2), R9     // three row strides

dense4_quad:
	CMPQ DX, $4
	JLT  dense4_single
	VBROADCASTSD (BX), Y0
	VBROADCASTSD 8(BX), Y1
	VBROADCASTSD 16(BX), Y2
	VBROADCASTSD 24(BX), Y3
	MOVQ R10, AX
	MOVQ R11, CX
	TESTQ CX, CX
	JZ   dense4_quad_store

dense4_quad_loop:
	VMOVUPD      (AX), Y4
	VBROADCASTSD (SI), Y5
	VBROADCASTSD (SI)(R8*1), Y6
	VBROADCASTSD (SI)(R8*2), Y7
	VBROADCASTSD (SI)(R9*1), Y8
	VMULPD       Y4, Y5, Y5
	VMULPD       Y4, Y6, Y6
	VMULPD       Y4, Y7, Y7
	VMULPD       Y4, Y8, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         $32, AX
	ADDQ         $8, SI
	DECQ         CX
	JNZ          dense4_quad_loop

dense4_quad_store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    R9, SI          // past the three rows summed alongside
	ADDQ    $32, BX
	ADDQ    $128, DI
	SUBQ    $4, DX
	JMP     dense4_quad

dense4_single:
	TESTQ DX, DX
	JZ    dense4_done
	VBROADCASTSD (BX), Y0
	MOVQ  R10, AX
	MOVQ  R11, CX
	TESTQ CX, CX
	JZ    dense4_single_store

dense4_single_loop:
	VBROADCASTSD (SI), Y5
	VMULPD       (AX), Y5, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         $32, AX
	ADDQ         $8, SI
	DECQ         CX
	JNZ          dense4_single_loop

dense4_single_store:
	VMOVUPD Y0, (DI)
	ADDQ    $8, BX
	ADDQ    $32, DI
	DECQ    DX
	JMP     dense4_single

dense4_done:
	VZEROUPPER
	RET

// func outer4AVX2(gw, ps, xs []float64)
TEXT ·outer4AVX2(SB), NOSPLIT, $0-72
	MOVQ gw_base+0(FP), DI  // gw[r·k+i]
	MOVQ ps_base+24(FP), BX // ps[r]
	MOVQ ps_len+32(FP), DX
	SHRQ $2, DX             // rows left
	MOVQ DX, R10
	SHLQ $3, R10            // ps row stride
	LEAQ (R10)(R10*2), R11  // three ps row strides
	MOVQ xs_len+56(FP), R12
	SHRQ $2, R12            // k
	MOVQ R12, R8
	SHLQ $3, R8             // xs row stride
	LEAQ (R8)(R8*2), R9     // three xs row strides
	TESTQ DX, DX
	JZ   outer4_done

outer4_row:
	VBROADCASTSD (BX), Y0
	VBROADCASTSD (BX)(R10*1), Y1
	VBROADCASTSD (BX)(R10*2), Y2
	VBROADCASTSD (BX)(R11*1), Y3
	MOVQ xs_base+48(FP), SI // xs[i]
	MOVQ R12, CX
	SHRQ $2, CX
	JZ   outer4_tail

outer4_vec:
	VMOVUPD (DI), Y4
	VMULPD  (SI), Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (SI)(R8*1), Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (SI)(R8*2), Y2, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (SI)(R9*1), Y3, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     outer4_vec

outer4_tail:
	MOVQ R12, CX
	ANDQ $3, CX
	JZ   outer4_next

outer4_scalar:
	VMOVSD (DI), X4
	VMULSD (SI), X0, X5
	VADDSD X5, X4, X4
	VMULSD (SI)(R8*1), X1, X5
	VADDSD X5, X4, X4
	VMULSD (SI)(R8*2), X2, X5
	VADDSD X5, X4, X4
	VMULSD (SI)(R9*1), X3, X5
	VADDSD X5, X4, X4
	VMOVSD X4, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    outer4_scalar

outer4_next:
	ADDQ $8, BX
	DECQ DX
	JNZ  outer4_row

outer4_done:
	VZEROUPPER
	RET

// func backOut4AVX2(gw, w, es, hs, ds []float64)
//
// outer4AVX2's gradient row, with each column's four ∂h updates in the same
// pass over the weight row.
TEXT ·backOut4AVX2(SB), NOSPLIT, $0-120
	MOVQ gw_base+0(FP), DI  // gw[o·k+h]
	MOVQ w_base+24(FP), BX  // w[o·k+h]
	MOVQ es_base+48(FP), DX // es[o]
	MOVQ es_len+56(FP), R13
	SHRQ $2, R13            // rows left
	MOVQ R13, R10
	SHLQ $3, R10            // es row stride
	LEAQ (R10)(R10*2), R11  // three es row strides
	MOVQ hs_len+80(FP), R12
	SHRQ $2, R12            // k
	MOVQ R12, R8
	SHLQ $3, R8             // hs and ds row stride
	LEAQ (R8)(R8*2), R9     // three hs and ds row strides
	TESTQ R13, R13
	JZ   backout4_done

backout4_row:
	VBROADCASTSD (DX), Y0
	VBROADCASTSD (DX)(R10*1), Y1
	VBROADCASTSD (DX)(R10*2), Y2
	VBROADCASTSD (DX)(R11*1), Y3
	MOVQ hs_base+72(FP), SI // hs[h]
	MOVQ ds_base+96(FP), AX // ds[h]
	MOVQ R12, CX
	SHRQ $2, CX
	JZ   backout4_tail

backout4_vec:
	VMOVUPD (DI), Y4
	VMULPD  (SI), Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (SI)(R8*1), Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (SI)(R8*2), Y2, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (SI)(R9*1), Y3, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)
	VMOVUPD (BX), Y6
	VMULPD  Y6, Y0, Y5
	VADDPD  (AX), Y5, Y5
	VMOVUPD Y5, (AX)
	VMULPD  Y6, Y1, Y5
	VADDPD  (AX)(R8*1), Y5, Y5
	VMOVUPD Y5, (AX)(R8*1)
	VMULPD  Y6, Y2, Y5
	VADDPD  (AX)(R8*2), Y5, Y5
	VMOVUPD Y5, (AX)(R8*2)
	VMULPD  Y6, Y3, Y5
	VADDPD  (AX)(R9*1), Y5, Y5
	VMOVUPD Y5, (AX)(R9*1)
	ADDQ    $32, DI
	ADDQ    $32, BX
	ADDQ    $32, SI
	ADDQ    $32, AX
	DECQ    CX
	JNZ     backout4_vec

backout4_tail:
	MOVQ R12, CX
	ANDQ $3, CX
	JZ   backout4_next

backout4_scalar:
	VMOVSD (DI), X4
	VMULSD (SI), X0, X5
	VADDSD X5, X4, X4
	VMULSD (SI)(R8*1), X1, X5
	VADDSD X5, X4, X4
	VMULSD (SI)(R8*2), X2, X5
	VADDSD X5, X4, X4
	VMULSD (SI)(R9*1), X3, X5
	VADDSD X5, X4, X4
	VMOVSD X4, (DI)
	VMOVSD (BX), X6
	VMULSD X6, X0, X5
	VADDSD (AX), X5, X5
	VMOVSD X5, (AX)
	VMULSD X6, X1, X5
	VADDSD (AX)(R8*1), X5, X5
	VMOVSD X5, (AX)(R8*1)
	VMULSD X6, X2, X5
	VADDSD (AX)(R8*2), X5, X5
	VMOVSD X5, (AX)(R8*2)
	VMULSD X6, X3, X5
	VADDSD (AX)(R9*1), X5, X5
	VMOVSD X5, (AX)(R9*1)
	ADDQ   $8, DI
	ADDQ   $8, BX
	ADDQ   $8, SI
	ADDQ   $8, AX
	DECQ   CX
	JNZ    backout4_scalar

backout4_next:
	ADDQ $8, DX
	DECQ R13
	JNZ  backout4_row

backout4_done:
	VZEROUPPER
	RET

// func sgdAVX2(p, g []float64, lr, inv float64)
TEXT ·sgdAVX2(SB), NOSPLIT, $0-64
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), DX
	MOVQ g_base+24(FP), SI
	VBROADCASTSD lr+48(FP), Y0
	VBROADCASTSD inv+56(FP), Y1
	MOVQ DX, CX
	SHRQ $2, CX
	JZ   sgd_tail

sgd_vec:
	VMULPD  (SI), Y1, Y2    // g·inv
	VMULPD  Y2, Y0, Y2      // lr·(g·inv)
	VMOVUPD (DI), Y3
	VSUBPD  Y2, Y3, Y3      // p − lr·(g·inv)
	VMOVUPD Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     sgd_vec

sgd_tail:
	ANDQ $3, DX
	JZ   sgd_done

sgd_scalar:
	VMOVSD (SI), X2
	VMULSD X1, X2, X2
	VMULSD X2, X0, X2
	VMOVSD (DI), X3
	VSUBSD X2, X3, X3
	VMOVSD X3, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   DX
	JNZ    sgd_scalar

sgd_done:
	VZEROUPPER
	RET

//go:build amd64 && !purego

#include "textflag.h"

// func kernel4x8(dst *float32, ldd, kc int, as, bs *float32)
//
// 4×8 SGEMM micro-kernel over one packed depth block. Accumulators are
// seeded from dst and stored back, so successive depth blocks extend each
// element's ascending-k accumulation chain (the determinism contract).
// Vector lanes run across output columns only — lane c of X0/X1 is output
// element (row 0, col c) — so every element sees the same scalar IEEE
// mul/add sequence as the reference loop; MULPS/ADDPS round each lane
// independently and SSE2 has no fused multiply-add.
//
// Register plan (16 XMM):
//   X0..X7   accumulators: rows 0..3 × {cols 0-3, cols 4-7}
//   X8, X9   current B row (8 columns)
//   X10, X11 broadcast A element / product temporaries
TEXT ·kernel4x8(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), SI
	MOVQ kc+16(FP), DX
	MOVQ as+24(FP), R8
	MOVQ bs+32(FP), R9

	SHLQ $2, SI              // row stride in bytes
	LEAQ (DI)(SI*2), R10     // &dst[2·ldd]

	// Seed accumulators from the stored partials.
	MOVUPS (DI), X0
	MOVUPS 16(DI), X1
	MOVUPS (DI)(SI*1), X2
	MOVUPS 16(DI)(SI*1), X3
	MOVUPS (R10), X4
	MOVUPS 16(R10), X5
	MOVUPS (R10)(SI*1), X6
	MOVUPS 16(R10)(SI*1), X7

	TESTQ DX, DX
	JZ    store

loop:
	MOVUPS (R9), X8          // b[k][0:4]
	MOVUPS 16(R9), X9        // b[k][4:8]

	MOVSS  (R8), X10         // a[k][0]
	SHUFPS $0x00, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	ADDPS  X10, X0
	MULPS  X9, X11
	ADDPS  X11, X1

	MOVSS  4(R8), X10        // a[k][1]
	SHUFPS $0x00, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	ADDPS  X10, X2
	MULPS  X9, X11
	ADDPS  X11, X3

	MOVSS  8(R8), X10        // a[k][2]
	SHUFPS $0x00, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	ADDPS  X10, X4
	MULPS  X9, X11
	ADDPS  X11, X5

	MOVSS  12(R8), X10       // a[k][3]
	SHUFPS $0x00, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	ADDPS  X10, X6
	MULPS  X9, X11
	ADDPS  X11, X7

	ADDQ $16, R8             // next packed A row (4 floats)
	ADDQ $32, R9             // next packed B row (8 floats)
	DECQ DX
	JNZ  loop

store:
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, (DI)(SI*1)
	MOVUPS X3, 16(DI)(SI*1)
	MOVUPS X4, (R10)
	MOVUPS X5, 16(R10)
	MOVUPS X6, (R10)(SI*1)
	MOVUPS X7, 16(R10)(SI*1)
	RET

// func kernel8x8avx2(dst *float32, ldd, kc int, as, bs *float32)
//
// 8×8 SGEMM micro-kernel over one packed depth block (AVX2 dispatch tier).
// Same contract as kernel4x8: accumulators seed from dst and store back, k
// ascends, and each YMM lane is one output element — VBROADCASTSS/VMULPS/
// VADDPS round every lane independently exactly like the scalar reference
// chain, so the tier is bit-identical to the SSE2/naive path. No fused
// multiply-add is used, by design: a single-rounded update would break that
// bit identity.
//
// Register plan (16 YMM):
//   Y0..Y7  accumulators: one dst row each (8 columns)
//   Y8      current B row (8 columns)
//   Y9      broadcast A element
//   Y10     product temporary
TEXT ·kernel8x8avx2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), SI
	MOVQ kc+16(FP), DX
	MOVQ as+24(FP), R8
	MOVQ bs+32(FP), R9

	SHLQ $2, SI              // row stride in bytes
	LEAQ (DI)(SI*2), R10     // &dst[2·ldd]
	LEAQ (R10)(SI*2), R11    // &dst[4·ldd]
	LEAQ (R11)(SI*2), R12    // &dst[6·ldd]

	// Seed accumulators from the stored partials.
	VMOVUPS (DI), Y0
	VMOVUPS (DI)(SI*1), Y1
	VMOVUPS (R10), Y2
	VMOVUPS (R10)(SI*1), Y3
	VMOVUPS (R11), Y4
	VMOVUPS (R11)(SI*1), Y5
	VMOVUPS (R12), Y6
	VMOVUPS (R12)(SI*1), Y7

	TESTQ DX, DX
	JZ    avx2store

avx2loop:
	VMOVUPS (R9), Y8         // b[k][0:8]

	VBROADCASTSS (R8), Y9    // a[k][0]
	VMULPS       Y8, Y9, Y10
	VADDPS       Y10, Y0, Y0
	VBROADCASTSS 4(R8), Y9   // a[k][1]
	VMULPS       Y8, Y9, Y10
	VADDPS       Y10, Y1, Y1
	VBROADCASTSS 8(R8), Y9   // a[k][2]
	VMULPS       Y8, Y9, Y10
	VADDPS       Y10, Y2, Y2
	VBROADCASTSS 12(R8), Y9  // a[k][3]
	VMULPS       Y8, Y9, Y10
	VADDPS       Y10, Y3, Y3
	VBROADCASTSS 16(R8), Y9  // a[k][4]
	VMULPS       Y8, Y9, Y10
	VADDPS       Y10, Y4, Y4
	VBROADCASTSS 20(R8), Y9  // a[k][5]
	VMULPS       Y8, Y9, Y10
	VADDPS       Y10, Y5, Y5
	VBROADCASTSS 24(R8), Y9  // a[k][6]
	VMULPS       Y8, Y9, Y10
	VADDPS       Y10, Y6, Y6
	VBROADCASTSS 28(R8), Y9  // a[k][7]
	VMULPS       Y8, Y9, Y10
	VADDPS       Y10, Y7, Y7

	ADDQ $32, R8             // next packed A row (8 floats)
	ADDQ $32, R9             // next packed B row (8 floats)
	DECQ DX
	JNZ  avx2loop

avx2store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(SI*1)
	VMOVUPS Y2, (R10)
	VMOVUPS Y3, (R10)(SI*1)
	VMOVUPS Y4, (R11)
	VMOVUPS Y5, (R11)(SI*1)
	VMOVUPS Y6, (R12)
	VMOVUPS Y7, (R12)(SI*1)
	VZEROUPPER
	RET

// func laneStageSSE2(dst, src *float32, terms *laneTerm, off *int32, rows, outer, dOuter, dRow, sOuter, kStride int)
//
// One lane stage (lanes.go) at 8 lanes on two XMM halves. For o < outer and
// r < rows: dst[o·dOuter + r·dRow : +8] = Σ c·src[o·sOuter + k·kStride : +8]
// over the terms (k int32 at +0, c float32 at +4) of terms[off[r]:off[r+1]],
// in term order. Each entry's accumulators start at +0; the product is
// rounded (MULPS) before it is added, never fused, and ADDPS takes the
// accumulator as its first operand — the operand order of the scalar Go
// loop, which decides the NaN payload when both addends are NaN. Strides
// are in float32 elements; the caller has checked every address.
//
// Registers: DI dst of this o, SI src of this o, R8 terms, R9 &off[r],
// R10 rows, R11 outer countdown, R13 dRow bytes, R15 kStride bytes, BX dst
// of this entry, CX row countdown, DX &term, AX term countdown, R12 k
// offset; X0/X1 accumulators, X2 broadcast c, X3/X4 products.
TEXT ·laneStageSSE2(SB), NOSPLIT, $0-80
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ terms+16(FP), R8
	MOVQ rows+32(FP), R10
	MOVQ outer+40(FP), R11
	MOVQ dRow+56(FP), R13
	MOVQ kStride+72(FP), R15
	SHLQ $2, R13
	SHLQ $2, R15

sseouter:
	MOVQ off+24(FP), R9
	MOVQ DI, BX
	MOVQ R10, CX

sserow:
	MOVLQSX (R9), DX         // off[r]
	MOVLQSX 4(R9), AX        // off[r+1]
	SUBQ    DX, AX           // terms in row r
	LEAQ    (R8)(DX*8), DX   // &terms[off[r]]
	XORPS   X0, X0
	XORPS   X1, X1
	TESTQ   AX, AX
	JZ      ssestore

sseterm:
	MOVLQSX (DX), R12
	IMULQ   R15, R12         // k·kStride in bytes
	MOVSS   4(DX), X2        // c
	SHUFPS  $0x00, X2, X2
	MOVUPS  (SI)(R12*1), X3  // src lanes 0-3
	MOVUPS  16(SI)(R12*1), X4
	MULPS   X2, X3
	MULPS   X2, X4
	ADDPS   X3, X0           // acc + c·v
	ADDPS   X4, X1
	ADDQ    $8, DX
	DECQ    AX
	JNZ     sseterm

ssestore:
	MOVUPS X0, (BX)
	MOVUPS X1, 16(BX)
	ADDQ   R13, BX
	ADDQ   $4, R9
	DECQ   CX
	JNZ    sserow

	MOVQ dOuter+48(FP), AX
	SHLQ $2, AX
	ADDQ AX, DI
	MOVQ sOuter+64(FP), AX
	SHLQ $2, AX
	ADDQ AX, SI
	DECQ R11
	JNZ  sseouter
	RET

// func laneStageAVX2(dst, src *float32, terms *laneTerm, off *int32, rows, outer, dOuter, dRow, sOuter, kStride int)
//
// laneStageSSE2 on one YMM accumulator per entry: VBROADCASTSS c, VMULPS
// the 8 source lanes, VADDPS with the accumulator as first source. No
// fused multiply-add, by design (see kernel8x8avx2). Same registers, with
// Y0 the accumulator, Y1 the broadcast c and Y2 the product.
TEXT ·laneStageAVX2(SB), NOSPLIT, $0-80
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ terms+16(FP), R8
	MOVQ rows+32(FP), R10
	MOVQ outer+40(FP), R11
	MOVQ dRow+56(FP), R13
	MOVQ kStride+72(FP), R15
	SHLQ $2, R13
	SHLQ $2, R15

avxouter:
	MOVQ off+24(FP), R9
	MOVQ DI, BX
	MOVQ R10, CX

avxrow:
	MOVLQSX (R9), DX
	MOVLQSX 4(R9), AX
	SUBQ    DX, AX
	LEAQ    (R8)(DX*8), DX
	VXORPS  Y0, Y0, Y0
	TESTQ   AX, AX
	JZ      avxstore

avxterm:
	MOVLQSX      (DX), R12
	IMULQ        R15, R12
	VBROADCASTSS 4(DX), Y1
	VMULPS       (SI)(R12*1), Y1, Y2
	VADDPS       Y2, Y0, Y0  // acc + c·v
	ADDQ         $8, DX
	DECQ         AX
	JNZ          avxterm

avxstore:
	VMOVUPS Y0, (BX)
	ADDQ    R13, BX
	ADDQ    $4, R9
	DECQ    CX
	JNZ     avxrow

	MOVQ dOuter+48(FP), AX
	SHLQ $2, AX
	ADDQ AX, DI
	MOVQ sOuter+64(FP), AX
	SHLQ $2, AX
	ADDQ AX, SI
	DECQ R11
	JNZ  avxouter
	VZEROUPPER
	RET

// func cpuidRaw(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
//
// Raw CPUID — the repo is stdlib-only, so feature detection cannot lean on
// golang.org/x/sys. CPUID is unprivileged and serializing; leaf/subleaf go
// in via EAX/ECX.
TEXT ·cpuidRaw(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvRaw() (eax, edx uint32)
//
// XGETBV with XCR0 selected: bits 1|2 of EAX report whether the OS saves
// XMM+YMM state across context switches — without them AVX execution
// faults, whatever CPUID says about the silicon.
TEXT ·xgetbvRaw(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

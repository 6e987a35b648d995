#include "textflag.h"

// Both kernels keep one accumulator per output lane, start it at +0 and
// add one rounded product (or product pair) per term with VMULPS and
// VADDPS, never FMA, in the term order of the Go kernels.

// func analyzeAVX2(a, d, xe, xo, lo, hi *float32, blocks, taps int)
TEXT ·analyzeAVX2(SB), NOSPLIT, $0-64
	MOVQ a+0(FP), DI
	MOVQ d+8(FP), SI
	MOVQ xe+16(FP), R8
	MOVQ xo+24(FP), R9
	MOVQ lo+32(FP), R10
	MOVQ hi+40(FP), R11
	MOVQ blocks+48(FP), CX
	MOVQ taps+56(FP), DX
	SHRQ $1, DX // tap pairs

	// Two blocks per step on four accumulators, so the add chains of
	// one block overlap the latency of the other's.
ablock2:
	CMPQ   CX, $2
	JLT    ablock
	VXORPS Y0, Y0, Y0 // approximations, block 0
	VXORPS Y1, Y1, Y1 // details, block 0
	VXORPS Y8, Y8, Y8 // approximations, block 1
	VXORPS Y9, Y9, Y9 // details, block 1
	XORQ   BX, BX     // tap pair i

apair2:
	VBROADCASTSS (R10)(BX*8), Y4 // lo[2i]
	VBROADCASTSS (R11)(BX*8), Y5 // hi[2i]
	VMOVUPS      (R8)(BX*4), Y2  // xe[k+i : k+i+8]
	VMOVUPS      32(R8)(BX*4), Y3
	VMULPS       Y2, Y4, Y6
	VADDPS       Y6, Y0, Y0
	VMULPS       Y2, Y5, Y7
	VADDPS       Y7, Y1, Y1
	VMULPS       Y3, Y4, Y6
	VADDPS       Y6, Y8, Y8
	VMULPS       Y3, Y5, Y7
	VADDPS       Y7, Y9, Y9
	VBROADCASTSS 4(R10)(BX*8), Y4 // lo[2i+1]
	VBROADCASTSS 4(R11)(BX*8), Y5 // hi[2i+1]
	VMOVUPS      (R9)(BX*4), Y2   // xo[k+i : k+i+8]
	VMOVUPS      32(R9)(BX*4), Y3
	VMULPS       Y2, Y4, Y6
	VADDPS       Y6, Y0, Y0
	VMULPS       Y2, Y5, Y7
	VADDPS       Y7, Y1, Y1
	VMULPS       Y3, Y4, Y6
	VADDPS       Y6, Y8, Y8
	VMULPS       Y3, Y5, Y7
	VADDPS       Y7, Y9, Y9
	INCQ         BX
	CMPQ         BX, DX
	JLT          apair2

	VMOVUPS Y0, (DI)
	VMOVUPS Y8, 32(DI)
	VMOVUPS Y1, (SI)
	VMOVUPS Y9, 32(SI)
	ADDQ    $64, DI
	ADDQ    $64, SI
	ADDQ    $64, R8
	ADDQ    $64, R9
	SUBQ    $2, CX
	JMP     ablock2

ablock:
	TESTQ  CX, CX
	JZ     adone
	VXORPS Y0, Y0, Y0 // approximations
	VXORPS Y1, Y1, Y1 // details
	XORQ   BX, BX     // tap pair i

apair:
	VMOVUPS      (R8)(BX*4), Y2  // xe[k+i : k+i+8]
	VMOVUPS      (R9)(BX*4), Y3  // xo[k+i : k+i+8]
	VBROADCASTSS (R10)(BX*8), Y4 // lo[2i]
	VBROADCASTSS (R11)(BX*8), Y5 // hi[2i]
	VMULPS       Y2, Y4, Y6
	VADDPS       Y6, Y0, Y0
	VMULPS       Y2, Y5, Y7
	VADDPS       Y7, Y1, Y1
	VBROADCASTSS 4(R10)(BX*8), Y4 // lo[2i+1]
	VBROADCASTSS 4(R11)(BX*8), Y5 // hi[2i+1]
	VMULPS       Y3, Y4, Y6
	VADDPS       Y6, Y0, Y0
	VMULPS       Y3, Y5, Y7
	VADDPS       Y7, Y1, Y1
	INCQ         BX
	CMPQ         BX, DX
	JLT          apair

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (SI)

adone:
	VZEROUPPER
	RET

// func synthesizeAVX2(dst, a, d, he, ho, ge, gOdd *float32, blocks, kk int)
TEXT ·synthesizeAVX2(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ d+16(FP), R9
	MOVQ he+24(FP), R10
	MOVQ ho+32(FP), R11
	MOVQ ge+40(FP), R12
	MOVQ gOdd+48(FP), R13
	MOVQ blocks+56(FP), CX
	MOVQ kk+64(FP), DX

	// Two blocks per step, as in analyzeAVX2.
sblock2:
	CMPQ   CX, $2
	JLT    sblock
	VXORPS Y0, Y0, Y0 // even outputs, block 0
	VXORPS Y1, Y1, Y1 // odd outputs, block 0
	VXORPS Y8, Y8, Y8 // even outputs, block 1
	VXORPS Y9, Y9, Y9 // odd outputs, block 1
	XORQ   BX, BX     // coefficient pair i

spair2:
	VBROADCASTSS (R10)(BX*4), Y4 // he[i]
	VBROADCASTSS (R12)(BX*4), Y5 // ge[i]
	VBROADCASTSS (R11)(BX*4), Y6 // ho[i]
	VBROADCASTSS (R13)(BX*4), Y7 // gOdd[i]
	VMOVUPS      (R8)(BX*4), Y2  // a[j+i], block 0
	VMOVUPS      (R9)(BX*4), Y3  // d[j+i], block 0
	VMULPS       Y2, Y4, Y10
	VMULPS       Y3, Y5, Y11
	VADDPS       Y11, Y10, Y10
	VADDPS       Y10, Y0, Y0
	VMULPS       Y2, Y6, Y12
	VMULPS       Y3, Y7, Y13
	VADDPS       Y13, Y12, Y12
	VADDPS       Y12, Y1, Y1
	VMOVUPS      32(R8)(BX*4), Y2 // a[j+i], block 1
	VMOVUPS      32(R9)(BX*4), Y3 // d[j+i], block 1
	VMULPS       Y2, Y4, Y10
	VMULPS       Y3, Y5, Y11
	VADDPS       Y11, Y10, Y10
	VADDPS       Y10, Y8, Y8
	VMULPS       Y2, Y6, Y12
	VMULPS       Y3, Y7, Y13
	VADDPS       Y13, Y12, Y12
	VADDPS       Y12, Y9, Y9
	INCQ         BX
	CMPQ         BX, DX
	JLT          spair2

	VUNPCKLPS  Y1, Y0, Y2
	VUNPCKHPS  Y1, Y0, Y3
	VPERM2F128 $0x20, Y3, Y2, Y4
	VPERM2F128 $0x31, Y3, Y2, Y5
	VMOVUPS    Y4, (DI)
	VMOVUPS    Y5, 32(DI)
	VUNPCKLPS  Y9, Y8, Y2
	VUNPCKHPS  Y9, Y8, Y3
	VPERM2F128 $0x20, Y3, Y2, Y4
	VPERM2F128 $0x31, Y3, Y2, Y5
	VMOVUPS    Y4, 64(DI)
	VMOVUPS    Y5, 96(DI)
	ADDQ       $128, DI
	ADDQ       $64, R8
	ADDQ       $64, R9
	SUBQ       $2, CX
	JMP        sblock2

sblock:
	TESTQ  CX, CX
	JZ     sdone
	VXORPS Y0, Y0, Y0 // even outputs
	VXORPS Y1, Y1, Y1 // odd outputs
	XORQ   BX, BX     // coefficient pair i

spair:
	VMOVUPS      (R8)(BX*4), Y2  // a[j+i]
	VMOVUPS      (R9)(BX*4), Y3  // d[j+i]
	VBROADCASTSS (R10)(BX*4), Y4 // he[i]
	VBROADCASTSS (R12)(BX*4), Y5 // ge[i]
	VMULPS       Y2, Y4, Y4
	VMULPS       Y3, Y5, Y5
	VADDPS       Y5, Y4, Y4
	VADDPS       Y4, Y0, Y0
	VBROADCASTSS (R11)(BX*4), Y6 // ho[i]
	VBROADCASTSS (R13)(BX*4), Y7 // gOdd[i]
	VMULPS       Y2, Y6, Y6
	VMULPS       Y3, Y7, Y7
	VADDPS       Y7, Y6, Y6
	VADDPS       Y6, Y1, Y1
	INCQ         BX
	CMPQ         BX, DX
	JLT          spair

	// Interleave even and odd outputs into dst[2j], dst[2j+1].
	VUNPCKLPS  Y1, Y0, Y2        // e0 o0 e1 o1 | e4 o4 e5 o5
	VUNPCKHPS  Y1, Y0, Y3        // e2 o2 e3 o3 | e6 o6 e7 o7
	VPERM2F128 $0x20, Y3, Y2, Y4 // pairs 0-3
	VPERM2F128 $0x31, Y3, Y2, Y5 // pairs 4-7
	VMOVUPS    Y4, (DI)
	VMOVUPS    Y5, 32(DI)

sdone:
	VZEROUPPER
	RET

// func splitAVX2(xe, xo, src *float32, blocks int)
TEXT ·splitAVX2(SB), NOSPLIT, $0-32
	MOVQ xe+0(FP), DI
	MOVQ xo+8(FP), DX
	MOVQ src+16(FP), SI
	MOVQ blocks+24(FP), CX

split:
	VMOVUPS (SI), Y0              // s0 … s7
	VMOVUPS 32(SI), Y1            // s8 … s15
	VSHUFPS $0x88, Y1, Y0, Y2     // s0 s2 s8 s10 | s4 s6 s12 s14
	VSHUFPS $0xDD, Y1, Y0, Y3     // s1 s3 s9 s11 | s5 s7 s13 s15
	VPERMPD $0xD8, Y2, Y2         // s0 s2 s4 … s14
	VPERMPD $0xD8, Y3, Y3         // s1 s3 s5 … s15
	VMOVUPS Y2, (DI)
	VMOVUPS Y3, (DX)
	ADDQ    $64, SI
	ADDQ    $32, DI
	ADDQ    $32, DX
	DECQ    CX
	JNZ     split
	VZEROUPPER
	RET

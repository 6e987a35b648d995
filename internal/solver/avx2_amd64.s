#include "textflag.h"

// The prox kernels form α = shrink(y − step·g) for eight elements per
// block with the float32 operations of the Go loop, each separately
// rounded (VMULPS then VSUBPS, never FMA), and add each lane's float64
// terms (y−α)·(α−prev), (α−prev)² and α² into that lane's stripe.
// Stripes 0–3 of a sum live in one accumulator and stripes 4–7 in
// another; float32 products widened to float64 are exact, so only the
// stripe order of the adds matters, and it is the Go loop's.
//
// Registers: Y15 step, Y14 thresh, Y7 −thresh (branchy) or 1.0
// (branchless), Y8/Y9 restart, Y10/Y11 step2, Y12/Y13 norm2, Y0–Y6
// scratch; DI α, SI prev, R8 y, R9 grad, CX blocks left.

// PROXLOAD loads y into Y1 and forms v = y − step·g in Y0.
#define PROXLOAD \
	VMOVUPS (R8), Y1; \
	VMULPS  (R9), Y15, Y2; \
	VSUBPS  Y2, Y1, Y0

// PROXSUMS stores the block's α (Y0), adds its terms into the stripes
// with y in Y1, advances the pointers and counts the block. α is
// widened from its store, which spares the shuffle of its high half.
#define PROXSUMS \
	VMOVUPS      Y0, (DI); \
	VMOVUPS      (SI), Y2; \
	VSUBPS       Y2, Y0, Y2; \
	VSUBPS       Y0, Y1, Y1; \
	VCVTPS2PD    X2, Y3; \
	VCVTPS2PD    X1, Y4; \
	VCVTPS2PD    (DI), Y5; \
	VMULPD       Y3, Y4, Y6; \
	VADDPD       Y6, Y8, Y8; \
	VMULPD       Y3, Y3, Y6; \
	VADDPD       Y6, Y10, Y10; \
	VMULPD       Y5, Y5, Y6; \
	VADDPD       Y6, Y12, Y12; \
	VEXTRACTF128 $1, Y2, X3; \
	VEXTRACTF128 $1, Y1, X4; \
	VCVTPS2PD    X3, Y3; \
	VCVTPS2PD    X4, Y4; \
	VCVTPS2PD    16(DI), Y5; \
	VMULPD       Y3, Y4, Y6; \
	VADDPD       Y6, Y9, Y9; \
	VMULPD       Y3, Y3, Y6; \
	VADDPD       Y6, Y11, Y11; \
	VMULPD       Y5, Y5, Y6; \
	VADDPD       Y6, Y13, Y13; \
	ADDQ         $32, DI; \
	ADDQ         $32, SI; \
	ADDQ         $32, R8; \
	ADDQ         $32, R9; \
	DECQ         CX

// PROXENTER loads the arguments and clears the accumulators.
#define PROXENTER \
	MOVQ         alpha+8(FP), DI; \
	MOVQ         prev+16(FP), SI; \
	MOVQ         y+24(FP), R8; \
	MOVQ         grad+32(FP), R9; \
	MOVQ         blocks+40(FP), CX; \
	VBROADCASTSS step+48(FP), Y15; \
	VBROADCASTSS thresh+52(FP), Y14; \
	VXORPD       Y8, Y8, Y8; \
	VXORPD       Y9, Y9, Y9; \
	VXORPD       Y10, Y10, Y10; \
	VXORPD       Y11, Y11, Y11; \
	VXORPD       Y12, Y12, Y12; \
	VXORPD       Y13, Y13, Y13

// PROXEXIT writes the stripes to s.
#define PROXEXIT \
	MOVQ    s+0(FP), AX; \
	VMOVUPD Y8, (AX); \
	VMOVUPD Y9, 32(AX); \
	VMOVUPD Y10, 64(AX); \
	VMOVUPD Y11, 96(AX); \
	VMOVUPD Y12, 128(AX); \
	VMOVUPD Y13, 160(AX); \
	VZEROUPPER

// func proxAVX2(s *proxStripes, alpha, prev, y, grad *float32, blocks int, step, thresh float32)
TEXT ·proxAVX2(SB), NOSPLIT, $0-56
	PROXENTER
	MOVL         thresh+52(FP), AX
	XORL         $0x80000000, AX // −thresh, negated as Go negates
	MOVL         AX, X7
	VPBROADCASTD X7, Y7

branchy:
	PROXLOAD
	VCMPPS    $0x1e, Y14, Y0, Y3 // v > t (GT_OQ)
	VCMPPS    $0x11, Y7, Y0, Y4  // v < −t (LT_OQ)
	VSUBPS    Y14, Y0, Y5        // v − t
	VADDPS    Y14, Y0, Y6        // v + t
	VANDPS    Y4, Y6, Y6         // v + t where v < −t, else +0
	VBLENDVPS Y3, Y5, Y6, Y0     // v − t where v > t: the first case wins
	PROXSUMS
	JNZ       branchy

	PROXEXIT
	RET

// func proxBranchlessAVX2(s *proxStripes, alpha, prev, y, grad *float32, blocks int, step, thresh float32)
TEXT ·proxBranchlessAVX2(SB), NOSPLIT, $0-56
	PROXENTER
	MOVL         $0x3f800000, AX // 1.0
	MOVL         AX, X7
	VPBROADCASTD X7, Y7

branchless:
	PROXLOAD
	VXORPS    Y2, Y2, Y2
	VCMPPS    $0x11, Y2, Y0, Y3  // v < 0
	VSUBPS    Y0, Y2, Y4         // 0 − v, which is −v wherever v < 0
	VBLENDVPS Y3, Y4, Y0, Y4     // av: −v where v < 0, else v (−0 stays −0)
	VSUBPS    Y14, Y4, Y4        // m = av − t
	VCMPPS    $0x1e, Y2, Y4, Y5  // m > 0
	VANDPS    Y7, Y5, Y5         // pos: 1 or +0
	VMULPS    Y5, Y4, Y4         // m·pos
	VCMPPS    $0x1e, Y2, Y0, Y5  // v > 0
	VANDPS    Y7, Y5, Y5         // 1 where v > 0, else +0
	VANDPS    Y7, Y3, Y3         // 1 where v < 0, else +0
	VSUBPS    Y3, Y5, Y5         // sgn: 1, −1 or +0
	VMULPS    Y5, Y4, Y0         // α = m·sgn
	PROXSUMS
	JNZ       branchless

	PROXEXIT
	RET

// func momentumAVX2(y, alpha, prev *float32, blocks int, beta float32)
TEXT ·momentumAVX2(SB), NOSPLIT, $0-36
	MOVQ         y+0(FP), DI
	MOVQ         alpha+8(FP), SI
	MOVQ         prev+16(FP), R8
	MOVQ         blocks+24(FP), CX
	VBROADCASTSS beta+32(FP), Y15

momentum:
	VMOVUPS (SI), Y0
	VSUBPS  (R8), Y0, Y1 // α − prev
	VMULPS  Y1, Y15, Y1  // β·(α − prev), rounded
	VADDPS  Y1, Y0, Y1   // α + β·(α − prev)
	VMOVUPS Y1, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, R8
	DECQ    CX
	JNZ     momentum
	VZEROUPPER
	RET

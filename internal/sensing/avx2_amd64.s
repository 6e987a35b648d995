#include "textflag.h"

// Both kernels gather eight outputs' terms per step with VGATHERDPS and
// accumulate each lane from +0 with VADDPS (and VMULPS for the scale),
// never FMA, in the term order of the Go kernels.

// func phiAVX2(dst, x *float32, idx, lens *int32, groups int, scale float32)
TEXT ·phiAVX2(SB), NOSPLIT, $0-44
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         idx+16(FP), R8
	MOVQ         lens+24(FP), R9
	MOVQ         groups+32(FP), CX
	VBROADCASTSS scale+40(FP), Y15
	VPCMPEQD     Y14, Y14, Y14 // −1 in every lane

group:
	MOVLQSX (R9), DX // entries in the group's longest row
	VXORPS  Y0, Y0, Y0
	TESTQ   DX, DX
	JZ      gstore

entry:
	VMOVDQU    (R8), Y1              // column of each lane's row
	VPCMPGTD   Y14, Y1, Y2           // lanes with a column (index > −1)
	VXORPS     Y3, Y3, Y3            // padded lanes keep +0
	VGATHERDPS Y2, (SI)(Y1*4), Y3
	VMULPS     Y15, Y3, Y3
	VADDPS     Y3, Y0, Y0
	ADDQ       $32, R8
	DECQ       DX
	JNZ        entry

gstore:
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $4, R9
	DECQ    CX
	JNZ     group
	VZEROUPPER
	RET

// func phiTAVX2(dst, y *float32, idx *int32, blocks, d int, scale float32)
TEXT ·phiTAVX2(SB), NOSPLIT, $0-44
	MOVQ         dst+0(FP), DI
	MOVQ         y+8(FP), SI
	MOVQ         idx+16(FP), R8
	MOVQ         blocks+24(FP), CX
	MOVQ         d+32(FP), R9
	VBROADCASTSS scale+40(FP), Y15

block:
	VXORPS Y0, Y0, Y0
	MOVQ   R9, DX

row:
	VMOVDQU    (R8), Y1 // row j of each lane's column
	VPCMPEQD   Y2, Y2, Y2
	VXORPS     Y3, Y3, Y3
	VGATHERDPS Y2, (SI)(Y1*4), Y3
	VADDPS     Y3, Y0, Y0
	ADDQ       $32, R8
	DECQ       DX
	JNZ        row

	VMULPS  Y15, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	DECQ    CX
	JNZ     block
	VZEROUPPER
	RET

#include "textflag.h"

// func sum8(p *int32) int32
TEXT ·sum8(SB), NOSPLIT, $0-12
	MOVQ p+0(FP), SI
	MOVL (SI), AX
	ADDL 4(SI), AX
	ADDL 8(SI), AX
	ADDL 12(SI), AX
	ADDL 16(SI), AX
	ADDL 20(SI), AX
	ADDL 24(SI), AX
	ADDL 28(SI), AX
	MOVL AX, ret+8(FP)
	RET

// func sumEscaping(p *int32) int32
TEXT ·sumEscaping(SB), NOSPLIT, $0-12
	JMP ·sum8(SB)

#include "textflag.h"

// func sumSquaresLanesAVX2(l *[16]float64, x []float64)
//
// Y0..Y3 hold lanes 0-3, 4-7, 8-11 and 12-15. Each block of 16 elements is
// squared (rounded: VMULPD, never a fused multiply-add) and then added to
// its lanes, so lane j adds the squares of x[j], x[j+16], … in index order.
TEXT ·sumSquaresLanesAVX2(SB), NOSPLIT, $0-32
	MOVQ   l+0(FP), DI
	MOVQ   x_base+8(FP), SI
	MOVQ   x_len+16(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	SHRQ   $4, CX
	JZ     done

loop:
	VMOVUPD 0(SI), Y4
	VMOVUPD 32(SI), Y5
	VMOVUPD 64(SI), Y6
	VMOVUPD 96(SI), Y7
	VMULPD  Y4, Y4, Y4
	VMULPD  Y5, Y5, Y5
	VMULPD  Y6, Y6, Y6
	VMULPD  Y7, Y7, Y7
	VADDPD  Y4, Y0, Y0
	VADDPD  Y5, Y1, Y1
	VADDPD  Y6, Y2, Y2
	VADDPD  Y7, Y3, Y3
	ADDQ    $128, SI
	DECQ    CX
	JNZ     loop

done:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

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
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET

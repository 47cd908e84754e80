package tensor

// sumSquaresLanesAVX2 is sumSquaresLanes in four YMM accumulators of four
// lanes each, a VMULPD then a VADDPD per load; len(x) is a multiple of 16.
// The lanes stay on the caller's stack only because the kernel is declared
// not to keep the pointer.
//
//go:noescape
func sumSquaresLanesAVX2(l *[16]float64, x []float64)

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0, the register state the OS saves on a context switch.
func xgetbv() (eax, edx uint32)

// haveAVX2 reports whether the CPU has AVX2 and the OS saves YMM state.
func haveAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYmm = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&xmmYmm != xmmYmm {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

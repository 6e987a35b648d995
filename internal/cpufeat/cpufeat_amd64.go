package cpufeat

// cpuid executes CPUID with the given leaf (EAX) and sub-leaf (ECX).
//
//go:noescape
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads the extended control register XCR0.
//
//go:noescape
func xgetbv() (eax, edx uint32)

func hasAVX2() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX, XGETBV is usable
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.(7,0):EBX
		ymmMask = 1<<1 | 1<<2
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves the SSE and AVX (upper YMM) state.
	if xcr0, _ := xgetbv(); xcr0&ymmMask != ymmMask {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

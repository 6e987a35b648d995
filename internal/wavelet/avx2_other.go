//go:build !amd64

package wavelet

// The AVX2 kernels exist only on amd64; elsewhere cpufeat.HasAVX2 is false and
// New never selects them.

func analyzeAVX2(a, d, xe, xo, lo, hi *float32, blocks, taps int) {
	panic("wavelet: AVX2 kernel on a non-amd64 build")
}

func synthesizeAVX2(dst, a, d, he, ho, ge, gOdd *float32, blocks, kk int) {
	panic("wavelet: AVX2 kernel on a non-amd64 build")
}

func splitAVX2(xe, xo, src *float32, blocks int) {
	panic("wavelet: AVX2 kernel on a non-amd64 build")
}

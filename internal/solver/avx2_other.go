//go:build !amd64

package solver

// The AVX2 kernels exist only on amd64; elsewhere cpufeat.HasAVX2 is
// false and selectKernels never selects them.

func proxAVX2(s *proxStripes, alpha, prev, y, grad *float32, blocks int, step, thresh float32) {
	panic("solver: AVX2 kernel on a non-amd64 build")
}

func proxBranchlessAVX2(s *proxStripes, alpha, prev, y, grad *float32, blocks int, step, thresh float32) {
	panic("solver: AVX2 kernel on a non-amd64 build")
}

func momentumAVX2(y, alpha, prev *float32, blocks int, beta float32) {
	panic("solver: AVX2 kernel on a non-amd64 build")
}

package solver

import (
	"csecg/internal/cpufeat"
	"csecg/internal/linalg"
)

// lanes is the AVX2 vector width in float32 lanes, and the number of
// stripes proxStep splits each of its sums into on every path.
const lanes = 8

// kernels is the SIMD form of FISTA's two per-iteration vector passes.
// Only avx2Kernels implements it, at T = float32; the interface is how
// the generic solver reaches float32 code without converting slices.
type kernels[T linalg.Float] interface {
	prox(alpha, prev, y, g []T, step, thresh T, branchless bool) proxSums
	momentum(y, alpha, prev []T, beta T)
}

// selectKernels returns the AVX2 kernels when T is float32 and the CPU
// supports AVX2, and nil otherwise (the Go loops run).
func selectKernels[T linalg.Float]() kernels[T] {
	if !cpufeat.HasAVX2 {
		return nil
	}
	k, _ := any(avx2Kernels{}).(kernels[T])
	return k
}

// avx2Kernels runs proxStep and momentumStep on 8-lane AVX2 kernels.
// Each lane computes the Go loop's element with the same float32
// operations, separately rounded (no FMA), and adds its float64 terms
// into its own stripe, so α, y and the sums are bit-identical to the
// Go loops. The kernels cover whole blocks of eight; the Go loops
// finish the last len mod 8 elements on a subslice that starts at a
// multiple of eight, so element i still adds into stripe i mod 8.
type avx2Kernels struct{}

// prox is proxStep on the AVX2 kernels.
//
//csecg:hotpath the fused vector step of every FISTA iteration
func (avx2Kernels) prox(alpha, prev, y, g []float32, step, thresh float32, branchless bool) proxSums {
	n := len(alpha)
	prev, y, g = prev[:n], y[:n], g[:n]
	var s proxStripes
	whole := n &^ (lanes - 1)
	if whole > 0 {
		if branchless {
			proxBranchlessAVX2(&s, &alpha[0], &prev[0], &y[0], &g[0], whole/lanes, step, thresh)
		} else {
			proxAVX2(&s, &alpha[0], &prev[0], &y[0], &g[0], whole/lanes, step, thresh)
		}
	}
	proxStriped(&s, alpha[whole:], prev[whole:], y[whole:], g[whole:], step, thresh, branchless)
	return s.sum()
}

// momentum is momentumStep on the AVX2 kernel.
//
//csecg:hotpath the momentum pass of every FISTA iteration
func (avx2Kernels) momentum(y, alpha, prev []float32, beta float32) {
	n := len(y)
	alpha, prev = alpha[:n], prev[:n]
	whole := n &^ (lanes - 1)
	if whole > 0 {
		momentumAVX2(&y[0], &alpha[0], &prev[0], whole/lanes, beta)
	}
	momentumStep(y[whole:], alpha[whole:], prev[whole:], beta)
}

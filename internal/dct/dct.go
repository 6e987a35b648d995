// Package dct implements the orthonormal discrete cosine transform
// (DCT-II analysis / DCT-III synthesis) as an alternative sparsifying
// basis Ψ for the CS recovery.
//
// The paper fixes an orthonormal wavelet basis; the ECG-compression
// literature it builds on also uses cosine bases, and the ablation
// experiments compare the two. The transform here is matrix-free in the
// operator sense (nothing is materialized at recovery time beyond a
// cosine table) and exactly orthonormal, so the synthesis adjoint equals
// the analysis transform, as the solver requires.
package dct

import (
	"fmt"
	"math"

	"csecg/internal/linalg"
)

// Transform is an orthonormal DCT over length-n vectors. It is generic
// over float32/float64 like the wavelet transform, so the decoder can be
// instantiated at either precision.
type Transform[T linalg.Float] struct {
	n int
	// cos holds the orthonormal DCT-II kernel K[k][i] = s_k·cos(π(2i+1)k/2n)
	// row-major; K·x is analysis, Kᵀ·c synthesis. n×n values at the
	// instantiated precision (512×512 float32 = 1 MB — coordinator-class
	// memory, not mote memory; only the decoder holds it).
	cos []T
}

// New builds the transform. n must be positive.
func New[T linalg.Float](n int) (*Transform[T], error) {
	if n <= 0 {
		return nil, fmt.Errorf("dct: length %d must be positive", n)
	}
	t := &Transform[T]{n: n, cos: make([]T, n*n)}
	s0 := math.Sqrt(1 / float64(n))
	sk := math.Sqrt(2 / float64(n))
	for k := 0; k < n; k++ {
		scale := sk
		if k == 0 {
			scale = s0
		}
		for i := 0; i < n; i++ {
			t.cos[k*n+i] = T(scale * math.Cos(math.Pi*float64(2*i+1)*float64(k)/(2*float64(n))))
		}
	}
	return t, nil
}

// Len returns the transform length.
func (t *Transform[T]) Len() int { return t.n }

// Forward computes the analysis transform (DCT-II): dst[k] = Σ K[k][i]x[i].
func (t *Transform[T]) Forward(dst, x []T) {
	if len(dst) != t.n || len(x) != t.n {
		panic("dct: Forward length mismatch")
	}
	for k := 0; k < t.n; k++ {
		dst[k] = linalg.Dot4(t.cos[k*t.n:(k+1)*t.n], x)
	}
}

// Inverse computes the synthesis transform (DCT-III): dst = Kᵀ·c.
func (t *Transform[T]) Inverse(dst, c []T) {
	if len(dst) != t.n || len(c) != t.n {
		panic("dct: Inverse length mismatch")
	}
	for i := range dst {
		dst[i] = 0
	}
	for k := 0; k < t.n; k++ {
		if c[k] == 0 {
			continue
		}
		linalg.Axpy4(c[k], t.cos[k*t.n:(k+1)*t.n], dst)
	}
}

// ForwardTo is Forward in the scratch-taking form the decoder's basis
// interface shares with the wavelet transform; the DCT needs no scratch.
func (t *Transform[T]) ForwardTo(dst, x, _ []T) { t.Forward(dst, x) }

// InverseTo is Inverse in the same scratch-taking form as ForwardTo.
func (t *Transform[T]) InverseTo(dst, c, _ []T) { t.Inverse(dst, c) }

// SynthesisOp exposes Ψ as a linalg.Op, mirroring the wavelet package:
// Apply is synthesis (coefficients → samples), ApplyT analysis.
func (t *Transform[T]) SynthesisOp() linalg.Op[T] {
	return linalg.Op[T]{
		InDim:  t.n,
		OutDim: t.n,
		Apply:  func(dst, x []T) { t.Inverse(dst, x) },
		ApplyT: func(dst, y []T) { t.Forward(dst, y) },
	}
}

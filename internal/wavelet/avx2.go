package wavelet

import "csecg/internal/linalg"

// lanes is the AVX2 vector width in float32 lanes.
const lanes = 8

// kernels is the SIMD form of a transform's two filter banks. Only
// avx2Transform implements it, at T = float32.
type kernels[T linalg.Float] interface {
	forwardTo(dst, x, scratch []T)
	inverseTo(dst, coeffs, scratch []T)
}

// avx2Transform runs a float32 Transform on 8-lane AVX2 kernels. Each
// lane computes one output, summing that output's terms in exactly the
// order the Go kernels use, with a separate multiply and add per term
// (no FMA), so every result is bit-identical to the Go kernels.
//
// Analysis splits each level's input into even and odd polyphase
// halves: output k of the split is then Σᵢ h[2i]·xe[k+i] + h[2i+1]·xo[k+i]
// over contiguous loads. Synthesis gathers eight interior output pairs
// per step and interleaves the even and odd results on store.
// Synthesis's wrap pairs, and coarse levels with fewer than eight
// outputs that read no wrapped input, stay on the Go kernels.
type avx2Transform struct{ t *Transform[float32] }

// forwardTo is ForwardTo on the AVX2 analysis kernel. The polyphase
// split of each level replaces the Go kernel's copy into scratch.
//
//csecg:hotpath the AVX2 form of ForwardTo
func (k avx2Transform) forwardTo(dst, x, scratch []float32) {
	t := k.t
	e := len(t.h) / 2
	n, src := t.n, x
	for lev := 0; lev < t.levels; lev++ {
		half := n / 2
		if half-e+1 < lanes {
			// Fewer than eight outputs read no wrapped input: this
			// coarse block stays on the Go kernel.
			copy(scratch[:n], src[:n])
			t.analyzeOne(dst[:n], scratch[:n])
		} else {
			xe, xo := scratch[:half], scratch[half:n]
			blocks := half / lanes
			splitAVX2(&xe[0], &xo[0], &src[0], blocks)
			if last := half - lanes; last > (blocks-1)*lanes {
				splitAVX2(&xe[last], &xo[last], &src[2*last], 1)
			}
			k.analyzePoly(dst[:half], dst[half:n], xe, xo)
		}
		src = dst[:half]
		n = half
	}
}

// analyzePoly computes the approximation a and detail d of one analysis
// split from the polyphase halves xe and xo. At least eight outputs
// must read no wrapped input.
func (k avx2Transform) analyzePoly(a, d, xe, xo []float32) {
	h, g := k.t.h, k.t.g
	half, taps := len(xe), len(h)
	e := taps / 2
	// Outputs k < half−e+1 read xe[k : k+e] without wrapping. They run
	// in blocks of eight; a last block overlapping its predecessor
	// rewrites a few outputs with identical values instead of falling
	// back to scalar code.
	interior := half - e + 1
	blocks := interior / lanes
	analyzeAVX2(&a[0], &d[0], &xe[0], &xo[0], &h[0], &g[0], blocks, taps)
	if last := interior - lanes; last > (blocks-1)*lanes {
		analyzeAVX2(&a[last], &d[last], &xe[last], &xo[last], &h[0], &g[0], 1, taps)
	}
	if e == 1 {
		return // a two-tap filter never wraps
	}
	// The e−1 outputs that wrap run in whole blocks ending at half, over
	// a periodic extension of the polyphase halves built on the stack.
	var pe, po [2*lanes + 10 - 1]float32 // e ≤ 10 for db1–db10
	wb := (e - 1 + lanes - 1) / lanes
	k0 := half - wb*lanes // ≥ 0: half ≥ lanes+e−1
	for j := 0; j < wb*lanes+e-1; j++ {
		idx := k0 + j
		if idx >= half {
			idx -= half // k0+j < 2·half, so one wrap at most
		}
		pe[j], po[j] = xe[idx], xo[idx]
	}
	analyzeAVX2(&a[k0], &d[k0], &pe[0], &po[0], &h[0], &g[0], wb, taps)
}

// inverseTo is InverseTo on the AVX2 synthesis kernel.
//
//csecg:hotpath the AVX2 form of InverseTo
func (k avx2Transform) inverseTo(dst, coeffs, scratch []float32) {
	t := k.t
	copy(scratch, coeffs)
	n := t.n >> uint(t.levels)
	for lev := t.levels - 1; lev >= 0; lev-- {
		k.synthesizeOne(dst[:2*n], scratch[:n], scratch[n:2*n])
		if lev > 0 {
			copy(scratch[:2*n], dst[:2*n])
		}
		n *= 2
	}
}

// synthesizeOne is Transform.synthesizeOne with the interior pairs on
// the AVX2 kernel.
func (k avx2Transform) synthesizeOne(dst, a, d []float32) {
	t := k.t
	half, kk := len(a), len(t.he)
	interior := half - kk + 1 // pairs m ≥ kk−1 gather without wrapping
	if interior < lanes {
		t.synthesizeOne(dst, a, d)
		return
	}
	// The kk−1 wrap pairs collect their coefficients in ascending order,
	// which is not the order of a periodic extension: keep them on Go.
	t.synthesizeWrap(dst, a, d, kk-1)
	he, ho, ge, gOdd := &t.he[0], &t.ho[0], &t.ge[0], &t.gOdd[0]
	blocks := interior / lanes
	synthesizeAVX2(&dst[2*(kk-1)], &a[0], &d[0], he, ho, ge, gOdd, blocks, kk)
	if last := interior - lanes; last > (blocks-1)*lanes {
		synthesizeAVX2(&dst[2*(kk-1+last)], &a[last], &d[last], he, ho, ge, gOdd, 1, kk)
	}
}

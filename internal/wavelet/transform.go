package wavelet

import (
	"fmt"

	"csecg/internal/cpufeat"
	"csecg/internal/linalg"
)

// Transform is a multi-level periodized orthonormal DWT over signals of a
// fixed length. It is generic over float32/float64 so the decoder can be
// instantiated at both the "iPhone (32-bit)" and "Matlab (64-bit)"
// precisions of the paper's Fig. 6.
//
// Coefficient layout of a forward transform with L levels over length-N
// signals, matching the conventional pyramid order:
//
//	[ a_L | d_L | d_{L−1} | … | d_1 ]
//
// where a_L has N/2^L entries and d_j has N/2^j entries.
//
// A Transform is immutable after New, so one value may be shared by
// concurrent goroutines; all scratch space is either allocated per call
// (Forward, Inverse) or supplied by the caller (ForwardTo, InverseTo).
type Transform[T linalg.Float] struct {
	h, g []T // analysis low/high-pass filters
	// Synthesis gathers each output pair from the filters' even and odd
	// polyphase components, stored in reverse tap order so the gather
	// walks the coefficients in ascending order:
	// he[j] = h[taps−2−2j], ho[j] = h[taps−1−2j], likewise ge/gOdd.
	he, ho, ge, gOdd []T
	n                int
	levels           int
	// avx2, set by New for float32 transforms on CPUs with AVX2, runs
	// ForwardTo and InverseTo on bit-identical SIMD kernels.
	avx2 kernels[T]
}

// New builds a Daubechies-order transform for length-n signals with the
// given number of decomposition levels. n must be divisible by 2^levels
// and the coarsest block must still be at least as long as the filter
// (2·order taps) for the periodization to stay orthonormal.
func New[T linalg.Float](order, n, levels int) (*Transform[T], error) {
	if n <= 0 {
		return nil, fmt.Errorf("wavelet: signal length %d must be positive", n)
	}
	if levels < 1 {
		return nil, fmt.Errorf("wavelet: levels %d must be at least 1", levels)
	}
	if n%(1<<uint(levels)) != 0 {
		return nil, fmt.Errorf("wavelet: length %d not divisible by 2^%d", n, levels)
	}
	h64, err := DaubechiesFilter(order)
	if err != nil {
		return nil, err
	}
	if coarse := n >> uint(levels); coarse < len(h64) {
		return nil, fmt.Errorf("wavelet: coarsest block %d shorter than %d-tap filter; reduce levels", coarse, len(h64))
	}
	g64 := QMF(h64)
	t := &Transform[T]{n: n, levels: levels, h: make([]T, len(h64)), g: make([]T, len(g64))}
	for i := range h64 {
		t.h[i] = T(h64[i])
		t.g[i] = T(g64[i])
	}
	taps := len(h64)
	for j := 0; j < taps/2; j++ {
		t.he = append(t.he, t.h[taps-2-2*j])
		t.ho = append(t.ho, t.h[taps-1-2*j])
		t.ge = append(t.ge, t.g[taps-2-2*j])
		t.gOdd = append(t.gOdd, t.g[taps-1-2*j])
	}
	if t32, ok := any(t).(*Transform[float32]); ok && cpufeat.HasAVX2 {
		t.avx2 = any(avx2Transform{t32}).(kernels[T])
	}
	return t, nil
}

// MaxLevels returns the deepest decomposition admissible for a
// Daubechies-order transform on length-n signals.
func MaxLevels(order, n int) int {
	taps := 2 * order
	levels := 0
	for n%2 == 0 && n/2 >= taps {
		n /= 2
		levels++
	}
	return levels
}

// Len returns the signal length the transform operates on.
func (t *Transform[T]) Len() int { return t.n }

// Levels returns the number of decomposition levels.
func (t *Transform[T]) Levels() int { return t.levels }

// Forward computes the analysis transform (Ψᵀ for the orthonormal basis):
// dst receives the coefficient pyramid of x. dst and x must both have
// length Len(); they may be the same slice, but must not otherwise
// overlap. Forward allocates its scratch on every call; loops that run
// the transform repeatedly should use ForwardTo.
func (t *Transform[T]) Forward(dst, x []T) { t.ForwardTo(dst, x, make([]T, t.n)) }

// ForwardTo is Forward with caller-owned scratch of length Len(), which
// must not overlap dst or x. It allocates nothing.
//
//csecg:hotpath runs twice per FISTA iteration through ΦΨ and its adjoint
func (t *Transform[T]) ForwardTo(dst, x, scratch []T) {
	if len(dst) != t.n || len(x) != t.n || len(scratch) != t.n {
		panic("wavelet: Forward length mismatch")
	}
	if t.avx2 != nil {
		t.avx2.forwardTo(dst, x, scratch)
		return
	}
	copy(scratch, x)
	n := t.n
	for lev := 0; lev < t.levels; lev++ {
		t.analyzeOne(dst[:n], scratch[:n])
		copy(scratch[:n/2], dst[:n/2])
		n /= 2
	}
}

// analyzeOne performs one analysis split of the length-n prefix:
// dst[:n/2] = approximation, dst[n/2:n] = detail. Every output sums its
// taps in ascending order; the interior, where the filter window does
// not wrap, computes two output pairs at a time on four independent
// accumulators so the adds of one pair overlap the latency of the
// other's.
//
//csecg:hotpath the analysis filter bank, inside every ForwardTo
func (t *Transform[T]) analyzeOne(dst, x []T) {
	n := len(x)
	half := n / 2
	h, g := t.h, t.g[:len(t.h)]
	taps := len(h)
	// Output k reads x[2k : 2k+taps]; it wraps from k = interior on.
	interior := (n-taps)/2 + 1
	k := 0
	for ; k+1 < interior; k += 2 {
		x0, x1 := x[2*k:][:taps], x[2*k+2:][:taps]
		var a0, d0, a1, d1 T
		for i, hi := range h {
			gi, v0, v1 := g[i], x0[i], x1[i]
			a0 += hi * v0
			d0 += gi * v0
			a1 += hi * v1
			d1 += gi * v1
		}
		dst[k], dst[half+k] = a0, d0
		dst[k+1], dst[half+k+1] = a1, d1
	}
	for ; k < half; k++ {
		var a, d T
		base := 2 * k
		for i := 0; i < taps; i++ {
			idx := base + i
			if idx >= n {
				idx -= n // filters never exceed block length, one wrap max
			}
			v := x[idx]
			a += h[i] * v
			d += g[i] * v
		}
		dst[k] = a
		dst[half+k] = d
	}
}

// Inverse computes the synthesis transform Ψ: dst receives the signal
// whose coefficient pyramid is coeffs. dst and coeffs must both have
// length Len(); they may be the same slice, but must not otherwise
// overlap. Inverse allocates its scratch on every call; loops that run
// the transform repeatedly should use InverseTo.
func (t *Transform[T]) Inverse(dst, coeffs []T) { t.InverseTo(dst, coeffs, make([]T, t.n)) }

// InverseTo is Inverse with caller-owned scratch of length Len(), which
// must not overlap dst or coeffs. It allocates nothing.
//
//csecg:hotpath runs twice per FISTA iteration through ΦΨ and its adjoint
func (t *Transform[T]) InverseTo(dst, coeffs, scratch []T) {
	if len(dst) != t.n || len(coeffs) != t.n || len(scratch) != t.n {
		panic("wavelet: Inverse length mismatch")
	}
	if t.avx2 != nil {
		t.avx2.inverseTo(dst, coeffs, scratch)
		return
	}
	copy(scratch, coeffs)
	n := t.n >> uint(t.levels)
	for lev := t.levels - 1; lev >= 0; lev-- {
		t.synthesizeOne(dst[:2*n], scratch[:n], scratch[n:2*n])
		if lev > 0 {
			copy(scratch[:2*n], dst[:2*n])
		}
		n *= 2
	}
}

// synthesizeOne is the exact transpose of analyzeOne: it rebuilds a
// length-2·len(a) block from the approximation a and detail d. It is
// written as a gather, each output pair (2m, 2m+1) summing the
// coefficient pairs that reach it in ascending coefficient order — the
// order in which the transpose would scatter them. The interior computes
// two output pairs per step on four independent accumulators.
//
//csecg:hotpath the synthesis filter bank, inside every InverseTo
func (t *Transform[T]) synthesizeOne(dst, a, d []T) {
	half := len(a)
	d = d[:half]
	kk := len(t.he) // coefficient pairs reaching each output pair
	// The wrap loop also takes the first interior pair when the interior
	// count is odd, so the rest splits into pairs of pairs.
	m := kk - 1 + (half-kk+1)%2
	t.synthesizeWrap(dst, a, d, m)
	he, ho := t.he[:kk], t.ho[:kk]
	ge, gOdd := t.ge[:kk], t.gOdd[:kk]
	for ; m < half; m += 2 {
		av, dv := a[m-kk+1:][:kk+1], d[m-kk+1:][:kk+1]
		av1, dv1 := av[1:], dv[1:]
		var e, o, e1, o1 T
		for j, h := range he {
			e += h*av[j] + ge[j]*dv[j]
			o += ho[j]*av[j] + gOdd[j]*dv[j]
			e1 += h*av1[j] + ge[j]*dv1[j]
			o1 += ho[j]*av1[j] + gOdd[j]*dv1[j]
		}
		dst[2*m], dst[2*m+1] = e, o
		dst[2*m+2], dst[2*m+3] = e1, o1
	}
}

// synthesizeWrap computes the output pairs m < end ≤ len(t.he) of
// synthesizeOne. Pairs m < kk−1 also collect coefficients from the far
// end of the block through the periodic wrap: first k = 0…m, then
// k = half−(kk−1−m) … half−1.
//
//csecg:hotpath the wrap pairs of every synthesis split
func (t *Transform[T]) synthesizeWrap(dst, a, d []T, end int) {
	half, kk := len(a), len(t.he)
	for m := 0; m < end; m++ {
		var e, o T
		for k := 0; k <= m; k++ {
			s := 2 * (m - k)
			e += t.h[s]*a[k] + t.g[s]*d[k]
			o += t.h[s+1]*a[k] + t.g[s+1]*d[k]
		}
		for k := half - (kk - 1 - m); k < half; k++ {
			s := 2 * (m - k + half)
			e += t.h[s]*a[k] + t.g[s]*d[k]
			o += t.h[s+1]*a[k] + t.g[s+1]*d[k]
		}
		dst[2*m], dst[2*m+1] = e, o
	}
}

// SynthesisOp exposes Ψ as a linalg.Op: Apply is the synthesis (inverse)
// transform mapping coefficients to samples, ApplyT the analysis
// transform. For an orthonormal wavelet the adjoint equals the inverse,
// which the tests assert via linalg.AdjointMismatch.
func (t *Transform[T]) SynthesisOp() linalg.Op[T] {
	return linalg.Op[T]{
		InDim:  t.n,
		OutDim: t.n,
		Apply:  func(dst, x []T) { t.Inverse(dst, x) },
		ApplyT: func(dst, y []T) { t.Forward(dst, y) },
	}
}

// LargestK zeroes all but the k largest-magnitude entries of coeffs in
// place, the hard-thresholding used to measure how wavelet-sparse a
// signal is (the S-sparse approximation of Section II-A).
func LargestK[T linalg.Float](coeffs []T, k int) {
	if k >= len(coeffs) {
		return
	}
	if k <= 0 {
		for i := range coeffs {
			coeffs[i] = 0
		}
		return
	}
	abs := func(v T) T {
		if v < 0 {
			return -v
		}
		return v
	}
	mags := make([]T, len(coeffs))
	for i, v := range coeffs {
		mags[i] = abs(v)
	}
	thresh := quickSelect(mags, len(mags)-k) // k-th largest magnitude
	above := 0
	for _, v := range coeffs {
		if abs(v) > thresh {
			above++
		}
	}
	allowTies := k - above // entries equal to thresh that may survive
	for i, v := range coeffs {
		switch m := abs(v); {
		case m > thresh:
			// keep
		case m == thresh && allowTies > 0:
			allowTies--
		default:
			coeffs[i] = 0
		}
	}
}

// quickSelect returns the element of rank idx (0-based ascending) of a,
// destroying a's order.
func quickSelect[T linalg.Float](a []T, idx int) T {
	lo, hi := 0, len(a)-1
	for {
		if lo == hi {
			return a[lo]
		}
		pivot := a[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case idx <= j:
			hi = j
		case idx >= i:
			lo = i
		default:
			return a[idx]
		}
	}
}

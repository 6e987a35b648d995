package wavelet

import (
	"math"
	"testing"

	"csecg/internal/cpufeat"
	"csecg/internal/linalg"
)

// The reference transform below is the straightforward filter bank the
// production kernels were rewritten from: one output pair per analysis
// step with the periodic wrap tested on every tap, and synthesis as the
// literal transpose, scattering each coefficient pair into the output.
// The production kernels reorder the work across outputs (separate
// accumulators, a branch-free interior, synthesis as a gather) but keep
// every output's own summation order, so they must agree with this code
// bit for bit, not merely to a tolerance. Both dispatch paths are held
// to it: the portable Go kernels and, where the CPU has AVX2, the
// assembly kernels New selects for float32.

func refForward[T linalg.Float](t *Transform[T], dst, x []T) {
	buf := make([]T, t.n)
	copy(buf, x)
	n := t.n
	for lev := 0; lev < t.levels; lev++ {
		refAnalyzeOne(t.h, t.g, dst[:n], buf[:n])
		copy(buf[:n/2], dst[:n/2])
		n /= 2
	}
	copy(dst[:n], buf[:n])
}

func refAnalyzeOne[T linalg.Float](h, g, dst, x []T) {
	n := len(x)
	half := n / 2
	for k := 0; k < half; k++ {
		var a, d T
		base := 2 * k
		for i := 0; i < len(h); i++ {
			idx := base + i
			if idx >= n {
				idx -= n
			}
			v := x[idx]
			a += h[i] * v
			d += g[i] * v
		}
		dst[k] = a
		dst[half+k] = d
	}
}

func refInverse[T linalg.Float](t *Transform[T], dst, coeffs []T) {
	buf := make([]T, t.n)
	copy(buf, coeffs)
	n := t.n >> uint(t.levels)
	for lev := t.levels - 1; lev >= 0; lev-- {
		refSynthesizeOne(t.h, t.g, dst[:2*n], buf[:n], buf[n:2*n])
		copy(buf[:2*n], dst[:2*n])
		n *= 2
	}
	copy(dst, buf)
}

func refSynthesizeOne[T linalg.Float](h, g, dst, a, d []T) {
	n := len(dst)
	for i := range dst {
		dst[i] = 0
	}
	for k := range a {
		base := 2 * k
		av, dv := a[k], d[k]
		for i := 0; i < len(h); i++ {
			idx := base + i
			if idx >= n {
				idx -= n
			}
			dst[idx] += h[i]*av + g[i]*dv
		}
	}
}

// bitsFixture is a length-n signal with signed zeros, exact zeros and a
// wide dynamic range mixed in, so sign-of-zero and rounding differences
// between summation orders cannot hide.
func bitsFixture[T linalg.Float](n int, seed uint64) []T {
	x := make([]T, n)
	state := seed
	for i := range x {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		switch i % 11 {
		case 3:
			x[i] = 0
		case 7:
			x[i] = T(math.Copysign(0, -1))
		default:
			x[i] = T(int64(state%20001)-10000) / T(1+state%97)
		}
	}
	return x
}

func sameBits[T linalg.Float](a, b T) bool {
	switch av := any(a).(type) {
	case float32:
		return math.Float32bits(av) == math.Float32bits(any(b).(float32))
	case float64:
		return math.Float64bits(av) == math.Float64bits(any(b).(float64))
	}
	return false
}

func assertBitIdentical[T linalg.Float](t *testing.T, what string, got, want []T) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: index %d = %v (%#x), reference %v", what, i, got[i], got[i], want[i])
		}
	}
}

func checkKernelsBitExact[T linalg.Float](t *testing.T, name string) {
	for order := 1; order <= 10; order++ {
		for _, n := range []int{64, 384, 512, 1024} {
			for lev := 1; lev <= MaxLevels(order, n); lev++ {
				tr, err := New[T](order, n, lev)
				if err != nil {
					t.Fatalf("%s db%d n=%d L=%d: %v", name, order, n, lev, err)
				}
				x := bitsFixture[T](n, uint64(order*1000+n+lev))
				want, got := make([]T, n), make([]T, n)
				refForward(tr, want, x)
				tr.Forward(got, x)
				assertBitIdentical(t, name+" Forward", got, want)

				// dst == x: the input is consumed before any output lands.
				inPlace := append([]T(nil), x...)
				tr.Forward(inPlace, inPlace)
				assertBitIdentical(t, name+" Forward in place", inPlace, want)

				refInverse(tr, want, x)
				tr.Inverse(got, x)
				assertBitIdentical(t, name+" Inverse", got, want)

				inPlace = append(inPlace[:0], x...)
				tr.Inverse(inPlace, inPlace)
				assertBitIdentical(t, name+" Inverse in place", inPlace, want)

				scratch := make([]T, n)
				tr.ForwardTo(got, x, scratch)
				refForward(tr, want, x)
				assertBitIdentical(t, name+" ForwardTo", got, want)
				tr.InverseTo(got, x, scratch)
				refInverse(tr, want, x)
				assertBitIdentical(t, name+" InverseTo", got, want)
			}
		}
	}
}

// forEachKernelPath runs f with transforms built on the Go kernels and,
// when the CPU supports them, on the AVX2 kernels.
func forEachKernelPath(t *testing.T, f func(t *testing.T)) {
	for _, simd := range []bool{false, true} {
		name := "go"
		if simd {
			name = "avx2"
		}
		t.Run(name, func(t *testing.T) {
			if simd && !cpufeat.HasAVX2 {
				t.Skip("CPU without AVX2")
			}
			saved := cpufeat.HasAVX2
			cpufeat.HasAVX2 = simd
			defer func() { cpufeat.HasAVX2 = saved }()
			f(t)
		})
	}
}

func TestKernelsBitIdenticalToReference(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		checkKernelsBitExact[float32](t, "float32")
		checkKernelsBitExact[float64](t, "float64")
	})
}

// TestDispatchSelectsAVX2 pins which transforms get the AVX2 kernels:
// float32 ones on an AVX2 CPU, never float64 ones.
func TestDispatchSelectsAVX2(t *testing.T) {
	t32, err := New[float32](4, 512, 5)
	if err != nil {
		t.Fatal(err)
	}
	t64, err := New[float64](4, 512, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := t32.avx2 != nil; got != cpufeat.HasAVX2 {
		t.Errorf("float32 transform on AVX2 kernels = %v, CPU has AVX2 = %v", got, cpufeat.HasAVX2)
	}
	if t64.avx2 != nil {
		t.Error("float64 transform selected the float32 AVX2 kernels")
	}
}

func TestTransformToAllocatesNothing(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		tr, err := New[float32](4, 512, 5)
		if err != nil {
			t.Fatal(err)
		}
		x := bitsFixture[float32](512, 9)
		dst, scratch := make([]float32, 512), make([]float32, 512)
		if avg := testing.AllocsPerRun(20, func() {
			tr.ForwardTo(dst, x, scratch)
			tr.InverseTo(dst, dst, scratch)
		}); avg != 0 {
			t.Errorf("ForwardTo+InverseTo allocate %.1f times per call pair, want 0", avg)
		}
	})
}

// The benchmarks below time the reference loops against the production
// kernels (Go and, where available, AVX2) on the decoder's db4,
// 5-level, 512-sample transform:
//
//	go test -run '^$' -bench 'Reference|To' ./internal/wavelet

func benchTransform(b *testing.B, f func(tr *Transform[float32], dst, x, scratch []float32)) {
	benchTransformOn(b, cpufeat.HasAVX2, f)
}

func benchTransformOn(b *testing.B, simd bool, f func(tr *Transform[float32], dst, x, scratch []float32)) {
	saved := cpufeat.HasAVX2
	cpufeat.HasAVX2 = simd
	tr, err := New[float32](4, 512, 5)
	cpufeat.HasAVX2 = saved
	if err != nil {
		b.Fatal(err)
	}
	x := bitsFixture[float32](512, 3)
	dst, scratch := make([]float32, 512), make([]float32, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(tr, dst, x, scratch)
	}
}

func BenchmarkForwardReference(b *testing.B) {
	benchTransform(b, func(tr *Transform[float32], dst, x, _ []float32) { refForward(tr, dst, x) })
}

func BenchmarkForwardTo(b *testing.B) {
	benchTransform(b, (*Transform[float32]).ForwardTo)
}

func BenchmarkInverseReference(b *testing.B) {
	benchTransform(b, func(tr *Transform[float32], dst, x, _ []float32) { refInverse(tr, dst, x) })
}

func BenchmarkInverseTo(b *testing.B) {
	benchTransform(b, (*Transform[float32]).InverseTo)
}

func BenchmarkForwardToGo(b *testing.B) {
	benchTransformOn(b, false, (*Transform[float32]).ForwardTo)
}

func BenchmarkInverseToGo(b *testing.B) {
	benchTransformOn(b, false, (*Transform[float32]).InverseTo)
}

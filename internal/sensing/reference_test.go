package sensing

import (
	"math"
	"testing"

	"csecg/internal/cpufeat"
	"csecg/internal/linalg"
)

// refApplyT is the column-at-a-time Φᵀ the production kernel was
// rewritten from. The production kernel interleaves four columns but
// keeps each column's ascending-row summation, so the two must agree
// bit for bit.
func refApplyT[T linalg.Float](s *SparseBinary, dst, y []T) {
	scale := T(s.scale)
	for c := 0; c < s.n; c++ {
		var acc T
		for _, r := range s.Support(c) {
			acc += y[r]
		}
		dst[c] = acc * scale
	}
}

// refApply is the column-scatter Φ, with the zero skip of the original.
func refApply[T linalg.Float](s *SparseBinary, dst, x []T) {
	scale := T(s.scale)
	for i := range dst {
		dst[i] = 0
	}
	for c := 0; c < s.n; c++ {
		v := x[c] * scale
		if v == 0 {
			continue
		}
		for _, r := range s.Support(c) {
			dst[r] += v
		}
	}
}

// zeroHeavy fills a vector with a wide dynamic range and plenty of
// exact and negative zeros.
func zeroHeavy[T linalg.Float](n int, seed uint64) []T {
	v := make([]T, n)
	state := seed
	for i := range v {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		switch state % 5 {
		case 0:
			v[i] = 0
		case 1:
			v[i] = T(math.Copysign(0, -1))
		default:
			v[i] = T(int64(state%20001)-10000) / T(1+state%89)
		}
	}
	return v
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

func checkOpBitExact[T linalg.Float](t *testing.T, name string) {
	shapes := []struct{ m, n, d int }{
		{256, 512, 12}, // CR 50, the headline operating point
		{103, 512, 12}, // M not a multiple of 4 or 8
		{154, 511, 7},  // N not a multiple of 4: the per-column tail
		{103, 511, 12}, // neither M nor N a multiple of 8
		{9, 16, 9},     // d = M: every row holds every column
		{3, 6, 3},      // fewer columns than one 4-column step
	}
	negZero := T(math.Copysign(0, -1))
	for _, sh := range shapes {
		s, err := NewSparseBinary(sh.m, sh.n, sh.d, uint64(sh.m*sh.n))
		if err != nil {
			t.Fatal(err)
		}
		op := Op[T](s)
		x := zeroHeavy[T](sh.n, 11)
		y := zeroHeavy[T](sh.m, 13)
		// All −0 inputs: every output must be the +0 of an empty sum.
		xz, yz := make([]T, sh.n), make([]T, sh.m)
		for i := range xz {
			xz[i] = negZero
		}
		for i := range yz {
			yz[i] = negZero
		}
		// No zero entries: a padded lane of the row gather that read a
		// real entry instead of adding +0 would show.
		xd, yd := make([]T, sh.n), make([]T, sh.m)
		for i := range xd {
			xd[i] = T(i%37) - 18.5
		}
		for i := range yd {
			yd[i] = T(i%23) + 0.25
		}
		for _, in := range []struct{ x, y []T }{{x, y}, {xz, yz}, {xd, yd}} {
			checkOpOn(t, name, s, op, in.x, in.y)
		}
	}
}

func checkOpOn[T linalg.Float](t *testing.T, name string, s *SparseBinary, op linalg.Op[T], x, y []T) {
	t.Helper()
	got, want := make([]T, s.m), make([]T, s.m)
	op.Apply(got, x)
	refApply(s, want, x)
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s %dx%d Apply[%d] = %v, reference %v", name, s.m, s.n, i, got[i], want[i])
		}
	}
	gotT, wantT := make([]T, s.n), make([]T, s.n)
	op.ApplyT(gotT, y)
	refApplyT(s, wantT, y)
	for i := range wantT {
		if !sameBits(gotT[i], wantT[i]) {
			t.Fatalf("%s %dx%d ApplyT[%d] = %v, reference %v", name, s.m, s.n, i, gotT[i], wantT[i])
		}
	}
}

// TestOpBitIdenticalToReference holds both dispatch paths to the
// reference loops: the portable Go kernels and, where the CPU has AVX2,
// the gather kernels Op selects for float32.
func TestOpBitIdenticalToReference(t *testing.T) {
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
			checkOpBitExact[float32](t, "float32")
			checkOpBitExact[float64](t, "float64")
		})
	}
}

// The benchmarks time the reference loops against the production
// kernels at CR 50 (256×512, d = 12): the Go kernels (…Go) and the
// kernels Op selects on this CPU.
//
//	go test -run '^$' -bench Apply ./internal/sensing

func benchOp(b *testing.B, simd bool, f func(s *SparseBinary, op linalg.Op[float32], x, y []float32)) {
	s, err := NewSparseBinary(256, 512, 12, 1)
	if err != nil {
		b.Fatal(err)
	}
	saved := cpufeat.HasAVX2
	cpufeat.HasAVX2 = simd
	op := Op[float32](s)
	cpufeat.HasAVX2 = saved
	// Φ's input is a reconstructed window, dense in practice; Φᵀ's
	// input is a residual.
	x, y := make([]float32, 512), zeroHeavy[float32](256, 3)
	for i := range x {
		x[i] = float32(i%37) - 18.5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(s, op, x, y)
	}
}

func BenchmarkApplyReference(b *testing.B) {
	dst := make([]float32, 256)
	benchOp(b, false, func(s *SparseBinary, _ linalg.Op[float32], x, _ []float32) { refApply(s, dst, x) })
}

func BenchmarkApplyGo(b *testing.B) {
	dst := make([]float32, 256)
	benchOp(b, false, func(_ *SparseBinary, op linalg.Op[float32], x, _ []float32) { op.Apply(dst, x) })
}

func BenchmarkApply(b *testing.B) {
	dst := make([]float32, 256)
	benchOp(b, cpufeat.HasAVX2, func(_ *SparseBinary, op linalg.Op[float32], x, _ []float32) { op.Apply(dst, x) })
}

func BenchmarkApplyTReference(b *testing.B) {
	dst := make([]float32, 512)
	benchOp(b, false, func(s *SparseBinary, _ linalg.Op[float32], _, y []float32) { refApplyT(s, dst, y) })
}

func BenchmarkApplyTGo(b *testing.B) {
	dst := make([]float32, 512)
	benchOp(b, false, func(_ *SparseBinary, op linalg.Op[float32], _, y []float32) { op.ApplyT(dst, y) })
}

func BenchmarkApplyT(b *testing.B) {
	dst := make([]float32, 512)
	benchOp(b, cpufeat.HasAVX2, func(_ *SparseBinary, op linalg.Op[float32], _, y []float32) { op.ApplyT(dst, y) })
}

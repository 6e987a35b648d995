package sensing

import (
	"math"
	"testing"

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
		{103, 512, 12}, // M not a multiple of 4
		{154, 511, 7},  // N not a multiple of 4: the per-column tail
		{3, 6, 3},      // fewer columns than one 4-column step
	}
	for _, sh := range shapes {
		s, err := NewSparseBinary(sh.m, sh.n, sh.d, uint64(sh.m*sh.n))
		if err != nil {
			t.Fatal(err)
		}
		op := Op[T](s)
		x := zeroHeavy[T](sh.n, 11)
		y := zeroHeavy[T](sh.m, 13)
		got, want := make([]T, sh.m), make([]T, sh.m)
		op.Apply(got, x)
		refApply(s, want, x)
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s %dx%d Apply[%d] = %v, reference %v", name, sh.m, sh.n, i, got[i], want[i])
			}
		}
		gotT, wantT := make([]T, sh.n), make([]T, sh.n)
		op.ApplyT(gotT, y)
		refApplyT(s, wantT, y)
		for i := range wantT {
			if !sameBits(gotT[i], wantT[i]) {
				t.Fatalf("%s %dx%d ApplyT[%d] = %v, reference %v", name, sh.m, sh.n, i, gotT[i], wantT[i])
			}
		}
	}
}

func TestOpBitIdenticalToReference(t *testing.T) {
	checkOpBitExact[float32](t, "float32")
	checkOpBitExact[float64](t, "float64")
}

// BenchmarkApplyTReference and BenchmarkApplyT time the column-at-a-time
// loop against the four-column kernel at CR 50 (256×512, d = 12).
func BenchmarkApplyTReference(b *testing.B) {
	s, err := NewSparseBinary(256, 512, 12, 1)
	if err != nil {
		b.Fatal(err)
	}
	y, dst := zeroHeavy[float32](256, 3), make([]float32, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refApplyT(s, dst, y)
	}
}

func BenchmarkApplyT(b *testing.B) {
	s, err := NewSparseBinary(256, 512, 12, 1)
	if err != nil {
		b.Fatal(err)
	}
	op := Op[float32](s)
	y, dst := zeroHeavy[float32](256, 3), make([]float32, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.ApplyT(dst, y)
	}
}

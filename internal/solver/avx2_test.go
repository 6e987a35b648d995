package solver

import (
	"encoding/binary"
	"math"
	"testing"

	"csecg/internal/cpufeat"
	"csecg/internal/rng"
)

// kernelLengths are the vector lengths the differential checks cover:
// every tail length around one and two blocks, and the decoder's N = 512
// with its neighbours.
var kernelLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 511, 512, 513}

// specialValue maps r to a float32 from one of the classes the shrink
// and the sums treat specially: signed zeros, subnormals, ±thresh,
// infinities, NaNs (quiet and signalling, either sign, any payload),
// arbitrary bit patterns and moderate values near the threshold's
// scale. With finite set it draws no infinity or NaN, so that the sums
// stay finite and their add order shows in the low bits.
func specialValue(r uint64, thresh float32, finite bool) float32 {
	sign := uint32(r>>8&1) << 31
	var v float32
	switch r % 8 {
	case 0:
		v = math.Float32frombits(sign)
	case 1:
		v = math.Float32frombits(sign | uint32(r>>9)&0x7fffff | 1)
	case 2:
		v = math.Float32frombits(sign | 0x7f800000)
	case 3:
		v = math.Float32frombits(sign | 0x7f800000 | uint32(r>>9)&0x7fffff | 1)
	case 4:
		v = math.Float32frombits(uint32(r >> 16))
	case 5:
		v = math.Float32frombits(math.Float32bits(thresh) ^ sign)
	default:
		v = float32(int64(r>>16%4001)-2000) / 1000 * (1 + thresh)
	}
	if finite && (math.IsInf(float64(v), 0) || v != v) {
		v = float32(int64(r>>16%4001)-2000) / 997
	}
	return v
}

// kernelInputs derives y, g and prev of length n from seed. One element
// in four is a tie: y = ±thresh and g = ±0, so v = y − step·g is exactly
// ±thresh, the boundary of the dead zone.
func kernelInputs(seed uint64, n int, thresh float32, finite bool) (y, g, prev []float32) {
	gen := rng.New(seed)
	y, g, prev = make([]float32, n), make([]float32, n), make([]float32, n)
	for i := 0; i < n; i++ {
		r := gen.Uint64()
		if r%4 == 0 {
			sign := uint32(r>>2&1) << 31
			y[i] = math.Float32frombits(math.Float32bits(thresh) ^ sign)
			g[i] = math.Float32frombits(uint32(r>>3&1) << 31)
		} else {
			y[i] = specialValue(gen.Uint64(), thresh, finite)
			g[i] = specialValue(gen.Uint64(), thresh, finite)
		}
		prev[i] = specialValue(gen.Uint64(), thresh, finite)
	}
	return y, g, prev
}

// sameSum reports whether two float64 sums have the same bits. Any two
// NaNs match: which NaN payload survives a sum depends on the operand
// order the compiler picks for commutative operations, and FISTA only
// compares the sums, where every NaN behaves alike.
func sameSum(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// checkKernelsMatchGo runs the Go loops and the AVX2 kernels on the
// same inputs and fails unless α, the three sums and the momentum point
// agree bit for bit.
func checkKernelsMatchGo(t *testing.T, seed uint64, n int, step, thresh, beta float32, branchless, finite bool) {
	t.Helper()
	y, g, prev := kernelInputs(seed, n, thresh, finite)
	want, got := make([]float32, n), make([]float32, n)
	ws := proxStep(want, prev, y, g, step, thresh, branchless)
	gs := avx2Kernels{}.prox(got, prev, y, g, step, thresh, branchless)
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("n=%d branchless=%v: α[%d] = %v (%#x), Go %v (%#x) from v = %v − %v·%v, t = %v",
				n, branchless, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]), y[i], step, g[i], thresh)
		}
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{{"restart", gs.restart, ws.restart}, {"step2", gs.step2, ws.step2}, {"norm2", gs.norm2, ws.norm2}} {
		if !sameSum(c.got, c.want) {
			t.Fatalf("n=%d branchless=%v: %s = %v, Go %v", n, branchless, c.name, c.got, c.want)
		}
	}
	wantY, gotY := make([]float32, n), make([]float32, n)
	momentumStep(wantY, want, prev, beta)
	avx2Kernels{}.momentum(gotY, want, prev, beta)
	for i := range wantY {
		if math.Float32bits(gotY[i]) != math.Float32bits(wantY[i]) {
			t.Fatalf("n=%d: y[%d] = %v (%#x), Go %v (%#x)", n, i, gotY[i], math.Float32bits(gotY[i]), wantY[i], math.Float32bits(wantY[i]))
		}
	}
}

// FuzzProxStepAVX2 holds the AVX2 prox and momentum kernels to the Go
// loops bit for bit on α, y and the three sums, in both shrink forms,
// on inputs with and without infinities and NaNs. The seed corpus
// covers every length of kernelLengths in each combination. step and β
// are never NaN in FISTA (2/L and a ratio of finite t), so NaN values
// of those are replaced; thresh may be anything.
//
//	go test -fuzz=FuzzProxStepAVX2 -run=FuzzProxStepAVX2 ./internal/solver
func FuzzProxStepAVX2(f *testing.F) {
	for i := range kernelLengths {
		seed := binary.LittleEndian.AppendUint64(nil, uint64(i)*0x9e3779b97f4a7c15+1)
		for _, branchless := range []bool{false, true} {
			for _, finite := range []bool{false, true} {
				f.Add(seed, uint16(i), branchless, finite, float32(0.0625), float32(0.01), float32(0.3))
			}
		}
	}
	f.Add([]byte{7}, uint16(18), true, true, float32(1), float32(0), float32(0))
	f.Add([]byte{8}, uint16(20), true, false, float32(1), float32(0), float32(0.5))
	f.Add([]byte{9}, uint16(19), false, true, float32(-2), float32(-0.5), float32(-1))
	f.Add([]byte{3}, uint16(20), true, false, float32(3e38), float32(math.Inf(1)), float32(1e-45))
	f.Fuzz(func(t *testing.T, data []byte, length uint16, branchless, finite bool, step, thresh, beta float32) {
		if !cpufeat.HasAVX2 {
			t.Skip("CPU without AVX2")
		}
		if step != step {
			step = 0.0625
		}
		if beta != beta {
			beta = 0.3
		}
		var seed uint64 = 1469598103934665603
		for _, b := range data {
			seed = (seed ^ uint64(b)) * 1099511628211
		}
		n := kernelLengths[int(length)%len(kernelLengths)]
		checkKernelsMatchGo(t, seed, n, step, thresh, beta, branchless, finite)
	})
}

// TestSelectKernels pins the dispatch: the float32 solver runs the AVX2
// kernels on an AVX2 CPU, the float64 solver never does, and clearing
// cpufeat.HasAVX2 selects the Go loops.
func TestSelectKernels(t *testing.T) {
	if got := selectKernels[float32]() != nil; got != cpufeat.HasAVX2 {
		t.Errorf("float32 solver on AVX2 kernels = %v, CPU has AVX2 = %v", got, cpufeat.HasAVX2)
	}
	if selectKernels[float64]() != nil {
		t.Error("float64 solver selected the float32 AVX2 kernels")
	}
	saved := cpufeat.HasAVX2
	cpufeat.HasAVX2 = false
	defer func() { cpufeat.HasAVX2 = saved }()
	if selectKernels[float32]() != nil {
		t.Error("float32 solver selected the AVX2 kernels with cpufeat.HasAVX2 cleared")
	}
}

// The benchmarks time one FISTA vector pass at N = 512 on the Go loops
// (…Go) and on the kernels selectKernels picks on this CPU, in both
// shrink forms:
//
//	go test -run '^$' -bench 'ProxStep|Momentum' ./internal/solver

// benchVectors returns a warm iterate's vectors: coefficients of a
// wide dynamic range in random order, about half in the dead zone, so
// the branchy shrink mispredicts as it does on decoded ECG windows.
func benchVectors() (alpha, prev, y, g []float32, step, thresh float32) {
	gen := rng.New(5)
	alpha, prev, y, g = make([]float32, 512), make([]float32, 512), make([]float32, 512), make([]float32, 512)
	for i := range y {
		y[i] = float32(gen.NormFloat64())
		prev[i] = y[i] + float32(gen.NormFloat64())*0.01
		g[i] = float32(gen.NormFloat64()) * 0.1
	}
	return alpha, prev, y, g, 0.5, 0.6
}

func benchKernels(simd bool) kernels[float32] {
	saved := cpufeat.HasAVX2
	cpufeat.HasAVX2 = simd && saved
	defer func() { cpufeat.HasAVX2 = saved }()
	return selectKernels[float32]()
}

func benchProx(b *testing.B, simd bool) {
	k := benchKernels(simd)
	for _, form := range []struct {
		name       string
		branchless bool
	}{{"vfp", false}, {"neon", true}} {
		b.Run(form.name, func(b *testing.B) {
			alpha, prev, y, g, step, thresh := benchVectors()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if k != nil {
					k.prox(alpha, prev, y, g, step, thresh, form.branchless)
				} else {
					proxStep(alpha, prev, y, g, step, thresh, form.branchless)
				}
			}
		})
	}
}

func benchMomentum(b *testing.B, simd bool) {
	k := benchKernels(simd)
	alpha, prev, y, _, _, _ := benchVectors()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if k != nil {
			k.momentum(y, alpha, prev, 0.7)
		} else {
			momentumStep(y, alpha, prev, 0.7)
		}
	}
}

func BenchmarkProxStep512Go(b *testing.B) { benchProx(b, false) }
func BenchmarkProxStep512(b *testing.B)   { benchProx(b, true) }
func BenchmarkMomentum512Go(b *testing.B) { benchMomentum(b, false) }
func BenchmarkMomentum512(b *testing.B)   { benchMomentum(b, true) }

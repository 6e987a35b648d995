package core

import (
	"math"
	"testing"

	"csecg/internal/cpufeat"
	"csecg/internal/linalg"
	"csecg/internal/metrics"
)

// forEachKernelPath runs f with decoders built on the AVX2 kernels,
// where the CPU supports them, and then with cpufeat.HasAVX2 cleared,
// on the portable Go kernels of the operators and the solver.
func forEachKernelPath(t *testing.T, f func(t *testing.T)) {
	for _, simd := range []bool{true, false} {
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

// unfusedFISTA is the restarted FISTA loop as it stood before the
// solver fused its vector steps: copy, Axpy and a separate shrink pass
// form α_k, restartDot the restart test, an inline loop the momentum
// point and two linalg.Norm2 calls the relative-step stopping rule. It
// returns the final iterate and the iteration count.
func unfusedFISTA(a linalg.Op[float32], y, x0 []float32, lambda, lip float32, maxIter int, tol float64, vec bool) ([]float32, int) {
	n := a.InDim
	alpha, prev, yk := make([]float32, n), make([]float32, n), make([]float32, n)
	grad, r, diff := make([]float32, n), make([]float32, a.OutDim), make([]float32, n)
	copy(prev, x0)
	copy(yk, x0)
	tk := float32(1)
	k := 1
	for ; k <= maxIter; k++ {
		a.Apply(r, yk)
		linalg.Sub(r, r, y)
		a.ApplyT(grad, r)
		linalg.Scale(2, grad)
		step := 1 / lip
		copy(alpha, yk)
		linalg.Axpy(-step, grad, alpha)
		if vec {
			linalg.SoftThreshold4(alpha, alpha, lambda/lip)
		} else {
			linalg.SoftThreshold(alpha, alpha, lambda/lip)
		}
		var dot float64
		for i := range alpha {
			dot += float64(yk[i]-alpha[i]) * float64(alpha[i]-prev[i])
		}
		if dot > 0 {
			tk = 1
		}
		tNext := (1 + float32(math.Sqrt(float64(1+4*tk*tk)))) / 2
		beta := (tk - 1) / tNext
		for i := range yk {
			yk[i] = alpha[i] + beta*(alpha[i]-prev[i])
		}
		tk = tNext
		linalg.Sub(diff, alpha, prev)
		den := float64(linalg.Norm2(alpha))
		if den < 1 {
			den = 1
		}
		if float64(linalg.Norm2(diff))/den < tol {
			return alpha, k
		}
		alpha, prev = prev, alpha
	}
	return prev, k - 1
}

// TestFusedStepMatchesUnfusedLoop holds the solver's single-pass FISTA
// step to the loop it replaced: on 60 warm-started record-100 windows at
// CR 50 and CR 70, in both the VFP and the NEON shrink form and on
// both kernel paths, every window must stop after the same number of
// iterations with a bit-identical solution.
func TestFusedStepMatchesUnfusedLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("240 warm solves, each repeated on the unfused loop")
	}
	const warm = 60
	windows := testWindows(t, 2*(warm+1))
	forEachKernelPath(t, func(t *testing.T) {
		for _, cr := range []float64{50, 70} {
			for _, vec := range []bool{false, true} {
				params := Params{Seed: 0x100, M: metrics.MForCR(cr, WindowSize)}
				enc, err := NewEncoder(params)
				if err != nil {
					t.Fatal(err)
				}
				dec, err := NewDecoder[float32](params)
				if err != nil {
					t.Fatal(err)
				}
				dec.SolverOptions.Vectorized = vec
				opt := dec.SolverOptions
				total := 0
				for i, w := range windows[:warm+1] {
					pkt, err := enc.EncodeWindow(w)
					if err != nil {
						t.Fatal(err)
					}
					x0 := append([]float32(nil), dec.warmAlpha...)
					res, err := dec.DecodePacket(pkt)
					if err != nil {
						t.Fatal(err)
					}
					if i == 0 {
						continue // the cold window runs continuation
					}
					y := dec.measurements()
					aty := make([]float32, dec.a.InDim)
					dec.a.ApplyT(aty, y)
					lambda := linalg.NormInf(aty) / 1000 // the solver's default λ
					want, iters := unfusedFISTA(dec.a, y, x0, lambda, dec.lip, opt.MaxIter, opt.Tol, vec)
					if iters != res.Iterations {
						t.Fatalf("CR %.0f vectorized=%v window %d: %d iterations, unfused loop %d", cr, vec, i, res.Iterations, iters)
					}
					for j := range want {
						if math.Float32bits(dec.warmAlpha[j]) != math.Float32bits(want[j]) {
							t.Fatalf("CR %.0f vectorized=%v window %d: α[%d] = %v, unfused loop %v", cr, vec, i, j, dec.warmAlpha[j], want[j])
						}
					}
					total += iters
				}
				t.Logf("CR %.0f vectorized=%v: %d windows identical, mean %.1f iterations", cr, vec, warm, float64(total)/warm)
			}
		}
	})
}

// TestKernelPathsDecodeIdentically decodes the same 30-window record-100
// session at CR 50 on the AVX2 kernels and on the portable Go kernels
// and requires identical samples and iteration counts in every window:
// the host CPU must not change what a decoder outputs, nor what a
// sealed bundle replays to.
func TestKernelPathsDecodeIdentically(t *testing.T) {
	if !cpufeat.HasAVX2 {
		t.Skip("CPU without AVX2")
	}
	windows := testWindows(t, 30*2)
	type window struct {
		samples    []int16
		iterations int
	}
	decode := func(simd bool) []window {
		saved := cpufeat.HasAVX2
		cpufeat.HasAVX2 = simd
		defer func() { cpufeat.HasAVX2 = saved }()
		params := Params{Seed: 0x100, M: metrics.MForCR(50, WindowSize)}
		enc, err := NewEncoder(params)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := NewDecoder[float32](params)
		if err != nil {
			t.Fatal(err)
		}
		var out []window
		for _, w := range windows {
			pkt, err := enc.EncodeWindow(w)
			if err != nil {
				t.Fatal(err)
			}
			res, err := dec.DecodePacket(pkt)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, window{append([]int16(nil), res.Samples...), res.Iterations})
		}
		return out
	}
	simd, portable := decode(true), decode(false)
	if len(simd) != 30 {
		t.Fatalf("%d windows decoded, want 30", len(simd))
	}
	for i := range simd {
		if simd[i].iterations != portable[i].iterations {
			t.Fatalf("window %d: %d iterations on AVX2, %d on Go", i, simd[i].iterations, portable[i].iterations)
		}
		for j := range simd[i].samples {
			if simd[i].samples[j] != portable[i].samples[j] {
				t.Fatalf("window %d sample %d: %d on AVX2, %d on Go", i, j, simd[i].samples[j], portable[i].samples[j])
			}
		}
	}
}

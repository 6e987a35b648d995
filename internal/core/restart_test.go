package core

import (
	"math"
	"testing"

	"csecg/internal/linalg"
	"csecg/internal/metrics"
)

// plainFISTA is the solver loop of the paper, Eqs. (4)-(6), with no
// restart and no stopping rule: the reference the restarted solver is
// held to.
func plainFISTA(a linalg.Op[float32], y, x0 []float32, lambda, lip float32, iters int) []float32 {
	n := a.InDim
	alpha, prev, yk := make([]float32, n), make([]float32, n), make([]float32, n)
	grad, r := make([]float32, n), make([]float32, a.OutDim)
	copy(prev, x0)
	copy(yk, x0)
	tk := float32(1)
	for k := 0; k < iters; k++ {
		a.Apply(r, yk)
		linalg.Sub(r, r, y)
		a.ApplyT(grad, r)
		for i := range yk {
			yk[i] -= 2 * grad[i] / lip
		}
		linalg.SoftThreshold(alpha, yk, lambda/lip)
		tNext := (1 + float32(math.Sqrt(float64(1+4*tk*tk)))) / 2
		beta := (tk - 1) / tNext
		for i := range yk {
			yk[i] = alpha[i] + beta*(alpha[i]-prev[i])
		}
		tk = tNext
		alpha, prev = prev, alpha
	}
	return prev
}

// objective is F(α) = ‖Aα − y‖₂² + λ‖α‖₁, accumulated in float64.
func objective(a linalg.Op[float32], y, alpha []float32, lambda float32) float64 {
	r := make([]float32, a.OutDim)
	a.Apply(r, alpha)
	var f float64
	for i := range r {
		d := float64(r[i] - y[i])
		f += d * d
	}
	for _, v := range alpha {
		f += float64(lambda) * math.Abs(float64(v))
	}
	return f
}

// TestRestartReachesPlainFISTAObjective holds the gradient-restarted
// FISTA of the decoder to the optimum of the problem it solves: on 20
// warm-started windows of record 100 at CR 50, every window's final
// objective must be within 1e-3 (relative) of a 5000-iteration plain
// FISTA solve from the same warm start, while the mean iteration count
// stays at most 450 (plain FISTA needs about 740 on this stream).
func TestRestartReachesPlainFISTAObjective(t *testing.T) {
	if testing.Short() {
		t.Skip("20 reference solves of 5000 iterations")
	}
	const warm = 20
	params := Params{Seed: 0x100, M: metrics.MForCR(50, WindowSize)}
	enc, err := NewEncoder(params)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder[float32](params)
	if err != nil {
		t.Fatal(err)
	}
	windows := testWindows(t, 2*(warm+1))
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
			continue // the cold window runs continuation, not a warm solve
		}
		total += res.Iterations
		y := dec.measurements()
		aty := make([]float32, dec.a.InDim)
		dec.a.ApplyT(aty, y)
		lambda := linalg.NormInf(aty) / 1000 // the solver's default λ
		ref := plainFISTA(dec.a, y, x0, lambda, dec.lip, 5000)
		got, want := objective(dec.a, y, dec.warmAlpha, lambda), objective(dec.a, y, ref, lambda)
		if rel := math.Abs(got-want) / want; rel > 1e-3 {
			t.Errorf("window %d: objective %.6g after %d restarted iterations, plain FISTA reference %.6g (relative gap %.2g > 1e-3)",
				i, got, res.Iterations, want, rel)
		}
	}
	mean := float64(total) / warm
	t.Logf("mean warm iterations %.1f", mean)
	if mean > 450 {
		t.Errorf("mean warm iteration count %.1f, want at most 450", mean)
	}
}

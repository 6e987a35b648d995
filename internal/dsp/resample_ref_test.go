package dsp

import (
	"math"
	"testing"

	"csecg/internal/rng"
)

// processDivide is the reference polyphase loop Process replaced: it
// recomputes the input index of every tap with an integer divide.
func processDivide(r *Resampler, x []float64) []float64 {
	if len(x) == 0 {
		return nil
	}
	outLen := (len(x)*r.l + r.m - 1) / r.m
	out := make([]float64, outLen)
	center := (len(r.proto) - 1) / 2
	for k := 0; k < outLen; k++ {
		up := k*r.m + center
		jStart := up % r.l
		var acc float64
		for j := jStart; j < len(r.proto); j += r.l {
			i := (up - j) / r.l
			if i < 0 {
				break
			}
			if i >= len(x) {
				continue
			}
			acc += r.proto[j] * x[i]
		}
		out[k] = acc
	}
	return out
}

// TestProcessMatchesDivideLoop requires Process to be bit-identical to
// the divide loop: each output sums the same products in the same
// order. Lengths cover the empty and tiny inputs, inputs shorter than
// the filter span, where every output is an edge case, and 10 s of
// MIT-BIH-rate signal.
func TestProcessMatchesDivideLoop(t *testing.T) {
	gen := rng.New(0xD5)
	for _, lm := range [][3]int{{32, 45, 24}, {2, 1, 8}, {1, 3, 8}, {3, 2, 5}, {45, 32, 24}} {
		r := NewResampler(lm[0], lm[1], lm[2])
		span := len(r.proto)/r.l + 1
		for _, n := range []int{0, 1, 2, 3, 4, 5, span / 2, span - 1, span, span + 1, 3600} {
			x := make([]float64, n)
			for i := range x {
				x[i] = gen.NormFloat64()
			}
			got, want := r.Process(x), processDivide(r, x)
			if len(got) != len(want) {
				t.Fatalf("L/M=%d/%d n=%d: %d outputs, want %d", lm[0], lm[1], n, len(got), len(want))
			}
			for k := range want {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("L/M=%d/%d n=%d: out[%d] = %v, want %v", lm[0], lm[1], n, k, got[k], want[k])
				}
			}
		}
	}
}

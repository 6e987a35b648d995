package core

import (
	"testing"

	"csecg/internal/metrics"
)

// The encoder's per-sample path must allocate nothing after
// construction — the firmware it models has only static buffers. The
// noalloc analyzer enforces this statically over the //csecg:hotpath
// functions; these tests back the static claim with the runtime
// allocator. testing.AllocsPerRun performs a warm-up call first, so
// one-time amortized growth (the bit writer's first window) does not
// count against the steady state.

func TestPushSampleZeroAllocs(t *testing.T) {
	enc, err := NewEncoder(Params{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	n := enc.Params().N
	sample, idx := int16(1024), 0
	avg := testing.AllocsPerRun(3*n, func() {
		if _, err := enc.PushSample(sample + int16(idx%9)); err != nil {
			t.Fatal(err)
		}
		idx++
	})
	if avg != 0 {
		t.Errorf("PushSample allocates %.2f times per call, want 0", avg)
	}
}

func TestEncodeWindowSteadyStateZeroAllocs(t *testing.T) {
	enc, err := NewEncoder(Params{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	win := make([]int16, enc.Params().N)
	for i := range win {
		win[i] = int16(1024 + i%5)
	}
	// Consume the initial key frame so every measured call is the
	// steady-state delta path. The key-frame interval (64) exceeds the
	// run count, so no scheduled key frame lands inside the measurement.
	if _, err := enc.EncodeWindow(win); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(40, func() {
		pkt, err := enc.EncodeWindow(win)
		if err != nil {
			t.Fatal(err)
		}
		if pkt.Kind != KindDelta {
			t.Fatalf("expected steady-state delta frame, got kind %d", pkt.Kind)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state EncodeWindow allocates %.2f times per call, want 0", avg)
	}
}

func TestEncodeWindowKeyFrameZeroAllocs(t *testing.T) {
	enc, err := NewEncoder(Params{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	win := make([]int16, enc.Params().N)
	for i := range win {
		win[i] = int16(1024 + i%5)
	}
	avg := testing.AllocsPerRun(20, func() {
		enc.ForceKeyFrame()
		pkt, err := enc.EncodeWindow(win)
		if err != nil {
			t.Fatal(err)
		}
		if pkt.Kind != KindKey {
			t.Fatalf("expected key frame, got kind %d", pkt.Kind)
		}
	})
	if avg != 0 {
		t.Errorf("key-frame EncodeWindow allocates %.2f times per call, want 0", avg)
	}
}

// TestWarmDecodeAllocsIndependentOfIterations backs the decoder's
// allocation-free iteration: a warm DecodePacket must allocate the same
// number of objects whether FISTA runs 50 or 500 iterations, so nothing
// in the loop (Φ, Ψ, the convergence test) allocates. The per-window
// allocations that remain are the returned result and the solver's
// per-solve buffers.
//
// Every call also checks that the solve only reads its warm start: the
// previous window's solution, passed back in as X0, must come out of
// the next decode unchanged, i.e. no workspace aliases it.
func TestWarmDecodeAllocsIndependentOfIterations(t *testing.T) {
	const runs = 4
	params := Params{Seed: 7, M: metrics.MForCR(50, WindowSize)}
	windows := testWindows(t, 2*(runs+2))
	allocs := func(maxIter int) float64 {
		enc, err := NewEncoder(params)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := NewDecoder[float32](params)
		if err != nil {
			t.Fatal(err)
		}
		dec.SolverOptions.MaxIter = maxIter
		// A tolerance no window reaches by 500 iterations keeps the
		// convergence test running every iteration without stopping.
		dec.SolverOptions.Tol = 1e-12
		var pkts []*Packet
		for _, w := range windows {
			pkt, err := enc.EncodeWindow(w)
			if err != nil {
				t.Fatal(err)
			}
			pkts = append(pkts, pkt.Clone())
		}
		if _, err := dec.DecodePacket(pkts[0]); err != nil { // cold window
			t.Fatal(err)
		}
		snapshot := make([]float32, dec.Params().N)
		next := 1
		return testing.AllocsPerRun(runs, func() {
			x0 := dec.warmAlpha
			copy(snapshot, x0)
			res, err := dec.DecodePacket(pkts[next])
			next++
			if err != nil {
				t.Fatal(err)
			}
			if res.Iterations != maxIter {
				t.Fatalf("warm decode ran %d iterations, want %d", res.Iterations, maxIter)
			}
			for i := range x0 {
				if x0[i] != snapshot[i] {
					t.Fatalf("decode overwrote its warm start at %d", i)
				}
			}
		})
	}
	short, long := allocs(50), allocs(500)
	t.Logf("warm DecodePacket allocates %.0f objects at 50 and %.0f at 500 iterations", short, long)
	if short != long {
		t.Errorf("warm DecodePacket allocates %.1f objects at MaxIter 50 but %.1f at 500: the iteration allocates", short, long)
	}
}

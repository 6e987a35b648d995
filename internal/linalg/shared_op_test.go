package linalg_test

import (
	"math"
	"sync"
	"testing"

	"csecg/internal/linalg"
	"csecg/internal/sensing"
	"csecg/internal/wavelet"
)

// TestSharedOperatorsConcurrent pins the sharing contract the
// experiment runners rely on: one sensing.Op, one wavelet.Transform and
// one linalg.Compose(Φ, Ψ) serve several worker goroutines at once. Any
// scratch state hidden inside one of them is a data race, which
// `go test -race` reports; without the race detector the bitwise
// comparison against a single-goroutine run usually catches it too.
// The test is small enough to run under -short, where the experiment
// runners that share operators are skipped.
func TestSharedOperatorsConcurrent(t *testing.T) {
	const workers, rounds = 4, 25
	phiM, err := sensing.NewSparseBinary(256, 512, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := wavelet.New[float32](4, 512, 5)
	if err != nil {
		t.Fatal(err)
	}
	phi := sensing.Op[float32](phiM)
	a := linalg.Compose(phi, tr.SynthesisOp())

	// Each worker gets its own input; the expected outputs come from
	// one goroutine before any sharing starts.
	inputs := make([][]float32, workers)
	type outputs struct{ phi, phiT, fwd, inv, a, aT []float32 }
	run := func(x []float32) outputs {
		o := outputs{
			phi: make([]float32, 256), phiT: make([]float32, 512),
			fwd: make([]float32, 512), inv: make([]float32, 512),
			a: make([]float32, 256), aT: make([]float32, 512),
		}
		phi.Apply(o.phi, x)
		phi.ApplyT(o.phiT, o.phi)
		tr.Forward(o.fwd, x)
		tr.Inverse(o.inv, x)
		a.Apply(o.a, x)
		a.ApplyT(o.aT, o.a)
		return o
	}
	want := make([]outputs, workers)
	for w := range inputs {
		x := make([]float32, 512)
		for i := range x {
			x[i] = float32(math.Sin(float64(i*(w+1)) / 7))
		}
		inputs[w] = x
		want[w] = run(x)
	}

	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got := run(inputs[w])
				for _, p := range [][2][]float32{
					{got.phi, want[w].phi}, {got.phiT, want[w].phiT},
					{got.fwd, want[w].fwd}, {got.inv, want[w].inv},
					{got.a, want[w].a}, {got.aT, want[w].aT},
				} {
					for i := range p[1] {
						if math.Float32bits(p[0][i]) != math.Float32bits(p[1][i]) {
							errs <- "shared operator output differs from the single-goroutine run"
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

package solver

import (
	"math"
	"testing"
)

// monitorObjectives returns an Options.Monitor hook that appends every
// objective to *objs, failing the test on an out-of-order iteration.
func monitorObjectives(t *testing.T, objs *[]float64) func(iter int, objective float64) {
	return func(iter int, objective float64) {
		if iter != len(*objs)+1 {
			t.Fatalf("monitor iteration %d out of order (have %d samples)", iter, len(*objs))
		}
		*objs = append(*objs, objective)
	}
}

func finiteObjectives(t *testing.T, objs []float64) {
	t.Helper()
	for i, f := range objs {
		if math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
			t.Fatalf("iteration %d: objective %v not finite and non-negative", i+1, f)
		}
	}
}

func TestFISTATraceObservesEveryIteration(t *testing.T) {
	op, y, _ := sparseProblem(128, 256, 8, 3)
	opts := Options[float64]{MaxIter: 400, Tol: 1e-9, Lambda: 1e-4}

	base, err := FISTA(op, y, opts)
	if err != nil {
		t.Fatal(err)
	}

	var objs []float64
	opts.Monitor = monitorObjectives(t, &objs)
	traced, err := FISTA(op, y, opts)
	if err != nil {
		t.Fatal(err)
	}

	if len(objs) != traced.Iterations {
		t.Errorf("monitor fired %d times, solver ran %d iterations", len(objs), traced.Iterations)
	}
	finiteObjectives(t, objs)
	// The objective must end far below where it starts on a recoverable
	// problem.
	if first, last := objs[0], objs[len(objs)-1]; last > first/10 {
		t.Errorf("objective barely moved: %v → %v", first, last)
	}
	// Monitoring is observation only — the iterate sequence must be
	// bit-identical with and without it.
	if traced.Iterations != base.Iterations {
		t.Errorf("monitor changed iteration count: %d vs %d", traced.Iterations, base.Iterations)
	}
	for i := range base.X {
		if traced.X[i] != base.X[i] {
			t.Fatalf("monitor perturbed the solution at coefficient %d: %v vs %v",
				i, traced.X[i], base.X[i])
		}
	}
}

func TestISTATraceObservesEveryIteration(t *testing.T) {
	op, y, _ := sparseProblem(96, 192, 6, 4)
	var objs []float64
	res, err := ISTA(op, y, Options[float64]{
		MaxIter: 200, Tol: 1e-9, Lambda: 1e-3,
		Monitor: monitorObjectives(t, &objs),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != res.Iterations {
		t.Errorf("monitor fired %d times, solver ran %d iterations", len(objs), res.Iterations)
	}
	finiteObjectives(t, objs)
}

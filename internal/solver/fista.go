// Package solver implements the sparse-recovery algorithms of the
// decoder: ISTA, FISTA (the paper's choice, Beck & Teboulle 2009) and a
// greedy OMP baseline.
//
// All solvers work on the Lagrangian form of Eq. (3),
//
//	min_α F(α) = ‖Aα − y‖₂² + λ‖α‖₁,  A = ΦΨ,
//
// and access A only through a linalg.Op — matrix-vector products built
// from the sparse sensing matrix and the wavelet filter bank — so no
// dense M×N matrix is ever formed (the paper's contribution (1)).
//
// FISTA always runs with O'Donoghue & Candès's gradient restart
// ("Adaptive restart for accelerated gradient schemes", Found. Comput.
// Math. 15, 2015): whenever the proximal-gradient step points against
// the direction the iterate last moved, the momentum sequence is reset.
// This departs from the paper's plain FISTA; it leaves the fixed point
// unchanged and cuts the iteration count of warm-started windows, which
// overshoot and oscillate around a nearby solution under full momentum.
//
// The solvers are generic over float32/float64. The float32 instance is
// the paper's "iPhone (32-bit)" decoder and the float64 instance the
// "Matlab (64-bit)" reference of Fig. 6.
//
// Each FISTA iteration runs the operator's Apply and ApplyT, then one
// fused pass (proxStep) that forms the shrunk iterate and, from the
// same loads, the restart test and both norms of the stopping rule,
// then one momentum pass (momentumStep). The Vectorized option
// ("NEON", versus the scalar "VFP" reference) chooses only the form of
// the shrink — the if-converted ShrinkBranchless or the branchy Shrink,
// which differ only in the sign of zero outputs — and, in
// internal/coordinator, the cycle-cost model that prices the
// iteration. ISTA and TwIST still run the separate 4-wide or scalar
// linalg kernels.
//
// The float32 FISTA runs on AVX2 assembly on amd64, in every pass: the
// operators in internal/sensing and internal/wavelet, and both vector
// passes here (avx2Kernels), in either shrink form. The kernels are
// bit-identical to the Go loops, which stay the reference and the path
// for float64, other architectures and CPUs without AVX2; proxStep
// splits its float64 sums into eight lane stripes so that both paths
// add in the same order.
package solver

import (
	"fmt"
	"math"

	"csecg/internal/linalg"
)

// Options controls an ISTA/FISTA run.
type Options[T linalg.Float] struct {
	// MaxIter bounds the iteration count. The coordinator uses this to
	// enforce its real-time budget (800 unoptimized / 2000 optimized per
	// the paper). Defaults to 1000 if zero.
	MaxIter int
	// Tol stops the run when the relative iterate change
	// ‖α_k − α_{k−1}‖₂ / max(1, ‖α_k‖₂) falls below it. Defaults to 1e-4
	// if zero; set negative to disable early stopping.
	Tol float64
	// Lambda is the l1 weight λ. If zero, it defaults to
	// 0.001·‖Aᵀy‖∞ — small enough that the solution bias stays below
	// the CS undersampling error on ECG-like problems, while still
	// scaling with the signal.
	Lambda T
	// Lipschitz is the constant L = 2·λmax(AᵀA). If zero, it is
	// estimated by power iteration (30 rounds) before the run.
	Lipschitz T
	// Vectorized selects the NEON path: the if-converted shrink in
	// FISTA, the 4-wide unrolled kernels in ISTA and TwIST. The scalar
	// path is the VFP reference.
	Vectorized bool
	// X0, when non-nil, warm-starts the iteration; the solver only
	// reads it. The packet decoder passes the previous window's
	// solution: consecutive ECG windows are quasi-periodic, so the warm
	// start cuts the iteration count substantially. With continuation
	// for cold windows and the gradient restart, a streamed CR 50
	// window takes about 300 iterations on the substitute database —
	// below the paper's 600–900, which plain FISTA reproduces.
	X0 []T
	// Monitor, when non-nil, is invoked each iteration with the current
	// objective value F(α_k). Computing F costs one extra A·α per
	// iteration, so leave nil in production.
	Monitor func(iter int, objective T)
	// DeadlineNs, when nonzero, is an absolute soft deadline in the
	// nanoseconds of the Now clock: once Now() reaches it the solver
	// stops at the current iterate and flags the result
	// DeadlineExpired. The iterate is the best-so-far answer — a
	// degraded reconstruction, never an error — so real-time callers
	// always get samples to display.
	DeadlineNs int64
	// Now supplies the clock for deadline checks. It must be injected
	// (telemetry.Clock.Now fits): library code stays deterministic, so
	// there is no time.Now fallback — a nonzero DeadlineNs with a nil
	// Now disables the deadline.
	Now func() int64
	// DeadlineEvery is the iteration stride between deadline checks.
	// Defaults to DefaultDeadlineEvery if zero.
	DeadlineEvery int
}

// Result reports a solver run.
type Result[T linalg.Float] struct {
	// X is the recovered coefficient vector α.
	X []T
	// Iterations actually performed.
	Iterations int
	// Converged is true when the tolerance (not the iteration cap)
	// stopped the run.
	Converged bool
	// DeadlineExpired is true when the soft deadline (Options.DeadlineNs)
	// stopped the run; X then holds the best-so-far iterate.
	DeadlineExpired bool
	// Objective is the final F(α).
	Objective T
	// Lambda and Lipschitz echo the values used (after defaulting).
	Lambda, Lipschitz T
	// StageIters holds the per-stage iteration counts of a continuation
	// run (FISTAContinuation); nil for single-stage solves. The causal
	// span trace splits the solver leaf into sub-stage spans
	// proportionally to these counts.
	StageIters []int
}

// FISTA minimizes F(α) = ‖Aα−y‖₂² + λ‖α‖₁ with the fast iterative
// shrinkage-thresholding algorithm (constant step size, Eqs. (4)-(6) of
// the paper) plus the gradient restart described in the package
// comment. It returns an error only for structural problems (shape
// mismatch, nil operator).
func FISTA[T linalg.Float](a linalg.Op[T], y []T, opt Options[T]) (Result[T], error) {
	st, err := newState(a, y, &opt)
	if err != nil {
		return Result[T]{}, err
	}
	n := a.InDim
	alpha := make([]T, n)     // α_k
	alphaPrev := make([]T, n) // α_{k−1}
	yk := make([]T, n)        // momentum point y_k
	grad := make([]T, n)
	if opt.X0 != nil {
		if len(opt.X0) != n {
			return Result[T]{}, fmt.Errorf("solver: warm start length %d, want %d", len(opt.X0), n)
		}
		copy(alphaPrev, opt.X0)
		copy(yk, opt.X0)
	}
	tk := T(1)
	dl := newDeadline(&opt)
	res := Result[T]{Lambda: opt.Lambda, Lipschitz: opt.Lipschitz}
	// The step (2/L)·Aᵀ(Ay_k − y) is formed as (2·(1/L))·g: doubling is
	// exact, so this is bit-identical to scaling the gradient by 2 and
	// then by 1/L, the order of Eq. (4).
	step := 2 * (1 / opt.Lipschitz)
	thresh := opt.Lambda / opt.Lipschitz
	for k := 1; k <= opt.MaxIter; k++ {
		st.halfGradient(grad, yk)
		// α_k = prox_{λ/L}(y_k − (1/L)∇f(y_k)), Eq. (4), formed in α_k's
		// buffer so that y_k survives for the restart test.
		p := st.prox(alpha, alphaPrev, yk, grad, step, thresh)
		// Gradient restart: (y_k − α_k) is the step's descent direction
		// up to 1/L, so a positive inner product with the last move
		// α_k − α_{k−1} means the momentum has carried the iterate
		// uphill. Restarting t makes this iteration's momentum zero.
		if p.restart > 0 {
			tk = 1
		}
		// t_{k+1}, Eq. (5).
		tNext := (1 + T(math.Sqrt(float64(1+4*tk*tk)))) / 2
		// y_{k+1} = α_k + ((t_k−1)/t_{k+1})(α_k − α_{k−1}), Eq. (6).
		beta := (tk - 1) / tNext
		st.momentum(yk, alpha, alphaPrev, beta)
		tk = tNext
		res.Iterations = k
		if opt.Monitor != nil {
			opt.Monitor(k, st.objective(alpha, opt.Lambda))
		}
		// The relative-step stopping rule ‖α_k − α_{k−1}‖₂ / max(1, ‖α_k‖₂).
		if opt.Tol >= 0 && math.Sqrt(p.step2)/max(1, math.Sqrt(p.norm2)) < opt.Tol {
			res.Converged = true
			copy(alphaPrev, alpha)
			break
		}
		if dl.expired(k) {
			res.DeadlineExpired = true
			copy(alphaPrev, alpha)
			break
		}
		// Swap roles: α_k becomes α_{k−1}; the old buffer is fully
		// overwritten by the next prox step.
		alpha, alphaPrev = alphaPrev, alpha
	}
	// alphaPrev holds the last iterate after the final swap (or the
	// explicit copy on convergence).
	res.X = alphaPrev
	res.Objective = st.objective(res.X, opt.Lambda)
	return res, nil
}

// proxSums are the float64 sums proxStep gathers while forming α_k.
type proxSums struct {
	restart float64 // (y_k − α_k)·(α_k − α_{k−1}), the restart test
	step2   float64 // ‖α_k − α_{k−1}‖₂²
	norm2   float64 // ‖α_k‖₂²
}

// proxStripes holds proxSums split into eight stripes: element i adds
// into stripe i mod 8, in ascending i, which is the order in which the
// eight lanes of the AVX2 kernels add.
type proxStripes struct {
	restart, step2, norm2 [lanes]float64
}

// sum reduces each sum's stripes.
func (s *proxStripes) sum() proxSums {
	return proxSums{restart: reduceStripes(&s.restart), step2: reduceStripes(&s.step2), norm2: reduceStripes(&s.norm2)}
}

// reduceStripes adds eight stripes over one fixed tree, the same on
// every dispatch path.
func reduceStripes(s *[lanes]float64) float64 {
	return ((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7]))
}

// proxStep is FISTA's proximal-gradient step in one pass: it forms
// α = shrink(y − step·g, thresh) and, from the same loads, the sums of
// proxSums, striped and reduced as proxStripes describes. The shrink
// is the scalar branchy form, or the if-converted form of the NEON
// path when branchless is set; they differ only in the sign of zero
// outputs. It is the reference the AVX2 kernels reproduce bit for bit.
//
//csecg:hotpath the fused vector step of every FISTA iteration
func proxStep[T linalg.Float](alpha, prev, y, g []T, step, thresh T, branchless bool) proxSums {
	var s proxStripes
	proxStriped(&s, alpha, prev, y, g, step, thresh, branchless)
	return s.sum()
}

// proxStriped runs proxStep's loop, adding element i's terms into
// stripe i mod 8 of s. The explicit conversion keeps step·g a
// separately rounded product wherever the compiler could fuse it into
// the subtraction. The float64 products are exact.
//
//csecg:hotpath the loop of proxStep and of the AVX2 kernels' tail
func proxStriped[T linalg.Float](s *proxStripes, alpha, prev, y, g []T, step, thresh T, branchless bool) {
	prev, y, g = prev[:len(alpha)], y[:len(alpha)], g[:len(alpha)]
	for i := range alpha {
		v := y[i] - T(step*g[i])
		var a T
		if branchless {
			a = linalg.ShrinkBranchless(v, thresh)
		} else {
			a = linalg.Shrink(v, thresh)
		}
		d := float64(a - prev[i])
		l := i & (lanes - 1)
		s.restart[l] += float64(y[i]-a) * d
		s.step2[l] += d * d
		s.norm2[l] += float64(a) * float64(a)
		alpha[i] = a
	}
}

// momentumStep forms the next momentum point
// y = α + β(α − α_prev), Eq. (6), with β(α − α_prev) rounded before
// the add.
//
//csecg:hotpath the momentum pass of every FISTA iteration
func momentumStep[T linalg.Float](y, alpha, prev []T, beta T) {
	alpha, prev = alpha[:len(y)], prev[:len(y)]
	for i := range y {
		y[i] = alpha[i] + T(beta*(alpha[i]-prev[i]))
	}
}

// ISTA is the unaccelerated baseline (O(1/k) vs FISTA's O(1/k²)); the
// paper cites it as "notoriously slow", which the convergence experiment
// reproduces.
func ISTA[T linalg.Float](a linalg.Op[T], y []T, opt Options[T]) (Result[T], error) {
	st, err := newState(a, y, &opt)
	if err != nil {
		return Result[T]{}, err
	}
	n := a.InDim
	alpha := make([]T, n)
	prev := make([]T, n)
	grad := make([]T, n)
	if opt.X0 != nil {
		if len(opt.X0) != n {
			return Result[T]{}, fmt.Errorf("solver: warm start length %d, want %d", len(opt.X0), n)
		}
		copy(alpha, opt.X0)
	}
	dl := newDeadline(&opt)
	res := Result[T]{Lambda: opt.Lambda, Lipschitz: opt.Lipschitz}
	for k := 1; k <= opt.MaxIter; k++ {
		copy(prev, alpha)
		st.gradient(grad, alpha)
		step := 1 / opt.Lipschitz
		if st.vec {
			linalg.Axpy4(-step, grad, alpha)
			linalg.SoftThreshold4(alpha, alpha, opt.Lambda/opt.Lipschitz)
		} else {
			linalg.Axpy(-step, grad, alpha)
			linalg.SoftThreshold(alpha, alpha, opt.Lambda/opt.Lipschitz)
		}
		res.Iterations = k
		if opt.Monitor != nil {
			opt.Monitor(k, st.objective(alpha, opt.Lambda))
		}
		if st.converged(alpha, prev, opt.Tol) {
			res.Converged = true
			break
		}
		if dl.expired(k) {
			res.DeadlineExpired = true
			break
		}
	}
	res.X = alpha
	res.Objective = st.objective(alpha, opt.Lambda)
	return res, nil
}

// state carries the shared scratch buffers and kernels of a run.
type state[T linalg.Float] struct {
	a    linalg.Op[T]
	y    []T
	r    []T // residual buffer, length M
	diff []T // convergence-test buffer, length N
	vec  bool
	// simd runs FISTA's vector passes when non-nil (selectKernels).
	simd kernels[T]
}

func newState[T linalg.Float](a linalg.Op[T], y []T, opt *Options[T]) (*state[T], error) {
	if a.Apply == nil || a.ApplyT == nil {
		return nil, fmt.Errorf("solver: operator missing Apply/ApplyT")
	}
	if len(y) != a.OutDim {
		return nil, fmt.Errorf("solver: measurement length %d, operator range %d", len(y), a.OutDim)
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 1000
	}
	if opt.Tol == 0 {
		opt.Tol = 1e-4
	}
	st := &state[T]{a: a, y: y, r: make([]T, a.OutDim), diff: make([]T, a.InDim), vec: opt.Vectorized, simd: selectKernels[T]()}
	if opt.Lipschitz <= 0 {
		opt.Lipschitz = 2 * linalg.PowerIterOpNorm(a, 30)
		if opt.Lipschitz <= 0 {
			return nil, fmt.Errorf("solver: operator norm estimated as zero")
		}
	}
	if opt.Lambda <= 0 {
		aty := make([]T, a.InDim)
		a.ApplyT(aty, y)
		opt.Lambda = linalg.NormInf(aty) / 1000
		if opt.Lambda == 0 {
			opt.Lambda = 1e-6
		}
	}
	return st, nil
}

// prox runs proxStep in the shrink form of the run's mode.
func (st *state[T]) prox(alpha, prev, y, g []T, step, thresh T) proxSums {
	if st.simd != nil {
		return st.simd.prox(alpha, prev, y, g, step, thresh, st.vec)
	}
	return proxStep(alpha, prev, y, g, step, thresh, st.vec)
}

// momentum runs momentumStep.
func (st *state[T]) momentum(y, alpha, prev []T, beta T) {
	if st.simd != nil {
		st.simd.momentum(y, alpha, prev, beta)
		return
	}
	momentumStep(y, alpha, prev, beta)
}

// halfGradient computes ∇f(x)/2 = Aᵀ(Ax − y) into dst.
func (st *state[T]) halfGradient(dst, x []T) {
	st.a.Apply(st.r, x)
	linalg.Sub(st.r, st.r, st.y)
	st.a.ApplyT(dst, st.r)
}

// gradient computes ∇f(x) = 2·Aᵀ(Ax − y) into dst.
func (st *state[T]) gradient(dst, x []T) {
	st.halfGradient(dst, x)
	if st.vec {
		linalg.Axpy4(1, dst, dst) // ×2 via dst += dst
	} else {
		linalg.Scale(2, dst)
	}
}

func (st *state[T]) objective(x []T, lambda T) T {
	st.a.Apply(st.r, x)
	linalg.Sub(st.r, st.r, st.y)
	n2 := linalg.Norm2(st.r)
	return n2*n2 + lambda*linalg.Norm1(x)
}

func (st *state[T]) converged(cur, prev []T, tol float64) bool {
	if tol < 0 {
		return false
	}
	diff := st.diff
	if st.vec {
		linalg.Sub4(diff, cur, prev)
	} else {
		linalg.Sub(diff, cur, prev)
	}
	den := float64(linalg.Norm2(cur))
	if den < 1 {
		den = 1
	}
	return float64(linalg.Norm2(diff))/den < tol
}

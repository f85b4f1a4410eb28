// Package optimize implements the unconstrained convex minimizers used by
// maximum-entropy moment estimation: a damped Newton method with backtracking
// line search (the production solver, paper §4.2), L-BFGS (the "bfgs" lesion
// estimator), and plain gradient descent (stand-in for generic first-order
// convex solvers in the lesion study).
package optimize

import (
	"errors"
	"math"

	"repro/internal/linalg"
)

// Objective is a differentiable scalar function of a vector.
type Objective interface {
	// Dim returns the dimension of the optimization variable.
	Dim() int
	// Value returns f(x).
	Value(x []float64) float64
	// Gradient writes ∇f(x) into grad (len Dim).
	Gradient(x, grad []float64)
}

// HessianObjective is an Objective that can also produce its Hessian.
type HessianObjective interface {
	Objective
	// Hessian writes ∇²f(x) into hess (Dim x Dim).
	Hessian(x []float64, hess *linalg.Dense)
}

// Result reports the outcome of a minimization.
type Result struct {
	X          []float64
	Value      float64
	GradNorm   float64 // ∞-norm of the final gradient
	Iterations int
	Converged  bool
	// FuncEvals counts objective evaluations including line-search probes.
	FuncEvals int
}

// ErrLineSearch is returned when backtracking cannot find a decreasing step,
// typically because the gradient is wrong or the function is non-smooth.
var ErrLineSearch = errors.New("optimize: line search failed to decrease objective")

// Newton's fixed settings. gradTol is the ∞-norm gradient tolerance — the
// paper's moment-matching δ, which every caller uses — and stallTol the one
// a stalled minimization is held to; ridge is the initial Tikhonov ridge
// for near-singular Hessians; maxBack bounds the backtracking halvings.
const (
	gradTol  = 1e-9
	stallTol = 10 * gradTol
	ridge    = 1e-12
	maxBack  = 60
)

// NewtonOptions configures Newton.
type NewtonOptions struct {
	MaxIter int // default 200
	// Work supplies reusable iteration buffers. When set, Newton performs
	// no per-iteration allocations and Result.X aliases Work memory that is
	// only valid until the workspace's next use — copy it if it must
	// outlive the call. When nil, buffers are allocated per call and
	// Result.X is freshly owned, as before.
	Work *NewtonWorkspace
}

// NewtonWorkspace holds the scratch buffers of a Newton minimization — the
// iterate, gradient, step direction, line-search probe, Hessian, and the
// Cholesky solver's working set. A workspace grows to the largest dimension
// it has seen and is reused across solves; it must not be used by two
// minimizations concurrently.
type NewtonWorkspace struct {
	x, grad, neg, probe []float64
	hess                *linalg.Dense
	spd                 linalg.SPDSolver
}

// ensure sizes every buffer for dimension n.
func (w *NewtonWorkspace) ensure(n int) {
	if cap(w.x) < n {
		w.x = make([]float64, n)
		w.grad = make([]float64, n)
		w.neg = make([]float64, n)
		w.probe = make([]float64, n)
	}
	w.x = w.x[:n]
	w.grad = w.grad[:n]
	w.neg = w.neg[:n]
	w.probe = w.probe[:n]
	if w.hess == nil || cap(w.hess.Data) < n*n {
		w.hess = linalg.NewDense(n, n)
	}
	w.hess.Rows, w.hess.Cols = n, n
	w.hess.Data = w.hess.Data[:n*n]
}

// Newton minimizes a convex HessianObjective with a damped Newton method:
// solve ∇²f·d = −∇f (with ridge regularization on factorization failure),
// then backtrack along d until the Armijo condition holds. It stops when
// ‖∇f‖∞ ≤ gradTol, or after a stall: once an accepted step leaves f where
// it was, rounding hides f's change, so Newton takes the undamped step and
// stops there, converged iff ‖∇f‖∞ ≤ stallTol.
func Newton(obj HessianObjective, x0 []float64, opts NewtonOptions) (Result, error) {
	if opts.MaxIter <= 0 {
		opts.MaxIter = 200
	}
	n := obj.Dim()
	w := opts.Work
	if w == nil {
		w = &NewtonWorkspace{}
	}
	w.ensure(n)
	x := w.x
	copy(x, x0)
	grad := w.grad
	hess := w.hess
	res := Result{X: x}

	val := obj.Value(x)
	res.FuncEvals++
	stalled := false
	for iter := 0; iter < opts.MaxIter; iter++ {
		obj.Gradient(x, grad)
		gnorm := linalg.NormInf(grad)
		res.Iterations = iter
		res.Value = val
		res.GradNorm = gnorm
		if gnorm <= gradTol || stalled {
			res.Converged = gnorm <= stallTol
			return res, nil
		}
		obj.Hessian(x, hess)
		negGrad := w.neg
		for i := range grad {
			negGrad[i] = -grad[i]
		}
		dir, err := w.spd.Solve(hess, negGrad, ridge, 10)
		if err != nil {
			// Hessian hopeless: fall back to steepest descent direction.
			dir = negGrad
		}
		// Guard against ascent directions from regularization artifacts.
		if linalg.Dot(dir, grad) > 0 {
			for i := range dir {
				dir[i] = -grad[i]
			}
		}
		step, newVal, evals, lsErr := backtrackInto(obj, x, dir, val, grad, maxBack, w.probe)
		res.FuncEvals += evals
		if lsErr != nil {
			res.Value = val
			return res, lsErr
		}
		if !(newVal < val) {
			// f cannot resolve this step's decrease, so the line search
			// cannot judge it; near the minimum the undamped step is right.
			step, stalled = 1, true
		}
		for i := range x {
			x[i] += step * dir[i]
		}
		if stalled {
			newVal = obj.Value(x) // f at the undamped step, for res.Value
			res.FuncEvals++
		}
		val = newVal
	}
	obj.Gradient(x, grad)
	res.GradNorm = linalg.NormInf(grad)
	res.Value = val
	res.Iterations = opts.MaxIter
	return res, nil
}

// backtrack performs an Armijo backtracking line search from x along dir.
func backtrack(obj Objective, x, dir []float64, val float64, grad []float64, maxBack int) (step, newVal float64, evals int, err error) {
	return backtrackInto(obj, x, dir, val, grad, maxBack, make([]float64, len(x)))
}

// backtrackInto is backtrack with a caller-provided probe buffer.
func backtrackInto(obj Objective, x, dir []float64, val float64, grad []float64, maxBack int, probe []float64) (step, newVal float64, evals int, err error) {
	const c1 = 1e-4
	slope := linalg.Dot(grad, dir)
	step = 1.0
	for k := 0; k < maxBack; k++ {
		for i := range x {
			probe[i] = x[i] + step*dir[i]
		}
		newVal = obj.Value(probe)
		evals++
		if !math.IsNaN(newVal) && !math.IsInf(newVal, 0) && newVal <= val+c1*step*slope {
			return step, newVal, evals, nil
		}
		step /= 2
	}
	return 0, val, evals, ErrLineSearch
}

// LBFGSOptions configures LBFGS.
type LBFGSOptions struct {
	GradTol float64 // default 1e-9
	MaxIter int     // default 500
	Memory  int     // history pairs, default 10
	MaxBack int     // default 60
}

func (o *LBFGSOptions) defaults() {
	if o.GradTol <= 0 {
		o.GradTol = 1e-9
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 500
	}
	if o.Memory <= 0 {
		o.Memory = 10
	}
	if o.MaxBack <= 0 {
		o.MaxBack = 60
	}
}

// LBFGS minimizes obj with limited-memory BFGS (two-loop recursion) and
// Armijo backtracking.
func LBFGS(obj Objective, x0 []float64, opts LBFGSOptions) (Result, error) {
	opts.defaults()
	n := obj.Dim()
	x := make([]float64, n)
	copy(x, x0)
	grad := make([]float64, n)
	res := Result{X: x}

	type pair struct {
		s, y []float64
		rho  float64
	}
	var hist []pair

	val := obj.Value(x)
	res.FuncEvals++
	obj.Gradient(x, grad)
	stall := 0
	for iter := 0; iter < opts.MaxIter; iter++ {
		gnorm := linalg.NormInf(grad)
		res.Iterations = iter
		res.Value = val
		res.GradNorm = gnorm
		if gnorm <= opts.GradTol {
			res.Converged = true
			return res, nil
		}
		if stall >= 10 {
			// Line search is making machine-precision non-progress; more
			// iterations cannot help.
			return res, nil
		}
		// Two-loop recursion for d = -H·g.
		q := make([]float64, n)
		for i := range grad {
			q[i] = grad[i]
		}
		alphas := make([]float64, len(hist))
		for i := len(hist) - 1; i >= 0; i-- {
			h := hist[i]
			alphas[i] = h.rho * linalg.Dot(h.s, q)
			linalg.AXPY(-alphas[i], h.y, q)
		}
		if len(hist) > 0 {
			last := hist[len(hist)-1]
			gammaDen := linalg.Dot(last.y, last.y)
			if gammaDen > 0 {
				gamma := linalg.Dot(last.s, last.y) / gammaDen
				for i := range q {
					q[i] *= gamma
				}
			}
		}
		for i := 0; i < len(hist); i++ {
			h := hist[i]
			beta := h.rho * linalg.Dot(h.y, q)
			linalg.AXPY(alphas[i]-beta, h.s, q)
		}
		dir := q
		for i := range dir {
			dir[i] = -dir[i]
		}
		if linalg.Dot(dir, grad) > 0 {
			for i := range dir {
				dir[i] = -grad[i]
			}
			hist = hist[:0]
		}
		step, newVal, evals, lsErr := backtrack(obj, x, dir, val, grad, opts.MaxBack)
		res.FuncEvals += evals
		if lsErr != nil {
			return res, lsErr
		}
		newGrad := make([]float64, n)
		s := make([]float64, n)
		for i := range x {
			s[i] = step * dir[i]
			x[i] += s[i]
		}
		obj.Gradient(x, newGrad)
		y := make([]float64, n)
		for i := range y {
			y[i] = newGrad[i] - grad[i]
		}
		if sy := linalg.Dot(s, y); sy > 1e-16 {
			hist = append(hist, pair{s: s, y: y, rho: 1 / sy})
			if len(hist) > opts.Memory {
				hist = hist[1:]
			}
		}
		copy(grad, newGrad)
		if val-newVal <= 1e-16*(1+math.Abs(val)) {
			stall++
		} else {
			stall = 0
		}
		val = newVal
	}
	res.Value = val
	res.GradNorm = linalg.NormInf(grad)
	return res, nil
}

// GradientDescent minimizes obj with backtracking steepest descent. It is
// intentionally simple — it stands in for "generic convex solver" cost in
// the lesion study.
func GradientDescent(obj Objective, x0 []float64, gradTol float64, maxIter int) (Result, error) {
	if gradTol <= 0 {
		gradTol = 1e-7
	}
	if maxIter <= 0 {
		maxIter = 5000
	}
	n := obj.Dim()
	x := make([]float64, n)
	copy(x, x0)
	grad := make([]float64, n)
	res := Result{X: x}
	val := obj.Value(x)
	res.FuncEvals++
	for iter := 0; iter < maxIter; iter++ {
		obj.Gradient(x, grad)
		gnorm := linalg.NormInf(grad)
		res.Iterations = iter
		res.Value = val
		res.GradNorm = gnorm
		if gnorm <= gradTol {
			res.Converged = true
			return res, nil
		}
		dir := make([]float64, n)
		for i := range dir {
			dir[i] = -grad[i]
		}
		step, newVal, evals, err := backtrack(obj, x, dir, val, grad, 60)
		res.FuncEvals += evals
		if err != nil {
			return res, err
		}
		for i := range x {
			x[i] += step * dir[i]
		}
		val = newVal
	}
	res.Value = val
	return res, nil
}

package estimators

import (
	"errors"
	"math"

	"repro/internal/cheby"
	"repro/internal/linalg"
	"repro/internal/maxent"
	"repro/internal/optimize"
	"repro/internal/quad"
)

// ccPotential is the Clenshaw–Curtis grid potential over a single Chebyshev
// family — the same objective the production solver minimizes, rebuilt here
// so the bfgs variant measures pure optimizer differences.
type ccPotential struct {
	b [][]float64 // basis values [k+1][n+1]
	w []float64
	c []float64
}

func newCCPotential(in Input, gridN int) *ccPotential {
	k := len(in.Std.Cheby) - 1
	p := &ccPotential{w: cheby.ClenshawCurtisWeights(gridN), c: in.Std.Cheby}
	p.b = make([][]float64, k+1)
	for i := 0; i <= k; i++ {
		row := make([]float64, gridN+1)
		for pt := 0; pt <= gridN; pt++ {
			row[pt] = math.Cos(float64(i) * math.Pi * float64(pt) / float64(gridN))
		}
		p.b[i] = row
	}
	return p
}

func (p *ccPotential) Dim() int { return len(p.c) }

func (p *ccPotential) density(theta []float64) []float64 {
	n := len(p.w)
	out := make([]float64, n)
	for pt := 0; pt < n; pt++ {
		s := 0.0
		for i, th := range theta {
			s += th * p.b[i][pt]
		}
		out[pt] = math.Exp(s)
	}
	return out
}

func (p *ccPotential) Value(theta []float64) float64 {
	dens := p.density(theta)
	s := 0.0
	for pt, w := range p.w {
		s += w * dens[pt]
	}
	for i, th := range theta {
		s -= th * p.c[i]
	}
	return s
}

func (p *ccPotential) Gradient(theta, grad []float64) {
	dens := p.density(theta)
	for i := range grad {
		s := 0.0
		for pt, w := range p.w {
			s += w * p.b[i][pt] * dens[pt]
		}
		grad[i] = s - p.c[i]
	}
}

// quantilerFromDensity converts Lobatto-grid density samples into a CDF
// quantiler via the Chebyshev antiderivative.
type chebQuantiler struct {
	in   Input
	cdf  []float64
	norm float64
}

func newChebQuantiler(in Input, densSamples []float64) *chebQuantiler {
	coeffs := cheby.Interpolate(densSamples)
	cdf := cheby.Antiderivative(coeffs)
	norm := cheby.Eval(cdf, 1)
	if norm <= 0 || math.IsNaN(norm) {
		norm = 1
	}
	return &chebQuantiler{in: in, cdf: cdf, norm: norm}
}

func (q *chebQuantiler) quantile(phi float64) float64 {
	target := phi * q.norm
	lo, hi := -1.0, 1.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if cheby.Eval(q.cdf, mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return q.in.FromU((lo + hi) / 2)
}

// BFGS is the "bfgs" lesion estimator: the grid potential minimized with
// L-BFGS instead of Newton. No Hessian, more iterations (§6.3: since the
// Hessian is nearly free given the gradient machinery, Newton wins).
type BFGS struct {
	q *chebQuantiler
}

// NewBFGS returns the L-BFGS maxent estimator.
func NewBFGS() *BFGS { return &BFGS{} }

// Name implements Estimator.
func (b *BFGS) Name() string { return "bfgs" }

// Prepare implements Estimator.
func (b *BFGS) Prepare(in Input) error {
	const gridN = 256
	pot := newCCPotential(in, gridN)
	theta := make([]float64, pot.Dim())
	theta[0] = math.Log(0.5)
	// 1e-8 rather than the production 1e-9: Armijo-only backtracking
	// plateaus at ~1e-8 on this potential (the curvature information Newton
	// gets for free is exactly what L-BFGS lacks — the §6.3 point).
	res, err := optimize.LBFGS(pot, theta, optimize.LBFGSOptions{GradTol: 1e-8, MaxIter: 2000})
	if err != nil {
		return err
	}
	if !res.Converged {
		return maxent.ErrNotConverged
	}
	b.q = newChebQuantiler(in, pot.density(res.X))
	return nil
}

// Quantile implements Estimator.
func (b *BFGS) Quantile(phi float64) float64 { return b.q.quantile(phi) }

// NaiveNewton is the "newton" lesion estimator: Newton's method where every
// gradient and Hessian entry is an independent adaptive Romberg integration
// (§6.3: "implements our estimator without the integration techniques in
// §4.3, and uses adaptive Romberg integration instead"). Identical optimum,
// ~50× the integration work per step.
type NaiveNewton struct {
	q *chebQuantiler
}

// NewNaiveNewton returns the Romberg-integration Newton estimator.
func NewNaiveNewton() *NaiveNewton { return &NaiveNewton{} }

// Name implements Estimator.
func (nn *NaiveNewton) Name() string { return "newton" }

type rombergPotential struct {
	c []float64
}

func (p *rombergPotential) Dim() int { return len(p.c) }

func (p *rombergPotential) dens(theta []float64) func(u float64) float64 {
	return func(u float64) float64 {
		s := 0.0
		for i, th := range theta {
			s += th * cheby.EvalT(i, u)
		}
		return math.Exp(s)
	}
}

func (p *rombergPotential) integrate(f func(float64) float64) float64 {
	v, _ := quad.Romberg(f, -1, 1, 1e-10, 18)
	return v
}

func (p *rombergPotential) Value(theta []float64) float64 {
	f := p.dens(theta)
	s := p.integrate(f)
	for i, th := range theta {
		s -= th * p.c[i]
	}
	return s
}

func (p *rombergPotential) Gradient(theta, grad []float64) {
	f := p.dens(theta)
	for i := range grad {
		i := i
		grad[i] = p.integrate(func(u float64) float64 { return cheby.EvalT(i, u) * f(u) }) - p.c[i]
	}
}

func (p *rombergPotential) Hessian(theta []float64, h *linalg.Dense) {
	f := p.dens(theta)
	d := len(theta)
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			i, j := i, j
			v := p.integrate(func(u float64) float64 {
				return cheby.EvalT(i, u) * cheby.EvalT(j, u) * f(u)
			})
			h.Set(i, j, v)
			h.Set(j, i, v)
		}
	}
}

// Prepare implements Estimator.
func (nn *NaiveNewton) Prepare(in Input) error {
	pot := &rombergPotential{c: in.Std.Cheby}
	theta := make([]float64, pot.Dim())
	theta[0] = math.Log(0.5)
	res, err := optimize.Newton(pot, theta, optimize.NewtonOptions{MaxIter: 100})
	if err != nil {
		return err
	}
	if !res.Converged {
		return maxent.ErrNotConverged
	}
	// Extract the density on a Lobatto grid for CDF inversion.
	const gridN = 256
	samples := make([]float64, gridN+1)
	f := pot.dens(res.X)
	for pt, u := range cheby.Nodes(gridN) {
		samples[pt] = f(u)
	}
	nn.q = newChebQuantiler(in, samples)
	return nil
}

// Quantile implements Estimator.
func (nn *NaiveNewton) Quantile(phi float64) float64 { return nn.q.quantile(phi) }

// Opt is the production path: the optimized solver of §4.3 (Chebyshev
// basis, Clenshaw–Curtis grid, cached-density Newton), restricted to the
// single moment family the lesion study feeds every estimator.
type Opt struct {
	sol *maxent.Solution
	in  Input
}

// NewOpt returns the production-solver estimator.
func NewOpt() *Opt { return &Opt{} }

// Name implements Estimator.
func (o *Opt) Name() string { return "opt" }

// Prepare implements Estimator.
func (o *Opt) Prepare(in Input) error {
	o.in = in
	k := len(in.Std.Cheby) - 1
	if k < 1 {
		return errors.New("estimators: opt needs at least one moment")
	}
	var b maxent.Basis
	if in.LogDomain {
		b = maxent.Basis{Primary: maxent.DomainLog, K2: k, Log: in.Std}
	} else {
		b = maxent.Basis{Primary: maxent.DomainStd, K1: k, Std: in.Std}
	}
	sol, err := maxent.Solve(b, maxent.Options{})
	if err != nil {
		return err
	}
	o.sol = sol
	return nil
}

// Quantile implements Estimator.
func (o *Opt) Quantile(phi float64) float64 { return o.sol.Quantile(phi) }

package maxent

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/cheby"
	"repro/internal/linalg"
	"repro/internal/optimize"
	"repro/internal/rootfind"
)

// The solve policy, fixed for every caller (paper §4.3). Newton starts on a
// Clenshaw–Curtis grid of order gridSize and runs until the moments match to
// within gradTol (the paper's δ, optimize.Newton's own stopping tolerance;
// 10·gradTol once rounding hides every further decrease), at most maxIter
// iterations per grid level; each converged θ is validated
// on the grid of twice the order, to within 100·gradTol, and the grid
// doubles until that validation holds or the grid reaches maxGrid. Basis
// selection caps the Gram condition number at maxCond (the paper's κmax). A
// failed solve drops the highest term of the larger moment family and
// retries, at most maxRetries times.
const (
	gridSize   = 128
	maxGrid    = 1024
	gradTol    = 1e-9
	maxCond    = 1e4
	maxIter    = 200
	maxRetries = 2
)

// Options carries a solve's one input besides its sketch or basis.
type Options struct {
	// Theta0 warm-starts Newton from a previous solution's coefficient
	// vector — typically the θ solved for an adjacent sliding-window
	// position or an earlier epoch of the same rollup. It is validated
	// against the selected basis: a length that does not match the basis
	// dimension, or any non-finite component, silently falls back to the
	// cold start, and if the warm-seeded solve diverges the solver retries
	// cold before shrinking the basis. The slice is never mutated.
	Theta0 []float64
}

// ErrNotConverged is returned when Newton cannot match the moments — the
// documented failure mode on near-discrete data (paper §6.2.3: fewer than
// five distinct values).
var ErrNotConverged = errors.New("maxent: solver did not converge")

// Solution is a solved maximum-entropy density with precomputed CDF
// machinery for quantile queries.
type Solution struct {
	Basis Basis
	Theta []float64
	// Iterations is the total Newton iteration count across grid levels
	// and retries — including iterations spent in failed attempts (a
	// diverging warm seed, a shrunk-basis retry), so warm-vs-cold
	// comparisons account for wasted work; FuncEvals counts objective
	// evaluations the same way.
	Iterations int
	FuncEvals  int
	// GridUsed is the final Clenshaw–Curtis grid order.
	GridUsed int
	// Warm reports whether the accepted solve was seeded from
	// Options.Theta0 (false when the seed was rejected or diverged and the
	// solver fell back to a cold start).
	Warm bool

	coeffs []float64 // Chebyshev coefficients of the density over u
	cdf    []float64 // antiderivative coefficients, F(-1) = 0
	norm   float64   // F(1)

	// point-mass degenerate case
	degenerate bool
	pointMass  float64

	xmin, xmax float64
}

// potential is the convex objective L(θ) from Eq. (5) of the paper,
// discretized on a Clenshaw–Curtis grid.
type potential struct {
	g *grid
	d []float64 // target moments
	k [2]int    // basis terms per family: K1, K2

	// Everything below is cached on the exact θ contents: the density, its
	// quadrature-weighted copy and total mass, and each family's weighted
	// Chebyshev moments mu[d][m] = Σ_p w_p·f(u_p)·T_m, valid for orders
	// m ≤ have·k[d] (have = 1 serves the gradient, 2 the Hessian).
	lastTheta []float64
	hasLast   bool
	dens, wd  []float64
	mass      float64
	mu        [2][]float64
	have      int
	tmp       []float64 // wd ⊙ one std row, for the mixed Hessian block
}

// newPotential builds the discretized objective for basis b on a grid built
// with mult = 2 (mult = 1 suffices when only Value and Gradient are used);
// ws supplies the scratch buffers.
func newPotential(g *grid, b *Basis, d []float64, ws *Workspace) *potential {
	p := &potential{g: g, d: d, k: [2]int{b.K1, b.K2}}
	p.dens, p.wd, p.tmp = ws.floats(g.n+1), ws.floats(g.n+1), ws.floats(g.n+1)
	p.lastTheta = ws.floats(len(d))
	p.mu[DomainStd], p.mu[DomainLog] = ws.floats(2*b.K1+1), ws.floats(2*b.K2+1)
	return p
}

func (p *potential) Dim() int { return len(p.d) }

// density fills p.dens with exp(Σ θ_i m̃_i(u_p)), accumulating the exponent
// one basis row at a time; values that overflow become +Inf, which the line
// search rejects naturally.
func (p *potential) density(theta []float64) []float64 {
	if p.hasLast && equalVec(p.lastTheta, theta) {
		return p.dens
	}
	dens := p.dens
	for pt := range dens {
		dens[pt] = theta[0]
	}
	for i := 1; i < len(theta); i++ {
		th, row := theta[i], p.g.b[i][:len(dens)]
		for pt := range dens {
			dens[pt] += th * row[pt]
		}
	}
	p.mass = 0
	for pt, w := range p.g.w {
		dens[pt] = math.Exp(dens[pt])
		p.wd[pt] = w * dens[pt]
		p.mass += p.wd[pt]
	}
	p.have = 0
	copy(p.lastTheta, theta)
	p.hasLast = true
	return dens
}

// moments extends the cached weighted moments of both families to orders
// mult·K — O(K·N) multiply-adds however many Hessian entries they feed.
func (p *potential) moments(theta []float64, mult int) {
	p.density(theta)
	for d, kd := range p.k {
		p.mu[d][0] = p.mass
		for m := p.have*kd + 1; m <= mult*kd; m++ {
			p.mu[d][m] = dot(p.wd, p.g.fam[d][m])
		}
	}
	p.have = max(p.have, mult)
}

// dot returns Σ a_p·b_p over four interleaved partial sums, so the adds
// pipeline instead of serializing on one accumulator.
func dot(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	p := 0
	for ; p+4 <= len(a); p += 4 {
		s0 += a[p] * b[p]
		s1 += a[p+1] * b[p+1]
		s2 += a[p+2] * b[p+2]
		s3 += a[p+3] * b[p+3]
	}
	for ; p < len(a); p++ {
		s0 += a[p] * b[p]
	}
	return (s0 + s1) + (s2 + s3)
}

func equalVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (p *potential) Value(theta []float64) float64 {
	p.density(theta)
	s := p.mass
	for i, th := range theta {
		s -= th * p.d[i]
	}
	return s
}

func (p *potential) Gradient(theta, grad []float64) {
	p.moments(theta, 1)
	grad[0] = p.mass - p.d[0]
	i := 1
	for d, kd := range p.k {
		for m := 1; m <= kd; m++ {
			grad[i] = p.mu[d][m] - p.d[i]
			i++
		}
	}
}

// Hessian assembles H_ij = Σ_p w_p·f·m̃_i·m̃_j. Within a family (T_0 counts
// for both) T_i·T_j = ½(T_{i+j} + T_{|i−j|}), so those blocks come straight
// from the 2K weighted moments; only the mixed std×log block needs one pass
// over the grid per entry.
func (p *potential) Hessian(theta []float64, h *linalg.Dense) {
	p.moments(theta, 2)
	k1 := p.k[DomainStd]
	for d, kd := range p.k {
		mu := p.mu[d]
		at := func(m int) int { // basis row of family d's T_m
			if m == 0 {
				return 0
			}
			return d*k1 + m
		}
		for i := 0; i <= kd; i++ {
			for j := i; j <= kd; j++ {
				v := (mu[i+j] + mu[j-i]) / 2
				h.Set(at(i), at(j), v)
				h.Set(at(j), at(i), v)
			}
		}
	}
	for i := 1; i <= k1; i++ {
		row := p.g.fam[DomainStd][i]
		for pt, w := range p.wd {
			p.tmp[pt] = w * row[pt]
		}
		for j := 1; j <= p.k[DomainLog]; j++ {
			v := dot(p.tmp, p.g.fam[DomainLog][j])
			h.Set(i, k1+j, v)
			h.Set(k1+j, i, v)
		}
	}
}

// Solve finds the maximum-entropy density for the given basis. Scratch
// memory comes from a pooled Workspace, so steady-state solves allocate
// little beyond the returned Solution.
func Solve(b Basis, opts Options) (*Solution, error) {
	ws := wsPool.Get()
	defer wsPool.Put(ws)
	return ws.Solve(b, opts)
}

func solveWS(ws *Workspace, b Basis, opts Options) (*Solution, error) {
	if err := b.validate(); err != nil {
		return nil, err
	}
	sol := &Solution{Basis: b}
	setSolutionRange(sol, &b)

	// Warm-started attempt first: a validated Theta0 seeds Newton directly;
	// if the seed diverges (stale θ from a very different window) the cold
	// path below retries from scratch, so a bad seed can degrade speed but
	// never the answer.
	// Iterations burned in failed attempts (a diverging warm seed, a
	// shrunk-basis retry) are carried into the accepted solution's
	// counters, so reported totals reflect the work actually done.
	wastedIter, wastedEvals := 0, 0
	if warm := warmTheta(opts.Theta0, b.Dim()); warm != nil {
		s, iters, evals, err := solveOnce(ws, b, sol, warm)
		if err == nil {
			s.Warm = true
			return s, nil
		}
		wastedIter, wastedEvals = iters, evals
	}

	basis := b
	var lastErr error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		s, iters, evals, err := solveOnce(ws, basis, sol, nil)
		if err == nil {
			s.Iterations += wastedIter
			s.FuncEvals += wastedEvals
			return s, nil
		}
		wastedIter += iters
		wastedEvals += evals
		lastErr = err
		// Drop the highest term of the larger family and retry: infeasible
		// or precision-damaged high moments are the usual culprit.
		if basis.K1+basis.K2 <= 1 {
			break
		}
		if basis.K2 >= basis.K1 && basis.K2 > 0 {
			basis.K2--
		} else {
			basis.K1--
		}
		if basis.K1+basis.K2 == 0 {
			break
		}
	}
	return nil, lastErr
}

// warmTheta validates a warm seed against the basis dimension, returning
// nil (cold start) on mismatch or non-finite components.
func warmTheta(theta0 []float64, dim int) []float64 {
	if len(theta0) != dim {
		return nil
	}
	for _, v := range theta0 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil
		}
	}
	return theta0
}

// solveOnce runs one solve attempt, returning the Newton iterations and
// objective evaluations it consumed whether or not it succeeded — failed
// attempts' counts fold into the accepted solution's totals.
func solveOnce(ws *Workspace, b Basis, proto *Solution, warm []float64) (*Solution, int, int, error) {
	d := ws.floats(b.Dim())
	b.targetsInto(d)
	theta := ws.floats(b.Dim())
	if warm != nil {
		copy(theta, warm)
	} else {
		theta[0] = math.Log(0.5) // start at the uniform density on [-1,1]
	}

	totalIter, totalEvals := 0, 0
	n := gridSize
	for {
		// The finer validation grid is built first — it needs only the
		// gradient's orders — so the order-n grid reads its cross-domain
		// nodes as the even-stride view instead of mapping them again.
		var fine *grid
		if n < maxGrid {
			fine = buildGridWS(ws, &b, 2*n, 1)
		}
		g := buildGridWS(ws, &b, n, 2)
		pot := newPotential(g, &b, d, ws)
		res, err := optimize.Newton(pot, theta, optimize.NewtonOptions{MaxIter: maxIter, Work: &ws.newton})
		totalIter += res.Iterations
		totalEvals += res.FuncEvals
		if err != nil || !res.Converged {
			if err == nil {
				err = ErrNotConverged
			}
			return nil, totalIter, totalEvals, fmt.Errorf("maxent: grid %d: %w", n, err)
		}
		copy(theta, res.X)

		if fine == nil {
			return finishSolution(ws, b, g, pot, theta, totalIter, totalEvals, proto), totalIter, totalEvals, nil
		}
		// Validate on the finer grid: if the converged θ's residual holds up,
		// the quadrature was already accurate enough.
		finePot := newPotential(fine, &b, d, ws)
		grad := ws.floats(b.Dim())
		finePot.Gradient(theta, grad)
		if linalg.NormInf(grad) <= 100*gradTol {
			return finishSolution(ws, b, fine, finePot, theta, totalIter, totalEvals, proto), totalIter, totalEvals, nil
		}
		n *= 2
	}
}

func setSolutionRange(sol *Solution, b *Basis) {
	switch b.Primary {
	case DomainStd:
		sol.xmin = b.Std.Unscale(-1)
		sol.xmax = b.Std.Unscale(1)
	case DomainLog:
		sol.xmin = math.Exp(b.Log.Unscale(-1))
		sol.xmax = math.Exp(b.Log.Unscale(1))
	}
}

func finishSolution(ws *Workspace, b Basis, g *grid, pot *potential, theta []float64, iters, evals int, proto *Solution) *Solution {
	sol := &Solution{
		Basis: b,
		// theta lives in workspace arena memory; the Solution outlives the
		// solve, so it gets its own copy.
		Theta:      append([]float64(nil), theta...),
		Iterations: iters,
		FuncEvals:  evals,
		GridUsed:   g.n,
		xmin:       proto.xmin,
		xmax:       proto.xmax,
	}
	dens := pot.density(theta)
	// Samples are ordered by node index (u from +1 down to -1), which is
	// exactly the ordering Interpolate expects. The interpolation's FFT
	// scratch is reused; the returned coefficient vectors are fresh and
	// safe for the Solution to retain.
	sol.coeffs = cheby.InterpolateScratch(dens, ws.fftScratch(2*g.n))
	sol.cdf = trimTail(cheby.Antiderivative(sol.coeffs))
	sol.coeffs = trimTail(sol.coeffs)
	sol.norm = cheby.Eval(sol.cdf, 1)
	if sol.norm <= 0 || math.IsNaN(sol.norm) {
		sol.norm = 1
	}
	return sol
}

// trimTail drops the trailing coefficients of a Chebyshev series that lie
// below half an ulp of its largest one: transform round-off, on which Eval
// would otherwise spend a third or more of every quantile search.
func trimTail(c []float64) []float64 {
	mx := 0.0
	for _, v := range c {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	n := len(c)
	for n > 1 && math.Abs(c[n-1]) <= 0x1p-53*mx {
		n--
	}
	return c[:n]
}

// Quantile returns the phi-quantile of the solved density, mapped back to
// the raw data domain and clamped to [xmin, xmax].
func (s *Solution) Quantile(phi float64) float64 {
	x, _ := s.quantileFrom(phi, -1)
	return x
}

// quantileFrom is Quantile with the root search bracketed to u ∈ [lo, 1]
// for a caller that knows the answer does not lie below lo; it also returns
// the root's u, the next ascending search's lo.
func (s *Solution) quantileFrom(phi, lo float64) (x, u float64) {
	if s.degenerate {
		return s.pointMass, lo
	}
	if !(phi > 0) { // also NaN, which must not poison the caller's bracket
		return s.xmin, lo
	}
	if phi >= 1 {
		return s.xmax, lo
	}
	target := phi * s.norm
	f := func(u float64) float64 { return cheby.Eval(s.cdf, u) - target }
	u, err := rootfind.Brent(f, lo, 1, 1e-12, 200)
	if err != nil {
		// The CDF is monotone by construction (density ≥ 0); a bracket
		// failure can only come from rounding at the endpoints.
		if f(lo) > 0 {
			u = lo
		} else {
			u = 1
		}
	}
	return clamp(s.fromU(u), s.xmin, s.xmax), u
}

// Quantiles evaluates multiple quantiles, reusing the solved density. The
// CDF is monotone, so the fractions are visited in ascending order and each
// root search starts from the previous root rather than the whole of
// [-1, 1]; results are returned in request order.
func (s *Solution) Quantiles(phis []float64) []float64 {
	order := make([]int, len(phis))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(phis[a], phis[b]) })
	out := make([]float64, len(phis))
	lo := -1.0
	for _, i := range order {
		out[i], lo = s.quantileFrom(phis[i], lo)
	}
	return out
}

// CDF returns the estimated fraction of data ≤ x.
func (s *Solution) CDF(x float64) float64 {
	if s.degenerate {
		if x < s.pointMass {
			return 0
		}
		return 1
	}
	u, ok := s.toU(x)
	if !ok {
		if x < s.xmin {
			return 0
		}
		return 1
	}
	return clamp(cheby.Eval(s.cdf, u)/s.norm, 0, 1)
}

// Density returns the estimated probability density at x with respect to
// the raw data domain (chain rule applied for log-primary solutions).
func (s *Solution) Density(x float64) float64 {
	if s.degenerate {
		return 0
	}
	u, ok := s.toU(x)
	if !ok {
		return 0
	}
	du := cheby.Eval(s.coeffs, u) / s.norm
	switch s.Basis.Primary {
	case DomainStd:
		if s.Basis.Std.HalfWidth == 0 {
			return 0
		}
		return du / s.Basis.Std.HalfWidth
	default: // DomainLog: u = (log x - c)/h, so dx = x·h·du
		if x <= 0 || s.Basis.Log.HalfWidth == 0 {
			return 0
		}
		return du / (x * s.Basis.Log.HalfWidth)
	}
}

// Support returns the [xmin, xmax] range of the solution.
func (s *Solution) Support() (float64, float64) { return s.xmin, s.xmax }

func (s *Solution) fromU(u float64) float64 {
	switch s.Basis.Primary {
	case DomainStd:
		return s.Basis.Std.Unscale(u)
	default:
		return math.Exp(s.Basis.Log.Unscale(u))
	}
}

func (s *Solution) toU(x float64) (float64, bool) {
	switch s.Basis.Primary {
	case DomainStd:
		u := s.Basis.Std.Scale(x)
		if u < -1 || u > 1 {
			return clamp(u, -1, 1), u >= -1-1e-12 && u <= 1+1e-12
		}
		return u, true
	default:
		if x <= 0 {
			return -1, false
		}
		u := s.Basis.Log.Scale(math.Log(x))
		if u < -1 || u > 1 {
			return clamp(u, -1, 1), u >= -1-1e-9 && u <= 1+1e-9
		}
		return u, true
	}
}

// PointMass returns a degenerate solution representing a dataset whose
// values are all equal to x.
func PointMass(x float64) *Solution {
	return &Solution{degenerate: true, pointMass: x, xmin: x, xmax: x, norm: 1}
}

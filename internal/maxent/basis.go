// Package maxent solves the maximum-entropy moment problem at the heart of
// moments-sketch quantile estimation (paper §4.2–4.3): given the Chebyshev
// moments recorded by a sketch, find the exponential-family density
//
//	f(u;θ) = exp(Σ_i θ_i·m̃_i(u))
//
// whose moments match, by minimizing the convex potential L(θ) with a damped
// Newton method. The basis functions m̃_i are Chebyshev polynomials on the
// value scale and on the log scale (§4.3.1), which keeps the Hessian
// condition number small; integration uses Clenshaw–Curtis quadrature on a
// Chebyshev–Lobatto grid of N+1 points. Grids are trig-free: rows of the
// integration variable's own family are stride lookups into one cached cosine
// table per grid order, rows of the other family come from the three-term
// recurrence. Each Newton iteration costs N exponentials and O(k·N)
// multiply-adds — the Hessian's same-family blocks are assembled from 2k
// weighted moments via T_i·T_j = ½(T_{i+j} + T_{|i−j|}); only the mixed
// std×log block is formed directly.
package maxent

import (
	"fmt"
	"math"

	"repro/internal/cheby"
	"repro/internal/core"
)

// Domain identifies the integration variable of the solver.
type Domain int

const (
	// DomainStd integrates over u = scaled x.
	DomainStd Domain = iota
	// DomainLog integrates over v = scaled log(x). Used for long-tailed
	// data, where value-domain integration of the log-basis functions would
	// need intractably fine grids.
	DomainLog
)

func (d Domain) String() string {
	if d == DomainLog {
		return "log"
	}
	return "std"
}

// logRangeRatioForLogPrimary is the xmax/xmin ratio beyond which the solver
// integrates in the log domain. At the threshold both cross-domain basis
// families stay smooth enough for modest grids (see DESIGN.md §4).
const logRangeRatioForLogPrimary = 100

// Basis describes the moment constraints handed to the solver: which domain
// is the integration variable, how many Chebyshev terms of each family to
// match, and the standardized moment vectors they are matched against.
type Basis struct {
	Primary Domain
	// K1 is the number of value-domain Chebyshev terms T_1..T_K1.
	K1 int
	// K2 is the number of log-domain Chebyshev terms T_1..T_K2.
	K2 int
	// Std carries the value-domain scaling and Chebyshev moments. Required
	// when K1 > 0 or Primary == DomainStd.
	Std *core.Standardized
	// Log carries the log-domain scaling and Chebyshev moments. Required
	// when K2 > 0 or Primary == DomainLog.
	Log *core.Standardized
}

// Dim returns the number of optimization variables: one normalization term
// plus K1 + K2 moment constraints.
func (b *Basis) Dim() int { return 1 + b.K1 + b.K2 }

// Targets assembles the target moment vector d: d[0] = 1 (normalization),
// then the standard and log Chebyshev moments.
func (b *Basis) Targets() []float64 {
	d := make([]float64, b.Dim())
	b.targetsInto(d)
	return d
}

// targetsInto fills d (len Dim, zeroed) with the target moment vector.
func (b *Basis) targetsInto(d []float64) {
	d[0] = 1
	for i := 1; i <= b.K1; i++ {
		d[i] = b.Std.Cheby[i]
	}
	for j := 1; j <= b.K2; j++ {
		d[b.K1+j] = b.Log.Cheby[j]
	}
}

// grid holds the evaluation grid shared by the objective, the selection
// heuristic, and post-solve quantile extraction.
type grid struct {
	n int       // grid order (n+1 Lobatto points u_p = cos(πp/n), from +1 down to -1)
	w []float64 // Clenshaw–Curtis weights
	// fam[d][m][p] = T_m of domain d's variable at node p, for m = 1..mult·K_d
	// (index 0 is unused: T_0 is the shared ones row b[0]). Orders above K_d
	// are not basis functions; the potential needs them for the product
	// identity behind its Hessian.
	fam [2][][]float64
	b   [][]float64 // basis values: b[i][p] = m̃_i(u_p), i = 0..dim-1
}

// buildGrid evaluates all basis functions on an (n+1)-point Lobatto grid
// with freshly allocated storage (tests and one-off callers).
func buildGrid(b *Basis, n int) *grid {
	return buildGridWS(NewWorkspace(), b, n, 1)
}

// buildGridWS evaluates each family's Chebyshev polynomials up to order
// mult·K on the order-n Lobatto grid (n a power of two), drawing row storage
// from the workspace arena. No row costs a trigonometric call: the primary
// family's T_m(u_p) = cos(mπp/n) is a stride-m walk around the one-period
// cosine table of order n, and the other family's rows follow from its mapped
// nodes v_p by T_{m+1} = 2v·T_m − T_{m−1}.
func buildGridWS(ws *Workspace, b *Basis, n, mult int) *grid {
	g := &grid{n: n, w: cheby.ClenshawCurtisWeights(n), b: ws.rows(b.Dim())}
	ones := ws.floats(n + 1)
	for p := range ones {
		ones[p] = 1
	}
	g.b[0] = ones
	tab, mask := cheby.CosTable(n), 2*n-1
	for d, kd := range [2]int{b.K1, b.K2} {
		if kd == 0 {
			continue
		}
		rows := ws.rows(mult*kd + 1)
		if Domain(d) == b.Primary {
			for m := 1; m < len(rows); m++ {
				rows[m] = ws.floats(n + 1)
				for p := range rows[m] {
					rows[m][p] = tab[(m*p)&mask]
				}
			}
		} else {
			v, prev := ws.crossNodes(b, n), ones
			rows[1] = v
			for m := 2; m < len(rows); m++ {
				rows[m] = ws.floats(n + 1)
				for p, t := range rows[m-1] {
					rows[m][p] = 2*v[p]*t - prev[p]
				}
				prev = rows[m-1]
			}
		}
		g.fam[d] = rows
		copy(g.b[1+d*b.K1:], rows[1:1+kd]) // basis order: ones, std terms, log terms
	}
	return g
}

// crossNodes returns the non-primary family's variable at the order-n
// Lobatto nodes, clamped to [-1,1]: v_p = logScale(log(stdUnscale(u_p)))
// when integrating over the value domain, stdScale(exp(logUnscale(u_p))) when
// integrating over the log domain. This is the only per-node transcendental
// work in a grid build, so the finest map computed for a basis' scalings is
// kept for the rest of the solve and coarser grids read it at a stride — the
// order-n nodes are exactly the even nodes of order 2n.
func (ws *Workspace) crossNodes(b *Basis, n int) []float64 {
	v := ws.floats(n + 1)
	key := crossKey{b.Primary, b.Std, b.Log}
	if fine := len(ws.cross) - 1; ws.crossKey == key && fine >= n && fine%n == 0 {
		for p := range v {
			v[p] = ws.cross[p*(fine/n)]
		}
		return v
	}
	for p, u := range cheby.CachedNodes(n) {
		if b.Primary == DomainLog {
			v[p] = clamp(b.Std.Scale(math.Exp(b.Log.Unscale(u))), -1, 1)
		} else if x := b.Std.Unscale(u); x > 0 {
			v[p] = clamp(b.Log.Scale(math.Log(x)), -1, 1)
		} else {
			// Only reachable by rounding at the lower endpoint of
			// all-positive data; clamp to the log-domain floor.
			v[p] = -1
		}
	}
	ws.cross, ws.crossKey = v, key
	return v
}

// crossKey identifies what a cached cross-domain node map was computed for.
type crossKey struct {
	primary  Domain
	std, log *core.Standardized
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// uniformExpectationsInto writes E_uniform[m̃_i] for each basis row under the
// uniform density ½ on [-1,1] — the reference point of the paper's "favour
// moments closest to uniform" selection heuristic.
func (g *grid) uniformExpectationsInto(out []float64) []float64 {
	for i, row := range g.b {
		s := 0.0
		for p, wp := range g.w {
			s += wp * row[p]
		}
		out[i] = s / 2
	}
	return out
}

// gramEntry returns G_ij = Σ_p w_p·m̃_i·m̃_j, one entry of the Gram matrix of
// the basis rows — the Hessian at the uniform density up to a constant
// factor, used for condition-number screening (§4.3.1).
func (g *grid) gramEntry(i, j int) float64 {
	ri, rj := g.b[i], g.b[j]
	s := 0.0
	for p, wp := range g.w {
		s += wp * ri[p] * rj[p]
	}
	return s
}

func (b *Basis) validate() error {
	if b.K1 < 0 || b.K2 < 0 || b.K1+b.K2 == 0 {
		return fmt.Errorf("maxent: invalid basis K1=%d K2=%d", b.K1, b.K2)
	}
	if (b.K1 > 0 || b.Primary == DomainStd) && b.Std == nil {
		return fmt.Errorf("maxent: basis requires value-domain moments")
	}
	if (b.K2 > 0 || b.Primary == DomainLog) && b.Log == nil {
		return fmt.Errorf("maxent: basis requires log-domain moments")
	}
	if b.K1 > 0 && len(b.Std.Cheby) <= b.K1 {
		return fmt.Errorf("maxent: need %d std Chebyshev moments, have %d", b.K1, len(b.Std.Cheby)-1)
	}
	if b.K2 > 0 && len(b.Log.Cheby) <= b.K2 {
		return fmt.Errorf("maxent: need %d log Chebyshev moments, have %d", b.K2, len(b.Log.Cheby)-1)
	}
	return nil
}

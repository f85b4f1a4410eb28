// Package cheby implements Chebyshev polynomial machinery: evaluation,
// interpolation on the Chebyshev–Lobatto grid, series calculus, quadrature
// weights, and basis conversion between monomials and Chebyshev polynomials.
//
// The maximum-entropy solver works in the Chebyshev basis for conditioning
// (paper §4.3.1): target moments are converted monomial→Chebyshev once, and
// integrals of the exponential-family density are computed with
// Clenshaw–Curtis quadrature on the Lobatto grid.
package cheby

import (
	"math"
	"sync"

	"repro/internal/fft"
)

// EvalT evaluates the single Chebyshev polynomial T_n(x) using the stable
// three-term recurrence inside [-1,1] and the cosh/acosh form outside.
func EvalT(n int, x float64) float64 {
	if n < 0 {
		panic("cheby: negative degree")
	}
	if x >= -1 && x <= 1 {
		// cos(n arccos x) is exact but slow; recurrence is faster and stable
		// on [-1,1].
		switch n {
		case 0:
			return 1
		case 1:
			return x
		}
		tkm, tk := 1.0, x
		for k := 2; k <= n; k++ {
			tkm, tk = tk, 2*x*tk-tkm
		}
		return tk
	}
	// Outside [-1,1] the recurrence overflows gracefully into the analytic
	// continuation; use it anyway (callers only leave the interval by tiny
	// rounding amounts).
	tkm, tk := 1.0, x
	if n == 0 {
		return 1
	}
	for k := 2; k <= n; k++ {
		tkm, tk = tk, 2*x*tk-tkm
	}
	return tk
}

// Eval evaluates the Chebyshev series Σ c[k]·T_k(x) with Clenshaw's
// algorithm.
func Eval(c []float64, x float64) float64 {
	if len(c) == 0 {
		return 0
	}
	b1, b2 := 0.0, 0.0
	for k := len(c) - 1; k >= 1; k-- {
		b1, b2 = 2*x*b1-b2+c[k], b1
	}
	return x*b1 - b2 + c[0]
}

// Nodes returns the N+1 Chebyshev–Lobatto points x_p = cos(πp/N) for
// p = 0..N, ordered from +1 down to -1.
func Nodes(n int) []float64 {
	if n == 0 {
		return []float64{0}
	}
	return cosTable(n)[: n+1 : n+1]
}

// cosTable computes tab[m] = cos(mπ/n) for m = 0..2n-1. Only the first
// quadrant is evaluated; the rest is reflected from it, so the table is
// exactly symmetric, its endpoints and midpoint are exact, and the table of
// order n is bit-for-bit the even-index subsequence of the table of order 2n.
func cosTable(n int) []float64 {
	tab := make([]float64, 2*n)
	for m := 0; 2*m <= n; m++ {
		c := math.Cos(math.Pi * float64(m) / float64(n))
		if 2*m == n {
			c = 0
		}
		tab[m], tab[n-m], tab[n+m] = c, -c, -c
		if m > 0 {
			tab[2*n-m] = c
		}
	}
	return tab
}

var cosTableCache sync.Map // int -> []float64

// CosTable returns cos(mπ/n) for m = 0..2n-1 from a process-wide cache: one
// period of the grid angle, so every Chebyshev polynomial on the order-n
// Lobatto grid is a stride lookup, T_i(x_p) = cos(iπp/n) = tab[(i·p) mod 2n],
// with no trigonometric call. The returned slice is shared: callers must
// treat it as read-only.
func CosTable(n int) []float64 {
	if cached, ok := cosTableCache.Load(n); ok {
		return cached.([]float64)
	}
	tab := cosTable(n)
	cosTableCache.Store(n, tab)
	return tab
}

// CachedNodes returns the same points as Nodes as a read-only view of
// CosTable(n). Hot solver loops use this so rebuilding a grid costs no node
// recomputation or allocation.
func CachedNodes(n int) []float64 {
	if n == 0 {
		return Nodes(0)
	}
	return CosTable(n)[: n+1 : n+1]
}

// Interpolate converts samples y[p] = f(x_p) on the Lobatto grid (as from
// Nodes) into Chebyshev coefficients c such that f(x) ≈ Σ c[k]·T_k(x).
// len(y) must be N+1 with N a power of two (or N=0).
//
// Unlike the raw DCT-I, the returned coefficients fold the conventional
// half-weights of c[0] and c[N] in, so Eval can be applied directly.
func Interpolate(y []float64) []float64 {
	return InterpolateScratch(y, nil)
}

// InterpolateScratch is Interpolate reusing a caller-provided FFT scratch
// buffer (len ≥ 2·(len(y)-1); nil allocates). The returned coefficients are
// always freshly allocated and safe to retain.
func InterpolateScratch(y []float64, z []complex128) []float64 {
	c := fft.DCT1Scratch(y, z)
	c[0] /= 2
	if len(c) > 1 {
		c[len(c)-1] /= 2
	}
	return c
}

// IntegralT returns ∫_{-1}^{1} T_k(x) dx: 2/(1-k²) for even k, 0 for odd k.
func IntegralT(k int) float64 {
	if k%2 == 1 {
		return 0
	}
	return 2 / (1 - float64(k)*float64(k))
}

// DefiniteIntegral returns ∫_{-1}^{1} Σ c[k] T_k(x) dx.
func DefiniteIntegral(c []float64) float64 {
	s := 0.0
	for k := 0; k < len(c); k += 2 {
		s += c[k] * IntegralT(k)
	}
	return s
}

// Antiderivative returns the Chebyshev coefficients of
// F(x) = ∫_{-1}^{x} Σ c[k] T_k(t) dt, normalized so F(-1) = 0.
// The result has one more coefficient than the input.
func Antiderivative(c []float64) []float64 {
	n := len(c)
	out := make([]float64, n+1)
	if n == 0 {
		return out
	}
	get := func(k int) float64 {
		if k >= n {
			return 0
		}
		if k == 0 {
			return 2 * c[0] // uniform-formula trick: double c0
		}
		return c[k]
	}
	for k := 1; k <= n; k++ {
		out[k] = (get(k-1) - get(k+1)) / (2 * float64(k))
	}
	// Fix the constant so F(-1)=0: F(-1) = Σ out[k]·(-1)^k.
	s := 0.0
	sign := -1.0
	for k := 1; k <= n; k++ {
		s += out[k] * sign
		sign = -sign
	}
	out[0] = -s
	return out
}

var ccWeightCache sync.Map // int -> []float64

// ClenshawCurtisWeights returns quadrature weights w for the N+1 Lobatto
// nodes such that Σ_p w[p]·f(x_p) ≈ ∫_{-1}^{1} f(x) dx, exact for
// polynomials of degree ≤ N. Results are cached per N.
func ClenshawCurtisWeights(n int) []float64 {
	if cached, ok := ccWeightCache.Load(n); ok {
		return cached.([]float64)
	}
	w := make([]float64, n+1)
	if n == 0 {
		w[0] = 2
		ccWeightCache.Store(n, w)
		return w
	}
	// w_p = (2/N)·Σ''_{k even} J_k·cos(kπp/N), with end terms halved both in
	// k (k=0,N) and in p (p=0,N).
	for p := 0; p <= n; p++ {
		s := 0.0
		for k := 0; k <= n; k += 2 {
			term := IntegralT(k) * math.Cos(float64(k)*math.Pi*float64(p)/float64(n))
			if k == 0 || k == n {
				term /= 2
			}
			s += term
		}
		s *= 2 / float64(n)
		if p == 0 || p == n {
			s /= 2
		}
		w[p] = s
	}
	ccWeightCache.Store(n, w)
	return w
}

var monomialCache sync.Map // int -> [][]float64

// MonomialCoeffs returns the coefficients of T_0..T_n in the monomial basis:
// row i holds t such that T_i(x) = Σ_j t[j]·x^j (len n+1, zero padded).
// Rows are cached and must not be modified by callers.
func MonomialCoeffs(n int) [][]float64 {
	if cached, ok := monomialCache.Load(n); ok {
		return cached.([][]float64)
	}
	rows := make([][]float64, n+1)
	for i := range rows {
		rows[i] = make([]float64, n+1)
	}
	rows[0][0] = 1
	if n >= 1 {
		rows[1][1] = 1
	}
	for i := 2; i <= n; i++ {
		// T_i = 2x·T_{i-1} - T_{i-2}
		for j := 0; j < i; j++ {
			rows[i][j+1] += 2 * rows[i-1][j]
		}
		for j := 0; j <= i-2; j++ {
			rows[i][j] -= rows[i-2][j]
		}
	}
	monomialCache.Store(n, rows)
	return rows
}

// MomentsToChebyshev converts raw power moments m[j] = E[u^j], j = 0..n, of
// a variable supported on [-1,1] into Chebyshev moments
// c[i] = E[T_i(u)] = Σ_j t_{ij}·m[j].
func MomentsToChebyshev(m []float64) []float64 {
	n := len(m) - 1
	if n < 0 {
		return nil
	}
	rows := MonomialCoeffs(n)
	out := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		s := 0.0
		for j := 0; j <= i; j++ {
			if rows[i][j] != 0 {
				s += rows[i][j] * m[j]
			}
		}
		out[i] = s
	}
	return out
}

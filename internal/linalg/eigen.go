package linalg

import (
	"math"
	"sort"
)

// SymEigen computes the eigenvalues (ascending) and, when wantVecs is true,
// the orthonormal eigenvectors of a symmetric matrix. Only the lower
// triangle of a is read. Eigenvalues alone come from Householder
// tridiagonalization followed by implicit QL (symEigenvalues), about a
// third of the work of Jacobi; eigenvectors come from the cyclic Jacobi
// method, whose rotations accumulate them directly.
//
// The returned eigenvector matrix V has eigenvectors as columns:
// A = V diag(λ) Vᵀ.
func SymEigen(a *Dense, wantVecs bool) (eig []float64, vecs *Dense) {
	if a.Rows != a.Cols {
		panic("linalg: SymEigen of non-square matrix")
	}
	n := a.Rows
	if !wantVecs {
		eig = append([]float64(nil), symEigenvalues(a, make([]float64, n*n))...)
		sort.Float64s(eig)
		return eig, nil
	}
	// Work on a symmetrized copy.
	w := NewDense(n, n)
	symmetrize(a, w.Data)
	v := NewDense(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}

	jacobiDiagonalize(w, v)

	eig = make([]float64, n)
	for i := 0; i < n; i++ {
		eig[i] = w.At(i, i)
	}
	// Sort eigenpairs ascending by eigenvalue.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return eig[idx[a]] < eig[idx[b]] })
	sortedEig := make([]float64, n)
	sortedV := NewDense(n, n)
	for newCol, oldCol := range idx {
		sortedEig[newCol] = eig[oldCol]
		for r := 0; r < n; r++ {
			sortedV.Set(r, newCol, v.At(r, oldCol))
		}
	}
	return sortedEig, sortedV
}

// symmetrize copies the lower triangle of the square matrix a into the
// row-major n×n buffer w, mirrored into the upper triangle.
func symmetrize(a *Dense, w []float64) {
	n := a.Rows
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := a.Data[i*n+j]
			w[i*n+j] = v
			w[j*n+i] = v
		}
	}
}

// symEigenvalues returns the (unsorted) eigenvalues of the symmetric matrix
// held in a's lower triangle, computed in the n×n scratch w; the result
// aliases w[:n]. Householder tridiagonalization plus implicit QL answers in
// one pass of O(n³) work with no iteration over the full matrix; in the
// pathological case where QL exceeds its iteration cap (non-finite input),
// the matrix is diagonalized by Jacobi instead.
func symEigenvalues(a *Dense, w []float64) []float64 {
	n := a.Rows
	symmetrize(a, w)
	if n < 2 {
		return w[:n]
	}
	d, e := tridiagonalize(w, n)
	if implicitQL(d, e) {
		return d
	}
	symmetrize(a, w)
	jacobiDiagonalize(&Dense{Rows: n, Cols: n, Data: w}, nil)
	for i := 1; i < n; i++ {
		w[i] = w[i*n+i] // row 0's off-diagonal entries are spent
	}
	return w[:n]
}

// tridiagonalize reduces the symmetric matrix in the lower triangle of the
// row-major n×n buffer w (n ≥ 2) to tridiagonal form by Householder
// reflections (Wilkinson & Reinsch's tred2 without accumulating the
// transform), then packs the result into w's first two rows: d = w[:n] is
// the diagonal and e = w[n:2n] the sub-diagonal, e[i] coupling i and i+1
// and e[n-1] = 0. Step i reads and writes only rows ≤ i below the diagonal,
// so the upper triangle serves as scratch: column i above the diagonal holds
// step i's p = Au/H vector, and once step i is done its sub-diagonal entry
// w[i][i-1] is overwritten with the reduced coupling.
func tridiagonalize(w []float64, n int) (d, e []float64) {
	for i := n - 1; i > 1; i-- {
		l := i - 1
		ri := w[i*n : i*n+i] // row i left of the diagonal
		scale := 0.0
		for _, x := range ri {
			scale += math.Abs(x)
		}
		if scale == 0 {
			continue // already reduced: the coupling w[i][l] is 0
		}
		h := 0.0
		for k := range ri {
			ri[k] /= scale
			h += ri[k] * ri[k]
		}
		f := ri[l]
		g := math.Sqrt(h)
		if f >= 0 {
			g = -g
		}
		coupling := scale * g
		h -= f * g
		ri[l] = f - g // ri is now the Householder vector u
		f = 0
		for j := 0; j <= l; j++ {
			g = 0
			for k := 0; k <= j; k++ {
				g += w[j*n+k] * ri[k]
			}
			for k := j + 1; k <= l; k++ {
				g += w[k*n+j] * ri[k]
			}
			p := g / h
			w[j*n+i] = p
			f += p * ri[j]
		}
		hh := f / (h + h)
		for j := 0; j <= l; j++ {
			f = ri[j]
			g = w[j*n+i] - hh*f
			w[j*n+i] = g
			for k := 0; k <= j; k++ {
				w[j*n+k] -= f*w[k*n+i] + g*ri[k]
			}
		}
		w[i*n+l] = coupling
	}
	// Pack: row 0 above the diagonal and row 1 right of its first entry are
	// scratch by now, and w[1][0] already is e[0].
	for k := 1; k < n; k++ {
		w[k] = w[k*n+k]
	}
	for k := 1; k < n-1; k++ {
		w[n+k] = w[(k+1)*n+k]
	}
	w[2*n-1] = 0
	return w[:n], w[n : 2*n]
}

// maxQLIter caps implicit QL's iterations per eigenvalue, EISPACK's tql1
// bound; well-posed input converges in two or three.
const maxQLIter = 30

// implicitQL overwrites d with the eigenvalues of the symmetric tridiagonal
// matrix with diagonal d and sub-diagonal e (e[len-1] unused), by the QL
// algorithm with implicit Wilkinson shifts (EISPACK tql1, as in Numerical
// Recipes' tqli without eigenvectors). e is destroyed. It reports false
// when some eigenvalue needs more than maxQLIter iterations.
func implicitQL(d, e []float64) bool {
	n := len(d)
	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			// Find the first negligible sub-diagonal entry at or after l.
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m])+dd == dd {
					break
				}
			}
			if m == l {
				break // d[l] has converged
			}
			if iter == maxQLIter {
				return false
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			if g < 0 {
				r = -r
			}
			g = d[m] - d[l] + e[l]/(g+r)
			s, c, p := 1.0, 1.0, 0.0
			i := m - 1
			for ; i >= l; i-- {
				f, b := s*e[i], c*e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					// Underflow: deflate and restart the sweep.
					d[i+1] -= p
					e[m] = 0
					break
				}
				s, c = f/r, g/r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
			}
			if r == 0 && i >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return true
}

// jacobiDiagonalize runs cyclic Jacobi sweeps on the symmetric matrix w
// in place until its off-diagonal mass vanishes, accumulating rotations
// into v when non-nil. On return w's diagonal holds the (unsorted)
// eigenvalues. It works on the flat row-major storage and keeps w exactly
// symmetric: each rotation computes the two affected off-diagonal entries of
// every other row once and mirrors them, updates the 2×2 pivot block in
// closed form, and zeroes the pivot — half the arithmetic of rotating
// columns and rows separately.
func jacobiDiagonalize(w, v *Dense) {
	n := w.Rows
	a := w.Data
	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for _, x := range a[i*n+i+1 : (i+1)*n] {
				off += x * x
			}
		}
		if off < 1e-300 {
			break
		}
		converged := true
		for p := 0; p < n-1; p++ {
			rp := a[p*n : (p+1)*n]
			for q := p + 1; q < n; q++ {
				rq := a[q*n : (q+1)*n]
				apq, app, aqq := rp[q], rp[p], rq[q]
				scale := math.Abs(app) + math.Abs(aqq)
				if math.Abs(apq) <= 1e-17*scale || apq == 0 {
					continue
				}
				converged = false
				// Classic Jacobi rotation.
				tau := (aqq - app) / (2 * apq)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				// Apply J(p,q,θ)ᵀ W J(p,q,θ).
				for k := 0; k < n; k++ {
					if k == p || k == q {
						continue
					}
					wkp, wkq := rp[k], rq[k]
					np, nq := c*wkp-s*wkq, s*wkp+c*wkq
					rp[k], a[k*n+p] = np, np
					rq[k], a[k*n+q] = nq, nq
				}
				rp[p], rq[q] = app-t*apq, aqq+t*apq
				rp[q], rq[p] = 0, 0
				if v != nil {
					vd := v.Data
					for k := 0; k < n; k++ {
						vkp, vkq := vd[k*n+p], vd[k*n+q]
						vd[k*n+p], vd[k*n+q] = c*vkp-s*vkq, s*vkp+c*vkq
					}
				}
			}
		}
		if converged {
			break
		}
	}
}

// Cond2SymWork is Cond2Sym evaluated in caller-provided scratch: work must
// be an n×n matrix (its contents are overwritten), so condition screening
// loops — basis selection probes one candidate moment at a time — run
// without per-probe allocation. Like Cond2Sym it computes eigenvalues only,
// by tridiagonalization and implicit QL.
func Cond2SymWork(a, work *Dense) float64 {
	if a.Rows != a.Cols {
		panic("linalg: Cond2SymWork of non-square matrix")
	}
	n := a.Rows
	if work.Rows != n || work.Cols != n {
		panic("linalg: Cond2SymWork scratch dimension mismatch")
	}
	if n == 0 {
		return 1
	}
	return condOf(symEigenvalues(a, work.Data))
}

// Cond2Sym returns the 2-norm condition number |λ|max/|λ|min of a symmetric
// matrix from its eigenvalues alone (tridiagonalization and implicit QL).
// It returns +Inf when the smallest eigenvalue magnitude underflows.
func Cond2Sym(a *Dense) float64 {
	if a.Rows != a.Cols {
		panic("linalg: Cond2Sym of non-square matrix")
	}
	if a.Rows == 0 {
		return 1
	}
	return condOf(symEigenvalues(a, make([]float64, a.Rows*a.Rows)))
}

// condOf returns |λ|max/|λ|min over eig, +Inf when the smallest is 0.
func condOf(eig []float64) float64 {
	mn, mx := math.Inf(1), 0.0
	for _, l := range eig {
		al := math.Abs(l)
		if al < mn {
			mn = al
		}
		if al > mx {
			mx = al
		}
	}
	if mn == 0 {
		return math.Inf(1)
	}
	return mx / mn
}

// PseudoInverseSym returns the Moore-Penrose pseudo-inverse of a symmetric
// matrix, dropping eigenvalues below rcond*|λ|max. Used to project onto
// affine moment-constraint sets in the discretized lesion estimators.
func PseudoInverseSym(a *Dense, rcond float64) *Dense {
	eig, v := SymEigen(a, true)
	n := a.Rows
	mx := 0.0
	for _, l := range eig {
		if al := math.Abs(l); al > mx {
			mx = al
		}
	}
	cut := rcond * mx
	out := NewDense(n, n)
	for k := 0; k < n; k++ {
		if math.Abs(eig[k]) <= cut {
			continue
		}
		inv := 1 / eig[k]
		for i := 0; i < n; i++ {
			vik := v.At(i, k)
			if vik == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out.Data[i*n+j] += inv * vik * v.At(j, k)
			}
		}
	}
	return out
}

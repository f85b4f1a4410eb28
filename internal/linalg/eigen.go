package linalg

import (
	"math"
	"sort"
)

// SymEigen computes the eigenvalues (ascending) and, when wantVecs is true,
// the orthonormal eigenvectors of a symmetric matrix using the cyclic Jacobi
// method. Only the lower triangle of a is read. Jacobi is chosen for its
// robustness and the high relative accuracy of small eigenvalues — exactly
// what condition-number estimation needs.
//
// The returned eigenvector matrix V has eigenvectors as columns:
// A = V diag(λ) Vᵀ.
func SymEigen(a *Dense, wantVecs bool) (eig []float64, vecs *Dense) {
	if a.Rows != a.Cols {
		panic("linalg: SymEigen of non-square matrix")
	}
	n := a.Rows
	// Work on a symmetrized copy.
	w := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := a.At(i, j)
			w.Set(i, j, v)
			w.Set(j, i, v)
		}
	}
	var v *Dense
	if wantVecs {
		v = NewDense(n, n)
		for i := 0; i < n; i++ {
			v.Set(i, i, 1)
		}
	}

	jacobiDiagonalize(w, v)

	eig = make([]float64, n)
	for i := 0; i < n; i++ {
		eig[i] = w.At(i, i)
	}
	if !wantVecs {
		sort.Float64s(eig)
		return eig, nil
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
// without per-probe allocation.
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
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := a.At(i, j)
			work.Set(i, j, v)
			work.Set(j, i, v)
		}
	}
	jacobiDiagonalize(work, nil)
	mn, mx := math.Inf(1), 0.0
	for i := 0; i < n; i++ {
		al := math.Abs(work.At(i, i))
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

// Cond2Sym returns the 2-norm condition number |λ|max/|λ|min of a symmetric
// matrix. It returns +Inf when the smallest eigenvalue magnitude underflows.
func Cond2Sym(a *Dense) float64 {
	eig, _ := SymEigen(a, false)
	if len(eig) == 0 {
		return 1
	}
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

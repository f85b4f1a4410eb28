package linalg

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// spdWithCond returns Q diag(λ) Qᵀ for a random orthogonal Q (a product of n
// random Householder reflections) and eigenvalues λ log-spaced from 1 to
// kappa with random interior spacing, so the matrix's 2-norm condition
// number is kappa up to rounding.
func spdWithCond(rng *rand.Rand, n int, kappa float64) *Dense {
	lam := make([]float64, n)
	for i := range lam {
		switch {
		case i == 0:
			lam[i] = 1
		case i == n-1:
			lam[i] = kappa
		default:
			lam[i] = math.Pow(kappa, rng.Float64())
		}
	}
	a := NewDense(n, n)
	for i := range lam {
		a.Set(i, i, lam[i])
	}
	v := make([]float64, n)
	for r := 0; r < n; r++ {
		// a ← (I - 2vvᵀ) a (I - 2vvᵀ) with ‖v‖ = 1.
		norm := 0.0
		for i := range v {
			v[i] = rng.NormFloat64()
			norm += v[i] * v[i]
		}
		norm = math.Sqrt(norm)
		for i := range v {
			v[i] /= norm
		}
		av := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				av[i] += a.At(i, j) * v[j]
			}
		}
		vav := 0.0
		for i := range v {
			vav += v[i] * av[i]
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Data[i*n+j] += -2*v[i]*av[j] - 2*av[i]*v[j] + 4*vav*v[i]*v[j]
			}
		}
	}
	// Exact symmetry, so both solvers see the same lower triangle.
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			a.Set(j, i, a.At(i, j))
		}
	}
	return a
}

// jacobiEigenvalues is the reference the QL path replaced: cyclic Jacobi on
// a symmetrized copy, eigenvalues sorted ascending.
func jacobiEigenvalues(a *Dense) []float64 {
	n := a.Rows
	w := NewDense(n, n)
	symmetrize(a, w.Data)
	jacobiDiagonalize(w, nil)
	eig := make([]float64, n)
	for i := range eig {
		eig[i] = w.At(i, i)
	}
	sort.Float64s(eig)
	return eig
}

// TestCond2SymMatchesJacobi: the eigenvalues-only condition screen agrees
// with cyclic Jacobi on random SPD matrices of order 1–21 with κ up to 1e8
// — to 1e-9 relative for κ ≤ 1e6 — and never disagrees with it about
// κ > 1e4, the basis-selection screen's default κmax.
func TestCond2SymMatchesJacobi(t *testing.T) {
	const kappaMax = 1e4
	rng := rand.New(rand.NewPCG(43, 7))
	worst := 0.0
	for trial := 0; trial < 3000; trial++ {
		n := 1 + trial%21
		kappa := math.Pow(10, 8*rng.Float64())
		if trial%10 == 0 {
			// Probe the screen's threshold closely.
			kappa = kappaMax * (1 + 0.01*(rng.Float64()-0.5))
		}
		a := spdWithCond(rng, n, kappa)
		ref := condOf(jacobiEigenvalues(a))
		work := NewDense(n, n)
		got := Cond2SymWork(a, work)
		if c := Cond2Sym(a); c != got {
			t.Fatalf("n=%d κ=%g: Cond2Sym = %v, Cond2SymWork = %v", n, kappa, c, got)
		}
		rel := math.Abs(got-ref) / ref
		if kappa <= 1e6 {
			worst = max(worst, rel)
			if rel > 1e-9 {
				t.Errorf("n=%d κ=%g: QL cond %v vs Jacobi %v (rel diff %.3g)", n, kappa, got, ref, rel)
			}
		} else if rel > 1e-6 {
			t.Errorf("n=%d κ=%g: QL cond %v vs Jacobi %v (rel diff %.3g)", n, kappa, got, ref, rel)
		}
		if (got > kappaMax) != (ref > kappaMax) {
			t.Errorf("n=%d κ=%g: screen flips at κmax: QL %v, Jacobi %v", n, kappa, got, ref)
		}
	}
	t.Logf("worst relative difference for κ ≤ 1e6: %.3g", worst)
}

// TestSymEigenvaluesMatchJacobi: every eigenvalue of the QL path, not only
// the extreme two, matches Jacobi's on symmetric matrices that are neither
// definite nor graded, including ones with repeated eigenvalues and a zero
// block.
func TestSymEigenvaluesMatchJacobi(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 11))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.IntN(21)
		a := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				v := rng.NormFloat64()
				switch trial % 4 {
				case 1: // repeated eigenvalues: a rank-one update of 2I
					v = 0
					if i == j {
						v = 2
					}
				case 2: // a zero leading block
					if i < n/2 {
						v = 0
					}
				}
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		if trial%4 == 1 {
			u := make([]float64, n)
			for i := range u {
				u[i] = rng.NormFloat64()
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					a.Data[i*n+j] += u[i] * u[j]
				}
			}
		}
		want := jacobiEigenvalues(a)
		got, _ := SymEigen(a, false)
		scale := math.Max(math.Abs(want[0]), math.Abs(want[n-1]))
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12*(1+scale) {
				t.Fatalf("trial %d n=%d: eigenvalue %d = %v, Jacobi %v", trial, n, i, got[i], want[i])
			}
		}
	}
}

// TestCond2SymNonFinite: a NaN entry never hangs or panics the screen.
func TestCond2SymNonFinite(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, math.NaN(), 0}, {math.NaN(), 2, 0}, {0, 0, 3}})
	_ = Cond2Sym(a)
	b := NewDenseFrom([][]float64{{math.Inf(1), 1}, {1, 2}})
	_ = Cond2Sym(b)
}

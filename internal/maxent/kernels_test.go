package maxent

import (
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/linalg"
)

// kernelOrder is the highest sketch order the kernels are checked at.
const kernelOrder = 15

// kernelBasis returns a basis with k terms in each family over positive
// data (so both scalings exist), integrating over the given domain.
func kernelBasis(t *testing.T, primary Domain, k1, k2 int) Basis {
	t.Helper()
	rng := rand.New(rand.NewPCG(21, 22))
	sk := core.New(kernelOrder)
	for i := 0; i < 5000; i++ {
		sk.Add(math.Exp(rng.NormFloat64()*0.7) + 0.05)
	}
	std, err := sk.Standardize(kernelOrder)
	if err != nil {
		t.Fatal(err)
	}
	logStd, err := sk.StandardizeLog(kernelOrder)
	if err != nil {
		t.Fatal(err)
	}
	return Basis{Primary: primary, K1: k1, K2: k2, Std: std, Log: logStd}
}

// TestGridRowsMatchTrigFormulas: the table-lookup rows of the primary family
// and the recurrence rows of the cross-domain family equal the cos / cos∘acos
// definitions they replaced, at every grid order the solver uses, up to the
// highest sketch order, for both integration domains — clamped endpoints
// v = ±1 included.
func TestGridRowsMatchTrigFormulas(t *testing.T) {
	const tol = 1e-13
	for _, primary := range []Domain{DomainStd, DomainLog} {
		b := kernelBasis(t, primary, kernelOrder, kernelOrder)
		for n := 64; n <= 1024; n *= 2 {
			g := buildGrid(&b, n)
			cross := 1 - int(primary)
			v := g.fam[cross][1]
			if math.Abs(v[0]-1) > 1e-12 || math.Abs(v[n]+1) > 1e-12 || v[0] > 1 || v[n] < -1 {
				t.Fatalf("%s n=%d: mapped endpoints %v, %v, want ±1 clamped into [-1,1]", primary, n, v[0], v[n])
			}
			for m := 1; m <= kernelOrder; m++ {
				for p := 0; p <= n; p++ {
					want := math.Cos(float64(m) * math.Pi * float64(p) / float64(n))
					if got := g.fam[primary][m][p]; math.Abs(got-want) > tol {
						t.Fatalf("%s n=%d: primary T_%d at node %d = %v, want %v", primary, n, m, p, got, want)
					}
					want = math.Cos(float64(m) * math.Acos(v[p]))
					if got := g.fam[cross][m][p]; math.Abs(got-want) > tol {
						t.Fatalf("%s n=%d: cross T_%d at node %d (v=%v) = %v, want %v", primary, n, m, p, v[p], got, want)
					}
				}
			}
		}
	}
}

// TestCoarseGridIsEvenStrideOfFine: within one solve the order-n grid is the
// even-stride view of the order-2n grid built before it, bit for bit — the
// cross-domain nodes are mapped once, at the finer order.
func TestCoarseGridIsEvenStrideOfFine(t *testing.T) {
	for _, primary := range []Domain{DomainStd, DomainLog} {
		b := kernelBasis(t, primary, 7, 5)
		ws := NewWorkspace()
		fine := buildGridWS(ws, &b, 256, 1)
		mapped := ws.cross
		coarse := buildGridWS(ws, &b, 128, 2)
		if &ws.cross[0] != &mapped[0] {
			t.Fatalf("%s: the coarse build re-mapped the cross-domain nodes", primary)
		}
		for i, row := range coarse.b {
			for p, got := range row {
				if want := fine.b[i][2*p]; got != want {
					t.Fatalf("%s: row %d node %d = %v, fine grid has %v", primary, i, p, got, want)
				}
			}
		}
	}
}

// TestFusedGradientHessianMatchDirectLoops checks the potential's gradient
// and Hessian — weighted moments plus the T_i·T_j product identity — against
// the straightforward O(k²·N) quadrature loops they replaced.
func TestFusedGradientHessianMatchDirectLoops(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for _, tc := range []struct {
		primary Domain
		k1, k2  int
	}{
		{DomainStd, 10, 0}, {DomainStd, 6, 4}, {DomainLog, 6, 4}, {DomainLog, 0, 9}, {DomainLog, 10, 3}, {DomainStd, 1, 1},
	} {
		b := kernelBasis(t, tc.primary, tc.k1, tc.k2)
		ws := NewWorkspace()
		g := buildGridWS(ws, &b, 128, 2)
		dim := b.Dim()
		pot := newPotential(g, &b, b.Targets(), ws)
		for trial := 0; trial < 5; trial++ {
			theta := make([]float64, dim)
			for i := range theta {
				theta[i] = rng.NormFloat64() / float64(1+i)
			}
			grad := make([]float64, dim)
			hess := linalg.NewDense(dim, dim)
			pot.Gradient(theta, grad)
			pot.Hessian(theta, hess)

			dens := make([]float64, g.n+1)
			for p := range dens {
				s := 0.0
				for i, th := range theta {
					s += th * g.b[i][p]
				}
				dens[p] = math.Exp(s)
			}
			scale := 0.0
			wantH := linalg.NewDense(dim, dim)
			wantG := make([]float64, dim)
			for i := 0; i < dim; i++ {
				for p, w := range g.w {
					wantG[i] += w * dens[p] * g.b[i][p]
				}
				scale = math.Max(scale, math.Abs(wantG[i]))
				wantG[i] -= pot.d[i]
				for j := 0; j < dim; j++ {
					s := 0.0
					for p, w := range g.w {
						s += w * dens[p] * g.b[i][p] * g.b[j][p]
					}
					wantH.Set(i, j, s)
				}
			}
			for i := 0; i < dim; i++ {
				if d := math.Abs(grad[i] - wantG[i]); d > 1e-12*scale {
					t.Errorf("%s K=(%d,%d): grad[%d] = %v, want %v", tc.primary, tc.k1, tc.k2, i, grad[i], wantG[i])
				}
				for j := 0; j < dim; j++ {
					if d := math.Abs(hess.At(i, j) - wantH.At(i, j)); d > 1e-12*scale {
						t.Errorf("%s K=(%d,%d): H[%d][%d] = %v, want %v", tc.primary, tc.k1, tc.k2, i, j, hess.At(i, j), wantH.At(i, j))
					}
				}
			}
		}
	}
}

// TestQuantilesMatchesQuantile: the ascending sweep returns, in request
// order, what independent full-bracket searches return.
func TestQuantilesMatchesQuantile(t *testing.T) {
	sol, err := SolveSketch(benchSketch(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	phis := []float64{0.99, 0, 0.5, 0.5, 1, 0.001, 0.9, 0.25}
	got := sol.Quantiles(phis)
	lo, hi := sol.Support()
	for i, phi := range phis {
		if want := sol.Quantile(phi); math.Abs(got[i]-want) > 1e-9*(hi-lo) {
			t.Errorf("Quantiles[%d] (phi=%v) = %v, Quantile = %v", i, phi, got[i], want)
		}
	}
	if pm := PointMass(3); pm.Quantiles([]float64{0.9, 0.1})[1] != 3 {
		t.Error("point mass quantiles must all equal the mass")
	}
}

// TestWorkspacePoolSurvivesGC: the free list behind SolveSketch keeps its
// warm workspaces across garbage collections (a sync.Pool would hand back a
// cold one and the solve would re-grow its arena), and never retains more
// than its capacity.
func TestWorkspacePoolSurvivesGC(t *testing.T) {
	p := &workspacePool{free: make(chan *Workspace, 2)}
	ws := p.Get()
	if _, err := ws.SolveSketch(benchSketch(), Options{}); err != nil {
		t.Fatal(err)
	}
	ws.reset() // sizes the arena to the solve it has just seen
	arena := len(ws.f)
	if arena == 0 {
		t.Fatal("a solved workspace has no arena")
	}
	p.Put(ws)
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	if got := p.Get(); got != ws || len(got.f) != arena {
		t.Fatalf("after three collections the list returned %p (arena %d), want the warm %p (arena %d)", got, len(got.f), ws, arena)
	}
	for i := 0; i < 5; i++ {
		p.Put(NewWorkspace())
	}
	if len(p.free) != cap(p.free) {
		t.Fatalf("list holds %d workspaces, capacity %d", len(p.free), cap(p.free))
	}
}

package optimize

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/linalg"
)

// quadratic is ½xᵀAx - bᵀx with SPD A; minimum at A⁻¹b.
type quadratic struct {
	a *linalg.Dense
	b []float64
}

func (q *quadratic) Dim() int { return len(q.b) }

func (q *quadratic) Value(x []float64) float64 {
	ax := q.a.MulVec(x, nil)
	return 0.5*linalg.Dot(x, ax) - linalg.Dot(q.b, x)
}

func (q *quadratic) Gradient(x, grad []float64) {
	q.a.MulVec(x, grad)
	for i := range grad {
		grad[i] -= q.b[i]
	}
}

func (q *quadratic) Hessian(x []float64, h *linalg.Dense) {
	copy(h.Data, q.a.Data)
}

// rosenbrock is the classic non-quadratic test function (n=2).
type rosenbrock struct{}

func (rosenbrock) Dim() int { return 2 }
func (rosenbrock) Value(x []float64) float64 {
	a := 1 - x[0]
	b := x[1] - x[0]*x[0]
	return a*a + 100*b*b
}
func (rosenbrock) Gradient(x, g []float64) {
	b := x[1] - x[0]*x[0]
	g[0] = -2*(1-x[0]) - 400*x[0]*b
	g[1] = 200 * b
}
func (rosenbrock) Hessian(x []float64, h *linalg.Dense) {
	h.Set(0, 0, 2-400*(x[1]-3*x[0]*x[0]))
	h.Set(0, 1, -400*x[0])
	h.Set(1, 0, -400*x[0])
	h.Set(1, 1, 200)
}

// expSum is a strictly convex smooth function resembling the maxent
// potential: Σ exp(aᵢᵀx) - bᵀx.
type expSum struct {
	rows [][]float64
	b    []float64
}

func (e *expSum) Dim() int { return len(e.b) }
func (e *expSum) Value(x []float64) float64 {
	s := -linalg.Dot(e.b, x)
	for _, r := range e.rows {
		s += math.Exp(linalg.Dot(r, x))
	}
	return s
}
func (e *expSum) Gradient(x, g []float64) {
	for i := range g {
		g[i] = -e.b[i]
	}
	for _, r := range e.rows {
		w := math.Exp(linalg.Dot(r, x))
		linalg.AXPY(w, r, g)
	}
}
func (e *expSum) Hessian(x []float64, h *linalg.Dense) {
	n := e.Dim()
	for i := range h.Data {
		h.Data[i] = 0
	}
	for _, r := range e.rows {
		w := math.Exp(linalg.Dot(r, x))
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				h.Data[i*n+j] += w * r[i] * r[j]
			}
		}
	}
}

func newQuadratic(rng *rand.Rand, n int) *quadratic {
	m := linalg.NewDense(n, n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	a := linalg.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += m.At(k, i) * m.At(k, j)
			}
			if i == j {
				s += 0.5
			}
			a.Set(i, j, s)
		}
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return &quadratic{a: a, b: b}
}

func TestNewtonQuadraticOneStep(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	q := newQuadratic(rng, 6)
	res, err := Newton(q, make([]float64, 6), NewtonOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("Newton did not converge: %+v", res)
	}
	// Quadratic should converge in ~1 iteration.
	if res.Iterations > 3 {
		t.Errorf("Newton took %d iterations on a quadratic", res.Iterations)
	}
	want, err := linalg.Solve(q.a, q.b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(res.X[i]-want[i]) > 1e-7 {
			t.Errorf("x[%d] = %v, want %v", i, res.X[i], want[i])
		}
	}
}

func TestNewtonRosenbrock(t *testing.T) {
	res, err := Newton(rosenbrock{}, []float64{-1.2, 1}, NewtonOptions{MaxIter: 500})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if math.Abs(res.X[0]-1) > 1e-6 || math.Abs(res.X[1]-1) > 1e-6 {
		t.Errorf("minimum = %v, want (1,1)", res.X)
	}
}

func TestNewtonExpSum(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	n := 5
	rows := make([][]float64, 12)
	for i := range rows {
		rows[i] = make([]float64, n)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64() * 0.5
		}
	}
	// Make the target gradient achievable: b = Σ w_i a_i with w_i > 0.
	b := make([]float64, n)
	for _, r := range rows {
		w := 0.1 + rng.Float64()
		linalg.AXPY(w, r, b)
	}
	res, err := Newton(&expSum{rows: rows, b: b}, make([]float64, n), NewtonOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("expSum did not converge: %+v", res)
	}
}

func TestLBFGSQuadratic(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	q := newQuadratic(rng, 8)
	res, err := LBFGS(q, make([]float64, 8), LBFGSOptions{GradTol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("LBFGS did not converge: %+v", res)
	}
	want, _ := linalg.Solve(q.a, q.b)
	for i := range want {
		if math.Abs(res.X[i]-want[i]) > 1e-5 {
			t.Errorf("x[%d] = %v, want %v", i, res.X[i], want[i])
		}
	}
}

func TestLBFGSRosenbrock(t *testing.T) {
	res, err := LBFGS(rosenbrock{}, []float64{-1.2, 1}, LBFGSOptions{MaxIter: 2000, GradTol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if math.Abs(res.X[0]-1) > 1e-4 || math.Abs(res.X[1]-1) > 1e-4 {
		t.Errorf("minimum = %v, want (1,1)", res.X)
	}
}

func TestGradientDescentQuadratic(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	q := newQuadratic(rng, 4)
	res, err := GradientDescent(q, make([]float64, 4), 1e-6, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("GD did not converge: %+v", res)
	}
}

// Newton should be dramatically cheaper than GD on ill-conditioned problems
// — the paper's argument for second-order solving.
func TestNewtonBeatsGDOnIllConditioned(t *testing.T) {
	a := linalg.NewDenseFrom([][]float64{{1000, 0}, {0, 0.01}})
	q := &quadratic{a: a, b: []float64{1, 1}}
	nres, err := Newton(q, []float64{5, 5}, NewtonOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gres, _ := GradientDescent(q, []float64{5, 5}, 1e-9, 100)
	if !nres.Converged {
		t.Fatal("Newton failed on ill-conditioned quadratic")
	}
	if gres.Converged && gres.Iterations <= nres.Iterations {
		t.Errorf("GD unexpectedly as fast as Newton: %d vs %d", gres.Iterations, nres.Iterations)
	}
}

func TestLineSearchFailureSurfaces(t *testing.T) {
	// An objective whose "gradient" lies: line search must fail cleanly.
	bad := &liar{}
	_, err := Newton(bad, []float64{1}, NewtonOptions{MaxIter: 5})
	if err == nil {
		t.Error("expected line-search error from inconsistent gradient")
	}
}

type liar struct{}

func (liar) Dim() int                  { return 1 }
func (liar) Value(x []float64) float64 { return math.Abs(x[0]) + 1 }
func (liar) Gradient(x, g []float64)   { g[0] = 1e9 } // wrong on purpose
func (liar) Hessian(x []float64, h *linalg.Dense) {
	h.Set(0, 0, 1)
}

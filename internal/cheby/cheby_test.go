package cheby

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestEvalTKnown(t *testing.T) {
	cases := []struct {
		n    int
		x    float64
		want float64
	}{
		{0, 0.3, 1},
		{1, 0.3, 0.3},
		{2, 0.5, 2*0.25 - 1},      // 2x²-1
		{3, 0.5, 4*0.125 - 3*0.5}, // 4x³-3x
		{4, -1, 1},                // T_n(-1) = (-1)^n
		{5, -1, -1},
		{7, 1, 1}, // T_n(1) = 1
	}
	for _, c := range cases {
		if got := EvalT(c.n, c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("T_%d(%v) = %v, want %v", c.n, c.x, got, c.want)
		}
	}
}

func TestEvalTMatchesCosine(t *testing.T) {
	for n := 0; n <= 20; n++ {
		for _, x := range []float64{-1, -0.7, -0.1, 0, 0.33, 0.99, 1} {
			want := math.Cos(float64(n) * math.Acos(x))
			if got := EvalT(n, x); math.Abs(got-want) > 1e-9 {
				t.Errorf("T_%d(%v) = %v, want %v", n, x, got, want)
			}
		}
	}
}

func TestEvalClenshaw(t *testing.T) {
	// f = 1 + 2 T_1 + 3 T_2.
	c := []float64{1, 2, 3}
	for _, x := range []float64{-1, -0.5, 0, 0.5, 1} {
		want := 1 + 2*x + 3*(2*x*x-1)
		if got := Eval(c, x); math.Abs(got-want) > 1e-12 {
			t.Errorf("Eval(%v) = %v, want %v", x, got, want)
		}
	}
	if Eval(nil, 0.5) != 0 {
		t.Error("Eval(nil) != 0")
	}
	if Eval([]float64{7}, 0.1) != 7 {
		t.Error("constant series")
	}
}

func TestNodes(t *testing.T) {
	pts := Nodes(4)
	if pts[0] != 1 || pts[4] != -1 || pts[2] != 0 {
		t.Errorf("Nodes(4) = %v", pts)
	}
	if math.Abs(pts[1]-math.Sqrt2/2) > 1e-15 {
		t.Errorf("Nodes(4)[1] = %v, want √2/2", pts[1])
	}
}

func TestInterpolateRoundTrip(t *testing.T) {
	// Interpolating exp(x) on 32+1 points should reproduce it everywhere.
	n := 32
	pts := Nodes(n)
	y := make([]float64, n+1)
	for p, x := range pts {
		y[p] = math.Exp(x)
	}
	c := Interpolate(y)
	for _, x := range []float64{-0.99, -0.3, 0.123, 0.87} {
		if got := Eval(c, x); math.Abs(got-math.Exp(x)) > 1e-12 {
			t.Errorf("interp exp(%v) = %v, want %v", x, got, math.Exp(x))
		}
	}
}

func TestInterpolateExactPolynomial(t *testing.T) {
	// Degree-3 polynomial on N=4 grid is recovered exactly.
	f := func(x float64) float64 { return 1 - x + 2*x*x*x }
	n := 4
	pts := Nodes(n)
	y := make([]float64, n+1)
	for p, x := range pts {
		y[p] = f(x)
	}
	c := Interpolate(y)
	for _, x := range []float64{-0.8, 0.1, 0.6} {
		if got := Eval(c, x); math.Abs(got-f(x)) > 1e-12 {
			t.Errorf("poly interp (%v) = %v, want %v", x, got, f(x))
		}
	}
}

func TestIntegralT(t *testing.T) {
	if IntegralT(0) != 2 {
		t.Errorf("∫T_0 = %v, want 2", IntegralT(0))
	}
	if IntegralT(1) != 0 || IntegralT(3) != 0 {
		t.Error("odd T integrals must vanish")
	}
	if math.Abs(IntegralT(2)-(-2.0/3.0)) > 1e-15 {
		t.Errorf("∫T_2 = %v, want -2/3", IntegralT(2))
	}
}

func TestDefiniteIntegral(t *testing.T) {
	// ∫_{-1}^{1} exp(x) dx = e - 1/e.
	n := 64
	pts := Nodes(n)
	y := make([]float64, n+1)
	for p, x := range pts {
		y[p] = math.Exp(x)
	}
	c := Interpolate(y)
	want := math.E - 1/math.E
	if got := DefiniteIntegral(c); math.Abs(got-want) > 1e-12 {
		t.Errorf("∫exp = %v, want %v", got, want)
	}
}

func TestAntiderivative(t *testing.T) {
	// F(x) = ∫_{-1}^{x} exp = exp(x) - exp(-1).
	n := 64
	pts := Nodes(n)
	y := make([]float64, n+1)
	for p, x := range pts {
		y[p] = math.Exp(x)
	}
	c := Interpolate(y)
	F := Antiderivative(c)
	if got := Eval(F, -1); math.Abs(got) > 1e-12 {
		t.Errorf("F(-1) = %v, want 0", got)
	}
	for _, x := range []float64{-0.9, -0.2, 0.4, 1} {
		want := math.Exp(x) - math.Exp(-1)
		if got := Eval(F, x); math.Abs(got-want) > 1e-11 {
			t.Errorf("F(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestAntiderivativeEmpty(t *testing.T) {
	F := Antiderivative(nil)
	if len(F) != 1 || F[0] != 0 {
		t.Errorf("Antiderivative(nil) = %v", F)
	}
}

func TestClenshawCurtisWeightsSumToTwo(t *testing.T) {
	for _, n := range []int{0, 2, 4, 8, 64, 256} {
		w := ClenshawCurtisWeights(n)
		s := 0.0
		for _, v := range w {
			s += v
		}
		if math.Abs(s-2) > 1e-12 {
			t.Errorf("N=%d: Σw = %v, want 2", n, s)
		}
		for _, v := range w {
			if v <= 0 {
				t.Errorf("N=%d: non-positive CC weight %v", n, v)
			}
		}
	}
}

func TestClenshawCurtisExactOnPolynomials(t *testing.T) {
	n := 16
	w := ClenshawCurtisWeights(n)
	pts := Nodes(n)
	// ∫ x^d over [-1,1] = 2/(d+1) for even d, 0 for odd.
	for d := 0; d <= n; d++ {
		got := 0.0
		for p, x := range pts {
			got += w[p] * math.Pow(x, float64(d))
		}
		want := 0.0
		if d%2 == 0 {
			want = 2 / float64(d+1)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("∫x^%d = %v, want %v", d, got, want)
		}
	}
}

func TestClenshawCurtisConvergesOnSmooth(t *testing.T) {
	// ∫_{-1}^{1} 1/(2+x) dx = ln(3).
	n := 64
	w := ClenshawCurtisWeights(n)
	pts := Nodes(n)
	got := 0.0
	for p, x := range pts {
		got += w[p] / (2 + x)
	}
	if math.Abs(got-math.Log(3)) > 1e-12 {
		t.Errorf("∫1/(2+x) = %v, want %v", got, math.Log(3))
	}
}

func TestMonomialCoeffs(t *testing.T) {
	rows := MonomialCoeffs(4)
	// T_2 = 2x² - 1
	if rows[2][0] != -1 || rows[2][1] != 0 || rows[2][2] != 2 {
		t.Errorf("T_2 coeffs = %v", rows[2])
	}
	// T_4 = 8x⁴ - 8x² + 1
	if rows[4][4] != 8 || rows[4][2] != -8 || rows[4][0] != 1 {
		t.Errorf("T_4 coeffs = %v", rows[4])
	}
}

func TestMomentsToChebyshev(t *testing.T) {
	// For a point mass at u: m[j] = u^j and c[i] should equal T_i(u).
	u := 0.37
	m := make([]float64, 9)
	for j := range m {
		m[j] = math.Pow(u, float64(j))
	}
	c := MomentsToChebyshev(m)
	for i := range c {
		if want := EvalT(i, u); math.Abs(c[i]-want) > 1e-12 {
			t.Errorf("c[%d] = %v, want T_%d(%v) = %v", i, c[i], i, u, want)
		}
	}
	if MomentsToChebyshev(nil) != nil {
		t.Error("MomentsToChebyshev(nil) != nil")
	}
}

// Property: Clenshaw evaluation agrees with termwise evaluation for random
// series.
func TestEvalMatchesTermwiseQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		n := 1 + int(seed%12)
		c := make([]float64, n)
		for i := range c {
			c[i] = rng.NormFloat64()
		}
		x := 2*rng.Float64() - 1
		want := 0.0
		for k, ck := range c {
			want += ck * EvalT(k, x)
		}
		return math.Abs(Eval(c, x)-want) < 1e-9*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the derivative relationship — DefiniteIntegral equals
// Antiderivative evaluated at 1.
func TestIntegralConsistencyQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 123))
		n := 1 + int(seed%10)
		c := make([]float64, n)
		for i := range c {
			c[i] = rng.NormFloat64()
		}
		F := Antiderivative(c)
		return math.Abs(DefiniteIntegral(c)-Eval(F, 1)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestCosTable: the one-period table matches cos(mπ/n) to the last bits, is
// exactly symmetric with exact 0/±1 entries, nests (order n is the even
// entries of order 2n, bit for bit), and its first half is the node set.
func TestCosTable(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 64, 1024} {
		tab := CosTable(n)
		if len(tab) != 2*n {
			t.Fatalf("n=%d: table length %d, want %d", n, len(tab), 2*n)
		}
		for m, c := range tab {
			if want := math.Cos(math.Pi * float64(m) / float64(n)); math.Abs(c-want) > 1e-15 {
				t.Errorf("n=%d: tab[%d] = %v, want %v", n, m, c, want)
			}
			if m > 0 && tab[2*n-m] != c {
				t.Errorf("n=%d: tab[%d] = %v but tab[%d] = %v", n, m, c, 2*n-m, tab[2*n-m])
			}
			if fine := CosTable(2 * n); fine[2*m] != c {
				t.Errorf("n=%d: tab[%d] = %v, order %d has %v at %d", n, m, c, 2*n, fine[2*m], 2*m)
			}
		}
		if tab[0] != 1 || tab[n] != -1 || (n%2 == 0 && (tab[n/2] != 0 || tab[3*n/2] != 0)) {
			t.Errorf("n=%d: endpoints or midpoints not exact", n)
		}
		nodes, cached := Nodes(n), CachedNodes(n)
		for p := range nodes {
			if nodes[p] != tab[p] || cached[p] != tab[p] {
				t.Errorf("n=%d: node %d: Nodes %v, CachedNodes %v, table %v", n, p, nodes[p], cached[p], tab[p])
			}
		}
	}
}

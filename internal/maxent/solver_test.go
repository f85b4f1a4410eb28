package maxent

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/linalg"
)

// avgQuantileError computes ε_avg over 21 equally spaced φ ∈ [0.01, 0.99]
// against the sorted raw data (paper §6.1).
func avgQuantileError(sorted []float64, quantile func(phi float64) float64) float64 {
	n := float64(len(sorted))
	total := 0.0
	count := 0
	for i := 0; i <= 20; i++ {
		phi := 0.01 + 0.049*float64(i)
		q := quantile(phi)
		rank := sort.SearchFloat64s(sorted, q)
		total += math.Abs(float64(rank)/n - phi)
		count++
	}
	return total / float64(count)
}

func solveData(t *testing.T, data []float64, k int, opts Options) *Solution {
	t.Helper()
	sk := core.New(k)
	sk.AddMany(data)
	sol, err := SolveSketch(sk, opts)
	if err != nil {
		t.Fatalf("SolveSketch: %v", err)
	}
	return sol
}

func TestSolveUniform(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	data := make([]float64, 50000)
	for i := range data {
		data[i] = rng.Float64()
	}
	sol := solveData(t, data, 10, Options{})
	sorted := append([]float64{}, data...)
	sort.Float64s(sorted)
	if e := avgQuantileError(sorted, sol.Quantile); e > 0.005 {
		t.Errorf("uniform ε_avg = %v, want < 0.005", e)
	}
	// Median of uniform[0,1] is 0.5.
	if q := sol.Quantile(0.5); math.Abs(q-0.5) > 0.01 {
		t.Errorf("uniform median = %v", q)
	}
}

func TestSolveGaussian(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	data := make([]float64, 50000)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	sol := solveData(t, data, 10, Options{})
	sorted := append([]float64{}, data...)
	sort.Float64s(sorted)
	if e := avgQuantileError(sorted, sol.Quantile); e > 0.01 {
		t.Errorf("gaussian ε_avg = %v, want < 0.01", e)
	}
	// Gaussian data has negative values: the basis must be std-only.
	if sol.Basis.K2 != 0 {
		t.Errorf("K2 = %d for data with negatives, want 0", sol.Basis.K2)
	}
}

func TestSolveExponential(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	data := make([]float64, 50000)
	for i := range data {
		data[i] = rng.ExpFloat64()
	}
	sol := solveData(t, data, 10, Options{})
	sorted := append([]float64{}, data...)
	sort.Float64s(sorted)
	if e := avgQuantileError(sorted, sol.Quantile); e > 0.01 {
		t.Errorf("exponential ε_avg = %v, want < 0.01 (paper reports ~1e-4)", e)
	}
}

func TestSolveLognormalLongTail(t *testing.T) {
	// Long-tailed data is where log moments matter (paper Fig. 9).
	rng := rand.New(rand.NewPCG(4, 4))
	data := make([]float64, 50000)
	for i := range data {
		data[i] = math.Exp(rng.NormFloat64()*1.3 + 3)
	}
	sol := solveData(t, data, 10, Options{})
	sorted := append([]float64{}, data...)
	sort.Float64s(sorted)
	if e := avgQuantileError(sorted, sol.Quantile); e > 0.015 {
		t.Errorf("lognormal ε_avg = %v, want < 0.015", e)
	}
	if sol.Basis.Primary != DomainLog {
		t.Errorf("expected log-primary domain for long-tailed data, got %v", sol.Basis.Primary)
	}
	if sol.Basis.K2 == 0 {
		t.Error("expected log moments to be selected for lognormal data")
	}
}

func TestLogMomentsImproveLongTailAccuracy(t *testing.T) {
	// Paper Fig. 9: with log moments the long-tail error drops hard.
	rng := rand.New(rand.NewPCG(5, 5))
	data := make([]float64, 30000)
	for i := range data {
		data[i] = math.Exp(rng.NormFloat64()*1.5 + 2)
	}
	sk := core.New(10)
	sk.AddMany(data)
	sorted := append([]float64{}, data...)
	sort.Float64s(sorted)

	withLog, err := SolveSketch(sk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	errWith := avgQuantileError(sorted, withLog.Quantile)

	// Force a std-only basis of the same total budget.
	std, _ := sk.Standardize(10)
	noLog, err := Solve(Basis{Primary: DomainStd, K1: 8, Std: std}, Options{})
	if err != nil {
		t.Fatalf("std-only solve: %v", err)
	}
	errWithout := avgQuantileError(sorted, noLog.Quantile)
	if errWith >= errWithout {
		t.Errorf("log moments did not help: with=%v without=%v", errWith, errWithout)
	}
	if errWithout < 0.02 {
		t.Logf("note: std-only error unexpectedly low: %v", errWithout)
	}
}

func TestSolvePointMass(t *testing.T) {
	sk := core.New(5)
	for i := 0; i < 100; i++ {
		sk.Add(42)
	}
	sol, err := SolveSketch(sk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, phi := range []float64{0.01, 0.5, 0.99} {
		if q := sol.Quantile(phi); q != 42 {
			t.Errorf("point-mass quantile(%v) = %v, want 42", phi, q)
		}
	}
	if sol.CDF(41.9) != 0 || sol.CDF(42) != 1 {
		t.Error("point-mass CDF wrong")
	}
}

func TestSolveEmpty(t *testing.T) {
	sk := core.New(5)
	if _, err := SolveSketch(sk, Options{}); err == nil {
		t.Error("expected error for empty sketch")
	}
}

func TestSolveFailsOnTinyCardinality(t *testing.T) {
	// Paper Fig. 8: maxent fails to converge on < 5 distinct values. The
	// solver may fail cleanly or converge; a converged density must keep
	// its quantiles inside [0, 1].
	sk := core.New(10)
	for i := 0; i < 1000; i++ {
		sk.Add(float64(i % 2)) // two point masses at 0, 1
	}
	sol, err := SolveSketch(sk, Options{})
	if err != nil {
		return
	}
	for _, phi := range []float64{0, 0.3, 0.7, 1} {
		if q := sol.Quantile(phi); q < -1e-9 || q > 1+1e-9 {
			t.Errorf("quantile(%v) = %v outside [0,1]", phi, q)
		}
	}
}

func TestCDFMonotoneAndConsistent(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	data := make([]float64, 20000)
	for i := range data {
		data[i] = rng.NormFloat64()*2 + 10
	}
	sol := solveData(t, data, 8, Options{})
	lo, hi := sol.Support()
	prev := -1.0
	for i := 0; i <= 50; i++ {
		x := lo + (hi-lo)*float64(i)/50
		c := sol.CDF(x)
		if c < prev-1e-9 {
			t.Fatalf("CDF not monotone at %v: %v < %v", x, c, prev)
		}
		if c < 0 || c > 1 {
			t.Fatalf("CDF(%v) = %v outside [0,1]", x, c)
		}
		prev = c
	}
	if sol.CDF(lo-1) != 0 || sol.CDF(hi+1) != 1 {
		t.Error("CDF outside support should clamp to {0,1}")
	}
	// Quantile∘CDF ≈ identity in the interior.
	for _, phi := range []float64{0.1, 0.5, 0.9} {
		q := sol.Quantile(phi)
		if math.Abs(sol.CDF(q)-phi) > 1e-6 {
			t.Errorf("CDF(Quantile(%v)) = %v", phi, sol.CDF(q))
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	data := make([]float64, 5000)
	for i := range data {
		data[i] = rng.Float64() * 10
	}
	sol := solveData(t, data, 6, Options{})
	lo, hi := sol.Support()
	if q := sol.Quantile(0); q != lo {
		t.Errorf("Quantile(0) = %v, want xmin %v", q, lo)
	}
	if q := sol.Quantile(1); q != hi {
		t.Errorf("Quantile(1) = %v, want xmax %v", q, hi)
	}
	qs := sol.Quantiles([]float64{0.25, 0.5, 0.75})
	if !(qs[0] < qs[1] && qs[1] < qs[2]) {
		t.Errorf("quantiles not monotone: %v", qs)
	}
}

func TestDensityIntegratesToOne(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	data := make([]float64, 20000)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	sol := solveData(t, data, 8, Options{})
	lo, hi := sol.Support()
	// Trapezoid integral of Density over the support.
	n := 2000
	sum := 0.0
	for i := 0; i < n; i++ {
		x0 := lo + (hi-lo)*float64(i)/float64(n)
		x1 := lo + (hi-lo)*float64(i+1)/float64(n)
		sum += (sol.Density(x0) + sol.Density(x1)) / 2 * (x1 - x0)
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("density mass = %v, want ~1", sum)
	}
}

// The paper's conditioning example (§4.3.1): k1=8, xmin=20, xmax=100. The
// power-basis Hessian at θ=0 has κ ≈ 3e31; the Chebyshev basis reduces it
// to κ ≈ 11.3.
func TestChebyshevConditioningPaperExample(t *testing.T) {
	xmin, xmax := 20.0, 100.0
	k := 8
	// Power basis: H_ij = ∫ x^i x^j dx over [20,100], i,j = 0..8.
	pow := linalg.NewDense(k+1, k+1)
	for i := 0; i <= k; i++ {
		for j := 0; j <= k; j++ {
			p := float64(i + j + 1)
			pow.Set(i, j, (math.Pow(xmax, p)-math.Pow(xmin, p))/p)
		}
	}
	condPow := linalg.Cond2Sym(pow)
	if !(condPow > 1e15) {
		t.Errorf("power-basis condition = %v, want astronomically large", condPow)
	}
	// Chebyshev basis via the solver's own Gram construction.
	sk := core.New(k)
	sk.Add(xmin)
	sk.Add(xmax)
	std, err := sk.Standardize(k)
	if err != nil {
		t.Fatal(err)
	}
	b := Basis{Primary: DomainStd, K1: k, Std: std}
	g := buildGrid(&b, 64)
	rows := make([]int, k+1)
	for i := range rows {
		rows[i] = i
	}
	condCheb := linalg.Cond2Sym(g.gram(rows))
	if condCheb > 50 {
		t.Errorf("Chebyshev-basis condition = %v, want ~11", condCheb)
	}
	t.Logf("condition numbers: power=%.3g chebyshev=%.3g", condPow, condCheb)
}

func TestSelectBasisRespectsMaxCond(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	sk := core.New(12)
	for i := 0; i < 10000; i++ {
		sk.Add(rng.Float64()*2 + 100) // heavily offset: few stable moments
	}
	b, err := SelectBasis(sk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b.K1+b.K2 == 0 {
		t.Fatal("selection returned empty basis")
	}
	if kStd, kLog := sk.StableOrders(); b.K1+b.K2 == kStd+kLog {
		t.Fatalf("selection kept all %d stable moments, so the cap never bound", kStd+kLog)
	}
	full := b
	g := buildGrid(&full, selectionGrid)
	rows := []int{0}
	for i := 1; i <= b.K1; i++ {
		rows = append(rows, i)
	}
	for j := 1; j <= b.K2; j++ {
		rows = append(rows, b.K1+j)
	}
	if cond := linalg.Cond2Sym(g.gram(rows)); cond > maxCond*1.5 {
		t.Errorf("selected basis condition %v exceeds cap", cond)
	}
}

func TestSolveMergedEqualsDirect(t *testing.T) {
	// Mergeability end-to-end: quantiles from a merged sketch match those
	// from a directly accumulated one.
	rng := rand.New(rand.NewPCG(10, 10))
	direct := core.New(8)
	parts := make([]*core.Sketch, 10)
	for i := range parts {
		parts[i] = core.New(8)
	}
	for i := 0; i < 20000; i++ {
		x := rng.NormFloat64()*5 + 20
		direct.Add(x)
		parts[i%10].Add(x)
	}
	merged := core.New(8)
	for _, p := range parts {
		if err := merged.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	solD, err := SolveSketch(direct, Options{})
	if err != nil {
		t.Fatal(err)
	}
	solM, err := SolveSketch(merged, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, phi := range []float64{0.05, 0.5, 0.95} {
		qd, qm := solD.Quantile(phi), solM.Quantile(phi)
		if math.Abs(qd-qm) > 1e-6*(1+math.Abs(qd)) {
			t.Errorf("phi=%v: direct %v vs merged %v", phi, qd, qm)
		}
	}
}

func TestSolutionMomentsMatchTargets(t *testing.T) {
	// The solved density must reproduce the target moments to ~gradTol —
	// this is the definition of convergence.
	rng := rand.New(rand.NewPCG(11, 11))
	data := make([]float64, 30000)
	for i := range data {
		data[i] = rng.Float64()*3 + 1
	}
	sk := core.New(8)
	sk.AddMany(data)
	b, err := SelectBasis(sk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Solve(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := buildGrid(&sol.Basis, sol.GridUsed)
	pot := newPotential(g, &sol.Basis, sol.Basis.Targets(), NewWorkspace())
	grad := make([]float64, sol.Basis.Dim())
	pot.Gradient(sol.Theta, grad)
	if r := linalg.NormInf(grad); r > 1e-8 {
		t.Errorf("moment residual %v, want <= 1e-8", r)
	}
}

func TestBasisValidate(t *testing.T) {
	if err := (&Basis{K1: 0, K2: 0}).validate(); err == nil {
		t.Error("empty basis must fail validation")
	}
	if err := (&Basis{K1: 2}).validate(); err == nil {
		t.Error("missing Std must fail validation")
	}
	st := &core.Standardized{Moments: []float64{1, 0}, Cheby: []float64{1, 0}}
	if err := (&Basis{K1: 2, Std: st}).validate(); err == nil {
		t.Error("insufficient moments must fail validation")
	}
}

// gram computes the Gram matrix over the subset of basis rows given by idx.
func (g *grid) gram(idx []int) *linalg.Dense {
	out := linalg.NewDense(len(idx), len(idx))
	for a, ia := range idx {
		for b, ib := range idx {
			out.Set(a, b, g.gramEntry(ia, ib))
		}
	}
	return out
}

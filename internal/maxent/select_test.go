package maxent

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/linalg"
)

// jacobiCond2 is the condition screen basis selection ran before the
// eigenvalues-only one: cyclic Jacobi, reached through SymEigen's
// eigenvector path.
func jacobiCond2(a, _ *linalg.Dense) float64 {
	eig, _ := linalg.SymEigen(a, true)
	mn, mx := math.Inf(1), 0.0
	for _, l := range eig {
		mn, mx = math.Min(mn, math.Abs(l)), math.Max(mx, math.Abs(l))
	}
	if mn == 0 {
		return math.Inf(1)
	}
	return mx / mn
}

// anySketch draws one sketch of a random shape: a random family
// (Gaussian, exponential, lognormal of random spread, uniform, a two-mode
// mixture, a few discrete values, or data shifted far from zero), a random
// cardinality and a random order.
func anySketch(rng *rand.Rand) *core.Sketch {
	k := 2 + rng.IntN(core.DefaultK+4)
	n := 2 + rng.IntN(400)
	sk := core.New(k)
	family, spread := rng.IntN(7), math.Pow(10, 4*rng.Float64()-2)
	for i := 0; i < n; i++ {
		var x float64
		switch family {
		case 0:
			x = rng.NormFloat64() * spread
		case 1:
			x = rng.ExpFloat64() * spread
		case 2:
			x = math.Exp(rng.NormFloat64() * math.Log1p(spread))
		case 3:
			x = rng.Float64() * spread
		case 4:
			x = rng.NormFloat64()
			if rng.IntN(4) == 0 {
				x += 10 * spread
			}
		case 5:
			x = float64(rng.IntN(3)) * spread
		default:
			x = 1e6*spread + rng.ExpFloat64()
		}
		sk.Add(x)
	}
	return sk
}

// TestScreenMatchesJacobi: basis selection's eigenvalues-only condition
// screen picks the same (Primary, K1, K2) as the Jacobi screen it replaced,
// on the live datasets, the golden corpus and 10,000 random sketches.
func TestScreenMatchesJacobi(t *testing.T) {
	cases := append(liveSketches(), goldenCorpus()...)
	rng := rand.New(rand.NewPCG(10, 43))
	random := 10000
	if testing.Short() {
		random = 1000
	}
	for i := 0; i < random; i++ {
		cases = append(cases, namedSketch{fmt.Sprintf("random/%d", i), anySketch(rng)})
	}
	ws := NewWorkspace()
	for _, c := range cases {
		got, err := screenBasis(ws, c.sk, linalg.Cond2SymWork)
		want, werr := screenBasis(ws, c.sk, jacobiCond2)
		if (err == nil) != (werr == nil) {
			t.Fatalf("%s: QL screen err %v, Jacobi screen err %v", c.name, err, werr)
		}
		if err != nil {
			continue
		}
		if got.Primary != want.Primary || got.K1 != want.K1 || got.K2 != want.K2 {
			t.Errorf("%s: QL screen picks (%s,%d,%d), Jacobi (%s,%d,%d)",
				c.name, got.Primary, got.K1, got.K2, want.Primary, want.K1, want.K2)
		}
	}
}

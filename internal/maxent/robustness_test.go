package maxent

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"sort"
	"testing"

	"repro/internal/core"
)

// Robustness tests for the solver paths that only trigger on awkward data:
// grid adaptivity, retries, and log-primary specifics.

func TestGridAdaptivityEscalates(t *testing.T) {
	// A density with a sharp near-boundary mode needs a finer grid than the
	// start order; the adaptive loop must escalate rather than return a
	// poorly integrated solution.
	rng := rand.New(rand.NewPCG(101, 1))
	sk := core.New(10)
	for i := 0; i < 50000; i++ {
		if rng.Float64() < 0.9 {
			sk.Add(rng.Float64() * 0.08) // 90% in the bottom 0.8% of range
		} else {
			sk.Add(rng.Float64() * 10)
		}
	}
	sol, err := SolveSketch(sk, Options{})
	if err != nil {
		t.Skipf("solver declined sharp-mode data: %v", err)
	}
	if sol.GridUsed <= gridSize {
		t.Errorf("grid stayed at %d; expected escalation beyond %d", sol.GridUsed, gridSize)
	}
	// The median must land in the dense cluster.
	if q := sol.Quantile(0.5); q > 0.2 {
		t.Errorf("median %v outside the dense cluster", q)
	}
}

// TestGridNeverExceedsMaxGrid holds every recorded solve — the golden corpus
// and the pinned rollups, which their own tests hold live solves to exactly
// — to the grid cap: escalation stops at maxGrid however hard the solve.
func TestGridNeverExceedsMaxGrid(t *testing.T) {
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden []goldenCase
	if err := json.Unmarshal(buf, &golden); err != nil {
		t.Fatal(err)
	}
	capped := 0
	for _, c := range golden {
		if c.GridUsed > maxGrid {
			t.Errorf("golden %s: grid %d above %d", c.Name, c.GridUsed, maxGrid)
		}
		if c.GridUsed == maxGrid {
			capped++
		}
	}
	for i, p := range pinnedSolves {
		if p.grid > maxGrid {
			t.Errorf("pinned solve %d: grid %d above %d", i, p.grid, maxGrid)
		}
		if p.grid == maxGrid {
			capped++
		}
	}
	if capped == 0 {
		t.Error("no recorded solve reaches the cap, so none shows it holds")
	}
}

func TestRetryDropsMomentsOnInfeasible(t *testing.T) {
	// Corrupt the highest power sum so the full moment vector is
	// infeasible; the retry ladder should still produce a solution (or a
	// clean error), never a panic or a NaN quantile.
	rng := rand.New(rand.NewPCG(103, 3))
	sk := core.New(10)
	for i := 0; i < 20000; i++ {
		sk.Add(1 + rng.Float64())
	}
	sk.Pow[9] *= 1.5 // inconsistent 10th moment
	sol, err := SolveSketch(sk, Options{})
	if err != nil {
		return // clean failure is acceptable
	}
	q := sol.Quantile(0.5)
	if math.IsNaN(q) || q < 1 || q > 2 {
		t.Errorf("median %v after retry, want in [1,2]", q)
	}
}

func TestLogPrimaryCDFAndDensity(t *testing.T) {
	rng := rand.New(rand.NewPCG(104, 4))
	data := make([]float64, 40000)
	sk := core.New(10)
	for i := range data {
		data[i] = math.Exp(rng.NormFloat64()*1.5 + 1)
		sk.Add(data[i])
	}
	sol, err := SolveSketch(sk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Basis.Primary != DomainLog {
		t.Fatalf("expected log-primary, got %v", sol.Basis.Primary)
	}
	sort.Float64s(data)
	// CDF at true quantiles should be near the quantile fraction.
	for _, phi := range []float64{0.2, 0.5, 0.8} {
		x := data[int(phi*float64(len(data)))]
		if got := sol.CDF(x); math.Abs(got-phi) > 0.02 {
			t.Errorf("CDF(q%v) = %v", phi, got)
		}
	}
	// Density integrates to ~1 over the raw domain (log-primary chain rule).
	lo, hi := sol.Support()
	n := 4000
	mass := 0.0
	for i := 0; i < n; i++ {
		// Log-spaced panels to resolve the near-zero region.
		a := lo * math.Pow(hi/lo, float64(i)/float64(n))
		b := lo * math.Pow(hi/lo, float64(i+1)/float64(n))
		mass += (sol.Density(a) + sol.Density(b)) / 2 * (b - a)
	}
	if math.Abs(mass-1) > 0.02 {
		t.Errorf("log-primary density mass = %v", mass)
	}
	if sol.Density(-1) != 0 || sol.Density(0) != 0 {
		t.Error("density must vanish at non-positive x for log-primary")
	}
}

func TestSolveSketchTwoDistinctValues(t *testing.T) {
	// Two distinct values: the moment vector sits on the moment-space
	// boundary. Whatever the solver does, it must not hang or panic, and a
	// returned solution must keep quantiles inside [min, max].
	sk := core.New(10)
	for i := 0; i < 1000; i++ {
		sk.Add(float64(2 + i%2))
	}
	sol, err := SolveSketch(sk, Options{})
	if err != nil {
		return
	}
	for _, phi := range []float64{0, 0.3, 0.7, 1} {
		q := sol.Quantile(phi)
		if q < 2-1e-9 || q > 3+1e-9 {
			t.Errorf("quantile(%v) = %v outside [2,3]", phi, q)
		}
	}
}

func TestNegativeDataForcesStdOnly(t *testing.T) {
	rng := rand.New(rand.NewPCG(105, 5))
	sk := core.New(10)
	for i := 0; i < 20000; i++ {
		sk.Add(rng.NormFloat64() - 5) // strictly negative-ish, some positive tail
	}
	b, err := SelectBasis(sk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b.K2 != 0 || b.Primary != DomainStd {
		t.Errorf("negative data selected K2=%d primary=%v", b.K2, b.Primary)
	}
}

func TestSolutionSupportMatchesData(t *testing.T) {
	sk := core.New(6)
	sk.AddMany([]float64{3, 5, 9, 12})
	sol, err := SolveSketch(sk, Options{})
	if err != nil {
		t.Skipf("tiny dataset declined: %v", err)
	}
	lo, hi := sol.Support()
	if math.Abs(lo-3) > 1e-9 || math.Abs(hi-12) > 1e-9 {
		t.Errorf("support [%v,%v], want [3,12]", lo, hi)
	}
}

package cascade

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/maxent"
)

func makeSketch(rng *rand.Rand, n int, gen func() float64) (*core.Sketch, []float64) {
	data := make([]float64, n)
	sk := core.New(10)
	for i := range data {
		data[i] = gen()
		sk.Add(data[i])
	}
	sort.Float64s(data)
	return sk, data
}

// Cascade answers must agree with direct maxent evaluation — the paper's
// consistency/no-false-negative property.
func TestCascadeConsistentWithMaxEnt(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	sk, sorted := makeSketch(rng, 20000, func() float64 { return rng.ExpFloat64() * 100 })
	sol, err := maxent.SolveSketch(sk, maxent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, phi := range []float64{0.5, 0.9, 0.99} {
		q := sol.Quantile(phi)
		for _, tval := range []float64{q * 0.5, q * 0.9, q * 1.1, q * 2, sorted[0] / 2, sorted[len(sorted)-1] * 2} {
			want := q > tval
			got, err := Threshold(sk, tval, phi, Full(), nil)
			if err != nil {
				t.Fatalf("Threshold: %v", err)
			}
			if got != want {
				t.Errorf("phi=%v t=%v: cascade %v, direct %v", phi, tval, got, want)
			}
		}
	}
}

func TestCascadeStageAccounting(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	sk, _ := makeSketch(rng, 10000, func() float64 { return rng.NormFloat64()*10 + 100 })
	var stats Stats
	// Way outside the range: resolved by the simple filter.
	if ok, _ := Threshold(sk, 1e9, 0.5, Full(), &stats); ok {
		t.Error("threshold above max must be false")
	}
	if ok, _ := Threshold(sk, -1e9, 0.5, Full(), &stats); !ok {
		t.Error("threshold below min must be true")
	}
	if stats.Resolved[StageSimple] != 2 {
		t.Errorf("simple stage resolved %d, want 2", stats.Resolved[StageSimple])
	}
	// Extreme-but-inside thresholds: Markov should resolve without maxent.
	q01 := percentileOf(sk, t, 0.01)
	q99 := percentileOf(sk, t, 0.99)
	_, _ = Threshold(sk, q01, 0.99, Full(), &stats) // clearly true
	_, _ = Threshold(sk, q99, 0.01, Full(), &stats) // clearly false
	if stats.Resolved[StageMarkov]+stats.Resolved[StageRTT] < 2 {
		t.Errorf("bound stages resolved %d+%d, want >= 2",
			stats.Resolved[StageMarkov], stats.Resolved[StageRTT])
	}
	if stats.Queries != 4 {
		t.Errorf("Queries = %d, want 4", stats.Queries)
	}
	if got := stats.Reached(StageMaxEnt); got != 0 {
		t.Errorf("maxent reached by %d queries, want 0", got)
	}
}

func percentileOf(sk *core.Sketch, t *testing.T, phi float64) float64 {
	t.Helper()
	sol, err := maxent.SolveSketch(sk, maxent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sol.Quantile(phi)
}

func TestCascadeBaselineAlwaysMaxEnt(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	sk, _ := makeSketch(rng, 5000, func() float64 { return rng.Float64() })
	var stats Stats
	cfg := Config{} // baseline: no early stages
	if _, err := Threshold(sk, 0.5, 0.5, cfg, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Resolved[StageMaxEnt] != 1 {
		t.Errorf("baseline must resolve at maxent: %+v", stats.Resolved)
	}
}

func TestFractionHit(t *testing.T) {
	st := Stats{Queries: 100}
	st.Resolved[StageSimple] = 80
	st.Resolved[StageMarkov] = 15
	st.Resolved[StageRTT] = 4
	st.Resolved[StageMaxEnt] = 1
	fh := st.FractionHit()
	if fh[StageSimple] != 1.0 {
		t.Errorf("simple fraction = %v", fh[StageSimple])
	}
	if math.Abs(fh[StageMarkov]-0.2) > 1e-12 {
		t.Errorf("markov fraction = %v", fh[StageMarkov])
	}
	if math.Abs(fh[StageMaxEnt]-0.01) > 1e-12 {
		t.Errorf("maxent fraction = %v", fh[StageMaxEnt])
	}
}

func TestCascadeEmptySketch(t *testing.T) {
	sk := core.New(5)
	if _, err := Threshold(sk, 1, 0.5, Full(), nil); err == nil {
		t.Error("expected error for empty sketch")
	}
}

func TestQuantileHelper(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	sk, sorted := makeSketch(rng, 20000, func() float64 { return rng.NormFloat64() })
	sol, err := maxent.SolveSketch(sk, maxent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := sol.Quantile(0.5)
	trueMedian := sorted[len(sorted)/2]
	if math.Abs(q-trueMedian) > 0.05 {
		t.Errorf("median = %v, true %v", q, trueMedian)
	}
}

// The cascade's whole point: bound stages resolve the bulk of threshold
// queries when thresholds are not razor-close to the quantile (Fig. 13c).
func TestCascadeResolvesMostQueriesEarly(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	var stats Stats
	nGroups := 200
	for g := 0; g < nGroups; g++ {
		sk, _ := makeSketch(rng, 500, func() float64 {
			return rng.ExpFloat64() * (1 + float64(g%17))
		})
		// A global-style threshold that most groups are far from.
		_, _ = Threshold(sk, 40, 0.7, Full(), &stats)
	}
	early := stats.Resolved[StageSimple] + stats.Resolved[StageMarkov] + stats.Resolved[StageRTT]
	if frac := float64(early) / float64(nGroups); frac < 0.7 {
		t.Errorf("early stages resolved only %.0f%%, want >= 70%%", frac*100)
	}
}

// TestSolveSeamSharesOrFillsTheOwnersSolve: with Config.Solve set the MaxEnt
// stage never solves privately — it takes the owner's density, counts it as
// shared or fresh as the owner reports, skips the seam entirely when a
// bounds stage settles the query, and falls back to the bounds midpoint on
// the owner's (memoized) failure.
func TestSolveSeamSharesOrFillsTheOwnersSolve(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	sk, sorted := makeSketch(rng, 20000, func() float64 { return rng.ExpFloat64() * 100 })
	var memo *maxent.Solution
	calls := 0
	cfg := Full()
	cfg.Solve = func() (*maxent.Solution, bool, error) {
		calls++
		shared := memo != nil
		if !shared {
			var err error
			if memo, err = maxent.SolveSketch(sk, cfg.Solver); err != nil {
				return nil, false, err
			}
		}
		return memo, shared, nil
	}
	var st Stats
	if _, err := Threshold(sk, sorted[len(sorted)-1]*2, 0.9, cfg, &st); err != nil || calls != 0 {
		t.Fatalf("a range-filter decision consulted the solve seam (%d calls, err %v)", calls, err)
	}
	q90 := sorted[len(sorted)*9/10]
	for i := 1; i <= 2; i++ {
		above, sol, err := ThresholdSolve(sk, q90*1.01, 0.9, cfg, &st)
		if err != nil || sol != memo || above != (memo.Quantile(0.9) > q90*1.01) {
			t.Fatalf("round %d: above=%v sol=%p err=%v, want the owner's density %p", i, above, sol, err, memo)
		}
		if calls != i || st.Solves != 1 || st.SharedSolves != i-1 || st.NewtonIters != memo.Iterations {
			t.Fatalf("round %d: %d seam calls, stats %+v; want 1 fresh solve then shared ones", i, calls, st)
		}
	}

	cfg.Solve = func() (*maxent.Solution, bool, error) { return nil, true, maxent.ErrNotConverged }
	st = Stats{}
	if _, err := Threshold(sk, q90*1.01, 0.9, cfg, &st); err == nil || st.Resolved[StageMaxEnt] != 1 || st.Solves+st.SharedSolves != 0 {
		t.Errorf("owner's failed solve: err %v, stats %+v; want a MaxEnt-stage bounds fallback carrying the error", err, st)
	}
}

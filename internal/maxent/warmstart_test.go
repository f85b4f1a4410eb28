package maxent

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
)

// warmTestPhis spans the distribution body and both tails.
var warmTestPhis = []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}

// randomSketch draws n values from one of several shapes, exercising both
// std- and log-primary bases.
func randomSketch(rng *rand.Rand, shape int, n int) *core.Sketch {
	sk := core.New(core.DefaultK)
	for i := 0; i < n; i++ {
		var v float64
		switch shape {
		case 0: // lognormal (log-primary)
			v = math.Exp(rng.NormFloat64())
		case 1: // uniform offset (std-primary)
			v = 10 + 5*rng.Float64()
		case 2: // exponential
			v = rng.ExpFloat64() * 100
		default: // gaussian mixture, includes negatives
			v = rng.NormFloat64()
			if rng.Float64() < 0.3 {
				v += 6
			}
		}
		sk.Add(v)
	}
	return sk
}

// quantilesClose asserts two solutions agree at warmTestPhis to within an
// absolute-or-relative tolerance.
func quantilesClose(t *testing.T, ctxt string, a, b *Solution, tol float64) {
	t.Helper()
	for _, phi := range warmTestPhis {
		qa, qb := a.Quantile(phi), b.Quantile(phi)
		scale := math.Max(1, math.Max(math.Abs(qa), math.Abs(qb)))
		if math.Abs(qa-qb) > tol*scale {
			t.Errorf("%s: quantile(%g) warm=%g cold=%g (Δ=%g > %g)",
				ctxt, phi, qa, qb, math.Abs(qa-qb), tol*scale)
		}
	}
}

// TestWarmStartMatchesCold is the warm-start correctness property: for
// random sketches of several shapes, a solve seeded with a converged θ of
// the same problem must (a) report Warm, (b) not use more iterations than
// the cold solve, and (c) land on the same quantiles within the solver's
// moment-matching tolerance.
func TestWarmStartMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for shape := 0; shape < 4; shape++ {
		for trial := 0; trial < 5; trial++ {
			sk := randomSketch(rng, shape, 2000+trial*500)
			cold, err := SolveSketch(sk, Options{})
			if err != nil {
				continue // solver-hostile draws are out of scope here
			}
			warm, err := SolveSketch(sk, Options{Theta0: cold.Theta})
			if err != nil {
				t.Fatalf("shape %d trial %d: warm solve failed: %v", shape, trial, err)
			}
			if !warm.Warm {
				t.Errorf("shape %d trial %d: warm solve did not report Warm", shape, trial)
			}
			if warm.Iterations > cold.Iterations {
				t.Errorf("shape %d trial %d: warm used %d iterations, cold %d",
					shape, trial, warm.Iterations, cold.Iterations)
			}
			quantilesClose(t, "same-sketch", warm, cold, 1e-6)
		}
	}
}

// TestWarmStartAdjacentWindows is the sliding-window property: two windows
// sharing most of their panes solve to nearly identical θ, so seeding the
// second from the first must converge to the same quantiles a cold solve
// finds, within the moment-matching tolerance.
func TestWarmStartAdjacentWindows(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 19))
	for trial := 0; trial < 8; trial++ {
		const panes, paneSize, width = 12, 300, 8
		paneData := make([][]float64, panes)
		for p := range paneData {
			for i := 0; i < paneSize; i++ {
				paneData[p] = append(paneData[p], math.Exp(rng.NormFloat64()*0.7)+float64(trial))
			}
		}
		window := func(lo int) *core.Sketch {
			sk := core.New(core.DefaultK)
			for _, pd := range paneData[lo : lo+width] {
				sk.AddMany(pd)
			}
			return sk
		}
		prev, err := SolveSketch(window(0), Options{})
		if err != nil {
			t.Fatalf("trial %d: solving first window: %v", trial, err)
		}
		next := window(1) // slides by one pane: shares width-1 panes
		cold, err := SolveSketch(next, Options{})
		if err != nil {
			t.Fatalf("trial %d: cold solve: %v", trial, err)
		}
		if cold.Warm {
			t.Fatal("unseeded solve reported Warm")
		}
		warmSol, err := SolveSketch(next, Options{Theta0: prev.Theta})
		if err != nil {
			t.Fatalf("trial %d: warm solve: %v", trial, err)
		}
		quantilesClose(t, "adjacent-window", warmSol, cold, 1e-6)
	}
}

// TestWarmStartBadSeedFallsBack pins the fallback paths: a Theta0 with the
// wrong basis dimension, or with non-finite entries, must be ignored (cold
// start, identical result), and a wildly wrong — overflow-inducing — seed
// of the right dimension must diverge into the cold retry and still
// succeed.
func TestWarmStartBadSeedFallsBack(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 29))
	sk := randomSketch(rng, 0, 3000)
	cold, err := SolveSketch(sk, Options{})
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, theta0 []float64) {
		t.Helper()
		sol, err := SolveSketch(sk, Options{Theta0: theta0})
		if err != nil {
			t.Fatalf("%s: solve failed: %v", name, err)
		}
		if sol.Warm {
			t.Errorf("%s: solve reported Warm for a rejected/diverging seed", name)
		}
		// The fallback is a cold start of the same deterministic problem:
		// θ must match the reference solve exactly.
		if len(sol.Theta) != len(cold.Theta) {
			t.Fatalf("%s: dim %d, want %d", name, len(sol.Theta), len(cold.Theta))
		}
		for i := range sol.Theta {
			if sol.Theta[i] != cold.Theta[i] {
				t.Fatalf("%s: theta[%d] = %v, want %v (cold path not identical)",
					name, i, sol.Theta[i], cold.Theta[i])
			}
		}
	}

	// Validation is against the *selected* basis dimension, which can
	// exceed len(cold.Theta) when the cold solve's retry loop shrank the
	// basis — derive it explicitly.
	b, err := SelectBasis(sk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dim := b.Dim()
	check("wrong-dim-short", make([]float64, dim-1))
	check("wrong-dim-long", make([]float64, dim+1))
	nan := make([]float64, dim)
	nan[0] = math.NaN()
	check("nan-seed", nan)

	// Right dimension, absurd magnitude: exp(Σθ·m̃) overflows, the warm
	// Newton attempt cannot find a descent step, and the solver must retry
	// cold rather than surface the failure.
	huge := make([]float64, dim)
	for i := range huge {
		huge[i] = 700
	}
	check("diverging-seed", huge)

	// A stale θ slice must never be written to by the solver.
	seed := append([]float64(nil), cold.Theta...)
	orig := append([]float64(nil), seed...)
	if _, err := SolveSketch(sk, Options{Theta0: seed}); err != nil {
		t.Fatal(err)
	}
	for i := range seed {
		if seed[i] != orig[i] {
			t.Fatalf("Theta0[%d] mutated by the solver", i)
		}
	}
}

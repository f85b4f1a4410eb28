package cascade

import (
	"time"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/maxent"
)

// Stage identifies a cascade stage.
type Stage int

// Cascade stages in evaluation order.
const (
	StageSimple Stage = iota // [xmin, xmax] range filter
	StageMarkov              // Markov inequality bounds
	StageRTT                 // RTT canonical-representation bounds
	StageMaxEnt              // full maximum-entropy estimate
	NumStages
)

func (s Stage) String() string {
	switch s {
	case StageSimple:
		return "Simple"
	case StageMarkov:
		return "Markov"
	case StageRTT:
		return "RTT"
	case StageMaxEnt:
		return "MaxEnt"
	}
	return "?"
}

// Config selects which stages run. The zero value runs only the final
// maximum-entropy estimate (the paper's "Baseline"); Full() enables
// everything.
type Config struct {
	UseSimple bool
	UseMarkov bool
	UseRTT    bool
	// Solver carries the maximum-entropy fallback's warm seed, its only
	// input besides the sketch.
	Solver maxent.Options
	// Solve, when set, supplies the MaxEnt stage's density in place of a
	// private maxent.SolveSketch(sk, Solver). It is the seam through which an
	// owner of the sketch that memoizes its solve — a query-engine rollup, a
	// moments.Sketch — shares that one solve with the cascade: shared reports
	// that the solution already existed rather than being solved by this
	// call. It must answer for the sketch passed to Threshold; it is not a
	// tuning knob.
	Solve func() (sol *maxent.Solution, shared bool, err error)
}

// solve runs the MaxEnt stage's solve through the Solve seam when there is
// one.
func (cfg *Config) solve(sk *core.Sketch) (*maxent.Solution, bool, error) {
	if cfg.Solve != nil {
		return cfg.Solve()
	}
	sol, err := maxent.SolveSketch(sk, cfg.Solver)
	return sol, false, err
}

// Full returns the complete cascade configuration.
func Full() Config {
	return Config{UseSimple: true, UseMarkov: true, UseRTT: true}
}

// Stats accumulates per-stage resolution counts and time. Aggregate across
// calls by passing the same Stats pointer; pass nil to skip accounting.
type Stats struct {
	Queries  int
	Resolved [NumStages]int
	Time     [NumStages]time.Duration
	// Solves counts successful maximum-entropy solves performed for the
	// MaxEnt stage; WarmSolves counts how many of them were warm-started
	// from Options.Theta0; NewtonIters accumulates their Newton iteration
	// counts — the measurable currency of the warm-start optimization.
	// SharedSolves counts MaxEnt-stage queries answered from a solution
	// Config.Solve already held, which cost no solve at all.
	Solves       int
	WarmSolves   int
	NewtonIters  int
	SharedSolves int
}

// Reached returns how many queries reached the given stage (i.e. were not
// resolved earlier).
func (st *Stats) Reached(s Stage) int {
	n := st.Queries
	for i := Stage(0); i < s; i++ {
		n -= st.Resolved[i]
	}
	return n
}

// FractionHit returns the fraction of all queries processed by each stage —
// the Fig. 13c series.
func (st *Stats) FractionHit() [NumStages]float64 {
	var out [NumStages]float64
	if st.Queries == 0 {
		return out
	}
	for s := Stage(0); s < NumStages; s++ {
		out[s] = float64(st.Reached(s)) / float64(st.Queries)
	}
	return out
}

// Threshold reports whether the φ-quantile of the sketched data exceeds t,
// resolving through the configured cascade stages. The answer is consistent
// with evaluating the maximum-entropy quantile directly. If the final
// solver stage fails to converge (near-discrete data), the decision falls
// back to the midpoint of the tightest available bound and err carries the
// solver failure.
func Threshold(sk *core.Sketch, t, phi float64, cfg Config, stats *Stats) (bool, error) {
	above, _, err := ThresholdSolve(sk, t, phi, cfg, stats)
	return above, err
}

// ThresholdSolve is Threshold, additionally returning the maximum-entropy
// solution when the MaxEnt stage ran and converged (nil when an earlier
// stage settled the query or the solver failed). Sliding-window scanners use
// the returned θ to warm-start the next position's solve.
func ThresholdSolve(sk *core.Sketch, t, phi float64, cfg Config, stats *Stats) (bool, *maxent.Solution, error) {
	if stats != nil {
		stats.Queries++
	}
	if sk.IsEmpty() {
		return false, nil, core.ErrEmpty
	}

	if cfg.UseSimple {
		start := now(stats)
		if t >= sk.Max {
			resolve(stats, StageSimple, start)
			return false, nil, nil
		}
		if t < sk.Min {
			resolve(stats, StageSimple, start)
			return true, nil, nil
		}
		charge(stats, StageSimple, start)
	}

	best := bounds.Full()
	if cfg.UseMarkov {
		start := now(stats)
		best = best.Intersect(bounds.Markov(sk, t))
		if best.Hi < phi {
			resolve(stats, StageMarkov, start)
			return true, nil, nil
		}
		if best.Lo > phi {
			resolve(stats, StageMarkov, start)
			return false, nil, nil
		}
		charge(stats, StageMarkov, start)
	}
	if cfg.UseRTT {
		start := now(stats)
		best = best.Intersect(bounds.RTT(sk, t))
		if best.Hi < phi {
			resolve(stats, StageRTT, start)
			return true, nil, nil
		}
		if best.Lo > phi {
			resolve(stats, StageRTT, start)
			return false, nil, nil
		}
		charge(stats, StageRTT, start)
	}

	start := now(stats)
	sol, shared, err := cfg.solve(sk)
	if err != nil {
		// Fallback: decide by the midpoint of the tightest guaranteed
		// bound. When the earlier stages were disabled (baseline
		// configurations), compute the RTT bounds now so the decision is
		// identical to what a bound-enabled cascade would reach — keeping
		// all configurations consistent even on solver-hostile data.
		if !cfg.UseRTT {
			best = best.Intersect(bounds.RTT(sk, t))
		}
		resolve(stats, StageMaxEnt, start)
		return (best.Lo+best.Hi)/2 < phi, nil, err
	}
	if stats != nil {
		if shared {
			stats.SharedSolves++
		} else {
			stats.Solves++
			stats.NewtonIters += sol.Iterations
			if sol.Warm {
				stats.WarmSolves++
			}
		}
	}
	q := sol.Quantile(phi)
	resolve(stats, StageMaxEnt, start)
	return q > t, sol, nil
}

func now(stats *Stats) time.Time {
	if stats == nil {
		return time.Time{}
	}
	return time.Now()
}

func charge(stats *Stats, s Stage, start time.Time) {
	if stats != nil {
		stats.Time[s] += time.Since(start)
	}
}

func resolve(stats *Stats, s Stage, start time.Time) {
	if stats != nil {
		stats.Time[s] += time.Since(start)
		stats.Resolved[s]++
	}
}

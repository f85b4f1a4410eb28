package window

import (
	"context"
	"errors"
	"time"

	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/maxent"
	"repro/internal/sketch"
)

// Result reports which windows fired and where the time went.
type Result struct {
	// Hot holds the starting pane index of each window whose φ-quantile
	// exceeded the threshold.
	Hot []int
	// MergeTime covers pane merge/subtract work; EstTime covers threshold
	// resolution.
	MergeTime time.Duration
	EstTime   time.Duration
	Stats     cascade.Stats
}

// ScanMoments slides a window of `width` panes across moments-sketch panes,
// reporting every window whose φ-quantile exceeds t. Pane sketches are not
// modified. Min/max for the live window are recomputed from the panes after
// each turnstile update, which keeps the sketch's support tight (Sub cannot
// shrink it).
//
// Positions whose threshold reaches the MaxEnt cascade stage seed the next
// position's Newton solve with the previous window's θ (adjacent windows
// differ by two panes, so the previous optimum is an excellent start);
// Result.Stats records the solve and iteration counts so the warm-start win
// is measurable. solver seeds the first position's solve; pass the zero
// value to start it cold.
func ScanMoments(panes []*core.Sketch, width int, t, phi float64, cfg cascade.Config, solver maxent.Options) (*Result, error) {
	return ScanMomentsContext(context.Background(), panes, width, t, phi, cfg, solver)
}

// ScanMomentsContext is ScanMoments with cancellation: the scan checks ctx
// between window positions, so a serving caller whose request dies does not
// keep resolving thresholds to the end of the pane stream.
func ScanMomentsContext(ctx context.Context, panes []*core.Sketch, width int, t, phi float64, cfg cascade.Config, solver maxent.Options) (*Result, error) {
	res := &Result{}
	if width <= 0 || len(panes) < width {
		return res, nil
	}
	start := time.Now()
	cur := core.New(panes[0].K)
	for _, p := range panes[:width] {
		if err := cur.Merge(p); err != nil {
			return nil, err
		}
	}
	res.MergeTime += time.Since(start)

	cfg.Solver = solver
	for w := 0; ; w++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Tighten the tracked range to the live panes before estimating.
		lo, hi := PaneRange(panes[w : w+width])
		cur.TightenRange(lo, hi)

		// A window with no data has no quantile to breach — skip it rather
		// than aborting the scan (pane streams from a live store can have
		// gaps).
		if !cur.IsEmpty() {
			est := time.Now()
			// A solver failure still yields a bound-based fallback decision
			// from the cascade; only structural errors (empty sketch) abort.
			above, sol, err := cascade.ThresholdSolve(cur, t, phi, cfg, &res.Stats)
			if err != nil && errors.Is(err, core.ErrEmpty) {
				return nil, err
			}
			if sol != nil && len(sol.Theta) > 0 {
				// Seed the next position's Newton solve from this one's θ.
				// Dimension mismatches (the next window selects a different
				// basis) fall back to a cold start inside the solver.
				cfg.Solver.Theta0 = sol.Theta
			}
			res.EstTime += time.Since(est)
			if above {
				res.Hot = append(res.Hot, w)
			}
		}

		if w+width >= len(panes) {
			break
		}
		mrg := time.Now()
		if err := cur.Sub(panes[w]); err != nil {
			return nil, err
		}
		// Sub cannot restore min/max; reset to the widest possible before
		// the next TightenRange pass.
		cur.Min, cur.Max = lo, hi
		if err := cur.Merge(panes[w+width]); err != nil {
			return nil, err
		}
		res.MergeTime += time.Since(mrg)
	}
	return res, nil
}

// PaneRange returns the tightest [lo, hi] across the panes' values (±Inf
// when every pane is empty) — the range TightenRange needs after turnstile
// subtraction, shared by this package's scanners and the query engine's
// sliding-window executor.
func PaneRange(panes []*core.Sketch) (lo, hi float64) {
	lo, hi = panes[0].Min, panes[0].Max
	for _, p := range panes[1:] {
		if p.Min < lo {
			lo = p.Min
		}
		if p.Max > hi {
			hi = p.Max
		}
	}
	return lo, hi
}

// ScanSummaries is the non-turnstile comparison path: every window position
// re-merges all `width` pane summaries from scratch (mergeable summaries
// generally cannot subtract), then thresholds on the direct quantile
// estimate.
func ScanSummaries(panes []sketch.Summary, width int, t, phi float64, factory func() sketch.Summary) (*Result, error) {
	res := &Result{}
	if width <= 0 || len(panes) < width {
		return res, nil
	}
	for w := 0; w+width <= len(panes); w++ {
		mrg := time.Now()
		cur := factory()
		for _, p := range panes[w : w+width] {
			if err := cur.Merge(p); err != nil {
				return nil, err
			}
		}
		res.MergeTime += time.Since(mrg)

		est := time.Now()
		if cur.Quantile(phi) > t {
			res.Hot = append(res.Hot, w)
		}
		res.EstTime += time.Since(est)
	}
	return res, nil
}

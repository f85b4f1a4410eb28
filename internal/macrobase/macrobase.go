// Package macrobase implements the paper's MacroBase integration (§7.2.1):
// given pre-aggregated per-cell summaries, find every dimension-value
// subgroup whose outlier rate exceeds a multiple of the global rate. With a
// global outlier threshold at the q-th percentile and a rate multiplier r,
// a subgroup qualifies exactly when its (1 − r·(1−q))-quantile exceeds the
// global q-quantile — a threshold query the moments-sketch cascade resolves
// without solving for most subgroups (Figs. 12–13).
package macrobase

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/sketch"
)

// Group is one subpopulation: the cells whose summaries merge into it.
type Group struct {
	Name  string
	Cells []sketch.Summary
	// CountAboveFn optionally reports the exact number of member values
	// above a threshold — the "Merge12b" optimistic counting baseline,
	// available only when the engine was built with raw-data access.
	CountAboveFn func(t float64) float64
}

// Options configures the outlier search.
type Options struct {
	// GlobalPhi is the global percentile defining an outlier (paper: 0.99).
	GlobalPhi float64
	// RateMultiplier is how many times the global outlier rate a group
	// needs to be reported (paper: 30× → subgroup quantile 0.70).
	RateMultiplier float64
	// Cascade picks which cascade stages run (moments-sketch mode only).
	Cascade cascade.Config
}

func (o *Options) defaults() {
	if o.GlobalPhi == 0 {
		o.GlobalPhi = 0.99
	}
	if o.RateMultiplier == 0 {
		o.RateMultiplier = 30
	}
}

// SubgroupPhi returns the quantile a subgroup is thresholded on.
func (o Options) SubgroupPhi() float64 {
	o.defaults()
	return 1 - o.RateMultiplier*(1-o.GlobalPhi)
}

// Report is the outcome of a search with its timing breakdown (Fig. 12).
type Report struct {
	Threshold float64 // the global quantile t
	Matches   []string
	MergeTime time.Duration
	EstTime   time.Duration
	Stats     cascade.Stats
	NumGroups int
	NumMerges int
}

// Mode selects the evaluation strategy.
type Mode int

const (
	// ModeCascade uses moments sketches with the threshold cascade.
	ModeCascade Mode = iota
	// ModeDirect estimates each subgroup quantile directly from its merged
	// summary (the "Baseline" of Fig. 12 when used with moments sketches,
	// or "Merge12a" with Merge12 summaries).
	ModeDirect
	// ModeCount uses per-group exact counts above the threshold — the
	// optimistic "Merge12b" baseline; groups must provide CountAboveFn.
	ModeCount
)

// Engine runs MacroBase-style outlier-rate searches over groups.
type Engine struct {
	Factory func() sketch.Summary
	Groups  []Group
}

// Run executes the search: merge all cells for the global threshold, then
// resolve each group through the selected mode.
func (e *Engine) Run(mode Mode, opts Options) (*Report, error) {
	opts.defaults()
	rep := &Report{NumGroups: len(e.Groups)}
	subPhi := opts.SubgroupPhi()
	if subPhi <= 0 || subPhi >= 1 {
		return nil, fmt.Errorf("macrobase: rate multiplier %v yields invalid subgroup quantile %v",
			opts.RateMultiplier, subPhi)
	}

	// Phase 1: global threshold from merging every cell.
	start := time.Now()
	global := e.Factory()
	merged := make([]sketch.Summary, 0, len(e.Groups))
	for _, g := range e.Groups {
		agg := e.Factory()
		for _, cell := range g.Cells {
			if err := agg.Merge(cell); err != nil {
				return nil, err
			}
			rep.NumMerges++
		}
		if err := global.Merge(agg); err != nil {
			return nil, err
		}
		rep.NumMerges++
		merged = append(merged, agg)
	}
	rep.MergeTime = time.Since(start)

	start = time.Now()
	t := global.Quantile(opts.GlobalPhi)
	rep.Threshold = t

	// Phase 2: per-group threshold checks.
	for i, g := range e.Groups {
		var above bool
		switch mode {
		case ModeCascade:
			ms, ok := merged[i].(*sketch.MSketch)
			if !ok {
				return nil, fmt.Errorf("macrobase: cascade mode requires moments sketches, got %s", merged[i].Name())
			}
			// Solver failures still yield a bound-based fallback decision;
			// an empty group simply never matches.
			res, err := cascade.Threshold(ms.S.Raw(), t, subPhi, opts.Cascade, &rep.Stats)
			if err != nil && errors.Is(err, core.ErrEmpty) {
				res = false
			}
			above = res
		case ModeDirect:
			above = merged[i].Quantile(subPhi) > t
		case ModeCount:
			if g.CountAboveFn == nil {
				return nil, fmt.Errorf("macrobase: group %q lacks CountAboveFn for count mode", g.Name)
			}
			n := merged[i].Count()
			above = g.CountAboveFn(t) > (1-subPhi)*n
		}
		if above {
			rep.Matches = append(rep.Matches, g.Name)
		}
	}
	rep.EstTime = time.Since(start)
	return rep, nil
}

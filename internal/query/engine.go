package query

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bounds"
	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/maxent"
	"repro/internal/shard"
	"repro/internal/sketch"
)

// Config configures an Engine.
type Config struct {
	// Separator splits keys into segments for group_by selections
	// (default ".").
	Separator string
	// Workers bounds how many rollups one request resolves or evaluates at
	// once (default GOMAXPROCS).
	Workers int
	// SolveCache bounds the cross-request solve cache to this many solved
	// rollups (0 disables it). Entries are keyed on the solver's exact
	// inputs — the moment vector and its warm seed — so a hit is the
	// solve a miss would have run, whatever was ingested meanwhile; see
	// Engine.CacheStats for the hit/miss/eviction counters.
	SolveCache int
}

// Engine plans and executes batched query requests against a shard store.
// All methods are safe for concurrent use.
type Engine struct {
	store   *shard.Store
	backend sketch.Backend
	sep     string
	workers int
	cache   *solveCache // nil when disabled

	cascadeStats cascadeCounters
}

// cascadeCounters is cascade.Stats as lock-free running totals: every
// threshold aggregation folds its single-query Stats in with atomic adds.
type cascadeCounters struct {
	queries, solves, warmSolves, newtonIters, sharedSolves atomic.Int64
	resolved, nanos                                        [cascade.NumStages]atomic.Int64
}

// NewEngine wires an Engine around store.
func NewEngine(store *shard.Store, cfg Config) *Engine {
	if cfg.Separator == "" {
		cfg.Separator = "."
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		store:   store,
		backend: store.Backend(),
		sep:     cfg.Separator,
		workers: cfg.Workers,
	}
	if cfg.SolveCache > 0 {
		e.cache = newSolveCache(cfg.SolveCache)
	}
	return e
}

// Backend returns the serving summary backend the engine answers from.
func (e *Engine) Backend() sketch.Backend { return e.backend }

// CacheStats snapshots the solve cache's counters (zero-valued with
// Enabled=false when the cache is disabled).
func (e *Engine) CacheStats() CacheStats { return e.cache.stats() }

// CascadeStats returns the accumulated threshold-cascade counters. Solves,
// WarmSolves and NewtonIters cover the solves thresholds performed;
// SharedSolves counts thresholds that reached the MaxEnt stage and reused
// the rollup's already memoized solution instead.
func (e *Engine) CascadeStats() cascade.Stats {
	c := &e.cascadeStats
	st := cascade.Stats{
		Queries:      int(c.queries.Load()),
		Solves:       int(c.solves.Load()),
		WarmSolves:   int(c.warmSolves.Load()),
		NewtonIters:  int(c.newtonIters.Load()),
		SharedSolves: int(c.sharedSolves.Load()),
	}
	for i := range st.Resolved {
		st.Resolved[i] = int(c.resolved[i].Load())
		st.Time[i] = time.Duration(c.nanos[i].Load())
	}
	return st
}

func (e *Engine) foldCascadeStats(st *cascade.Stats) {
	c := &e.cascadeStats
	c.queries.Add(int64(st.Queries))
	c.solves.Add(int64(st.Solves))
	c.warmSolves.Add(int64(st.WarmSolves))
	c.newtonIters.Add(int64(st.NewtonIters))
	c.sharedSolves.Add(int64(st.SharedSolves))
	for i := range st.Resolved {
		c.resolved[i].Add(int64(st.Resolved[i]))
		c.nanos[i].Add(int64(st.Time[i]))
	}
}

// Task is one planned unit of execution: a unique selection plus the index
// of every subquery that references it. Deduplicating selections means a
// batch that asks ten different aggregations of the same rollup merges its
// sketches once — and ships them from each shard node once — and solves its
// max-ent density at most once.
type Task struct {
	Sel        Selection
	Subqueries []int
}

// Plan is the planner every executor shares — Engine.Execute against a local
// store, cluster.Coordinator.Execute against shard nodes. It checks the
// request envelope (the returned *Error is non-nil only for an empty or
// oversized batch), validates every subquery without touching any data,
// rejects aggregations the serving backend cannot answer, and deduplicates
// selections so each distinct rollup is materialized exactly once. results
// has one entry per subquery with its ID set; subqueries that failed
// validation carry their Error there and belong to no task.
func Plan(req *Request, backend sketch.Backend) (tasks []*Task, results []Result, err *Error) {
	if req == nil || len(req.Queries) == 0 {
		return nil, nil, Errorf(CodeInvalid, "request needs at least one subquery")
	}
	if len(req.Queries) > MaxSubqueries {
		return nil, nil, Errorf(CodeTooLarge, "too many subqueries (%d > %d)", len(req.Queries), MaxSubqueries)
	}
	results = make([]Result, len(req.Queries))
	taskBySel := make(map[string]*Task)
	for i := range req.Queries {
		sq := &req.Queries[i]
		results[i].ID = sq.ID
		if err := sq.validate(); err != nil {
			results[i].Error = err
			continue
		}
		if err := validateBackendOps(backend, sq); err != nil {
			results[i].Error = err
			continue
		}
		key := selectionKey(&sq.Select)
		t, ok := taskBySel[key]
		if !ok {
			t = &Task{Sel: sq.Select}
			taskBySel[key] = t
			tasks = append(tasks, t)
		}
		t.Subqueries = append(t.Subqueries, i)
	}
	return tasks, results, nil
}

// group is one materialized rollup. On the moments backend, sk holds the
// raw moments view and the group carries a lazily solved, memoized
// maximum-entropy density, shared by every aggregation that needs it — the
// threshold cascade's MaxEnt stage included. Groups produced by
// sliding-window selections are chained through prev so a position's solve
// warm-starts from the previous window's θ when that window has been solved.
// On other backends sk is nil and aggregations evaluate directly against the
// serving summary in sum. A group lives for one request; the solve is
// guarded by a sync.Once so the memo is safe whichever unit of the
// request's scheduler reaches it.
type group struct {
	label  string
	window *WindowRange // wall-clock span, window selections only
	keys   int
	sum    sketch.Serving // serving summary (nil on moments-internal paths)
	sk     *core.Sketch   // raw moments view; nil on non-moments backends
	prev   *group         // previous sliding-window position, nil otherwise

	once   sync.Once
	solved atomic.Bool // sol/solErr are set: lets the next position peek without blocking
	sol    *maxent.Solution
	solErr error
}

// newGroup wraps a serving summary, extracting the raw moments view when
// the backend carries one. The summary is compacted first, so any lazily
// buffered state is flushed before evaluation starts — after this,
// Quantile is a pure read on every backend.
func newGroup(sum sketch.Serving, keys int) *group {
	if c, ok := sum.(sketch.Compactor); ok {
		c.Compact()
	}
	return &group{keys: keys, sum: sum, sk: sketch.RawMoments(sum)}
}

// count returns the rollup's observation count.
func (g *group) count() float64 {
	if g.sk != nil {
		return g.sk.Count
	}
	return g.sum.Count()
}

// solve returns the group's memoized maximum-entropy solution, solving on
// first use through the engine's solve cache c (nil: no cache); shared
// reports that the solution already existed — memoized on the group, or
// cached from an earlier solve of the same inputs — so the cascade counts
// only real solves. Quantiles, cdf, histogram and the cascade's MaxEnt
// stage all come through here, so a rollup is solved at most once however
// its aggregations are ordered. A window position seeds Newton from the
// previous position's θ only if that position is already solved: positions
// are evaluated oldest-first, so a quantile series still chains every
// solve, while a threshold that falls through to MaxEnt never forces
// solves its neighbours' bounds had avoided.
func (g *group) solve(c *solveCache) (sol *maxent.Solution, shared bool, err error) {
	shared = true
	g.once.Do(func() {
		var opts maxent.Options
		if p := g.prev; p != nil && p.solved.Load() && p.solErr == nil && len(p.sol.Theta) > 0 {
			opts.Theta0 = p.sol.Theta
		}
		g.sol, shared, g.solErr = c.solve(g.sk, opts)
		g.solved.Store(true)
	})
	return g.sol, shared, g.solErr
}

// solution is solve for callers that only need the density.
func (g *group) solution(c *solveCache) (*maxent.Solution, error) {
	sol, _, err := g.solve(c)
	return sol, err
}

// Execute plans (see Plan) and runs a batched request on the per-request
// scheduler (run): each unique selection resolves once, then every rollup
// it produced evaluates as its own unit, at most Config.Workers at a time.
// Each failure is isolated to its own Result. The returned *Error is
// non-nil only for request-envelope problems (an empty or oversized batch)
// — per-subquery failures never fail the batch.
func (e *Engine) Execute(ctx context.Context, req *Request) (*Response, *Error) {
	tasks, results, err := Plan(req, e.backend)
	if err != nil {
		return nil, err
	}
	e.run(ctx, req, tasks, results, func(i int) ([]*group, *Error) {
		return e.resolveSelection(ctx, &tasks[i].Sel)
	})
	return &Response{Results: results}, nil
}

// selectionKey canonicalizes a selection for deduplication. Every
// variable-length attacker-controlled component (key, prefix) sits at the
// tail, after all fixed-alphabet discriminators, so no crafted key bytes
// can make two distinct selections collide: the first byte separates the
// selection classes, and the window spec — digits and punctuation only —
// is NUL-terminated before the base selector begins.
func selectionKey(sel *Selection) string {
	var base string
	switch {
	case sel.Key != "":
		base = "k\x00" + sel.Key
	case sel.GroupBy != nil:
		base = "g\x00" + strconv.Itoa(*sel.GroupBy) + "\x00" + *sel.Prefix
	default:
		base = "p\x00" + *sel.Prefix
	}
	if w := sel.Window; w != nil {
		spec := strconv.Itoa(w.Last) + "," + strconv.Itoa(w.Step)
		if w.StartUnix != nil {
			spec += "," + strconv.FormatFloat(*w.StartUnix, 'g', -1, 64) +
				"," + strconv.FormatFloat(*w.EndUnix, 'g', -1, 64)
		}
		return "w" + spec + "\x00" + base
	}
	return base
}

// validateBackendOps rejects — before any data work — aggregations the
// serving backend cannot answer: cdf, rank_bounds, histogram and stats all
// read moment structure (solved densities, guaranteed moment bounds,
// closed-form statistics) that only the moments backend carries. Quantiles
// and thresholds evaluate directly on every backend.
func validateBackendOps(backend sketch.Backend, sq *Subquery) *Error {
	if backend.HasMoments() {
		return nil
	}
	for i := range sq.Aggregations {
		switch sq.Aggregations[i].Op {
		case OpQuantiles, OpThreshold:
		default:
			return Errorf(CodeBackendUnsupported,
				"aggregation %d: op %q requires moment structure the %q serving backend lacks (supported: %s, %s)",
				i, sq.Aggregations[i].Op, backend.Name, OpQuantiles, OpThreshold)
		}
	}
	return nil
}

// mergeError maps a rollup-merge failure onto the error envelope. A
// cross-backend merge (sketch.ErrTypeMismatch) gets the typed backend code
// — it means summaries of different families met, which a uniformly
// configured store cannot produce, so surfacing it loudly beats a generic
// internal error.
func mergeError(what string, err error) *Error {
	if errors.Is(err, sketch.ErrTypeMismatch) {
		return Errorf(CodeBackendUnsupported, "%s: cross-backend merge: %v", what, err)
	}
	return Errorf(CodeInternal, "%s: %v", what, err)
}

// ctxError maps a context failure onto the error envelope.
func ctxError(err error) *Error {
	if errors.Is(err, context.DeadlineExceeded) {
		return Errorf(CodeDeadline, "request deadline exceeded")
	}
	return Errorf(CodeCanceled, "request canceled")
}

// resolveSelection materializes the rollup(s) a selection names: one merged
// sketch for key and prefix selections, one per distinct segment value for
// group_by selections.
func (e *Engine) resolveSelection(ctx context.Context, sel *Selection) ([]*group, *Error) {
	if sel.Window != nil {
		return e.resolveWindow(ctx, sel)
	}
	switch {
	case sel.Key != "":
		sum, ok := e.store.Summary(sel.Key)
		if !ok || sum.IsEmpty() {
			return nil, Errorf(CodeNotFound, "no such key: %q", sel.Key)
		}
		return []*group{newGroup(sum, 1)}, nil

	default:
		return e.resolvePrefix(ctx, *sel.Prefix, sel.GroupBy)
	}
}

// evalGroup answers one subquery's aggregations on one rollup.
func (e *Engine) evalGroup(g *group, sq *Subquery) GroupResult {
	aggs := make([]AggResult, len(sq.Aggregations))
	for ai := range sq.Aggregations {
		aggs[ai] = e.evalAgg(g, &sq.Aggregations[ai])
	}
	return GroupResult{
		Group:        g.label,
		Backend:      e.backend.Name,
		Window:       g.window,
		Keys:         g.keys,
		Count:        g.count(),
		Aggregations: aggs,
	}
}

func (e *Engine) evalAgg(g *group, a *Aggregation) AggResult {
	if g.sk == nil {
		return e.evalAggDirect(g, a)
	}
	res := AggResult{Op: a.Op}
	switch a.Op {
	case OpQuantiles:
		phis := a.phis()
		sol, err := g.solution(e.cache)
		points := make([]QuantilePoint, len(phis))
		if err == nil {
			for i, v := range sol.Quantiles(phis) {
				points[i] = QuantilePoint{Q: phis[i], Value: v}
			}
		} else {
			// The degradation policy: invert the guaranteed rank bounds
			// when the solver cannot converge.
			for i, phi := range phis {
				points[i] = QuantilePoint{Q: phi, Value: bounds.InvertRTT(g.sk, phi)}
			}
		}
		res.Quantiles = points
		res.Degraded = err != nil

	case OpCDF:
		sol, err := g.solution(e.cache)
		if err != nil {
			res.Error = Errorf(CodeNotConverged, "%v", err)
			return res
		}
		points := make([]CDFPoint, len(a.Xs))
		for i, x := range a.Xs {
			points[i] = CDFPoint{X: x, Fraction: sol.CDF(x)}
		}
		res.CDF = points

	case OpThreshold:
		cfg := cascade.Full()
		cfg.Solve = func() (*maxent.Solution, bool, error) { return g.solve(e.cache) }
		var st cascade.Stats
		above, err := cascade.Threshold(g.sk, *a.T, a.thresholdPhi(), cfg, &st)
		e.foldCascadeStats(&st)
		if err != nil && !errors.Is(err, maxent.ErrNotConverged) {
			res.Error = Errorf(CodeInternal, "%v", err)
			return res
		}
		res.Threshold = &ThresholdResult{
			T:     *a.T,
			Phi:   a.thresholdPhi(),
			Above: above,
			Stage: resolvedStage(&st),
		}
		// The cascade still decided via guaranteed bounds; surface that the
		// solver did not converge rather than failing the aggregation.
		res.Degraded = err != nil

	case OpRankBounds:
		points := make([]RankBoundsPoint, len(a.Xs))
		for i, x := range a.Xs {
			iv := bounds.RTT(g.sk, x)
			points[i] = RankBoundsPoint{X: x, Lo: iv.Lo, Hi: iv.Hi}
		}
		res.RankBounds = points

	case OpHistogram:
		sol, err := g.solution(e.cache)
		if err != nil {
			res.Error = Errorf(CodeNotConverged, "%v", err)
			return res
		}
		res.Histogram = histogramOf(sol, a.Buckets)

	case OpStats:
		if g.sk.K < 2 {
			// The variance needs the second power sum.
			res.Error = Errorf(CodeBackendUnsupported,
				"op %q needs moments of order 2; the %s backend keeps order %d", a.Op, e.backend.Fingerprint(), g.sk.K)
			return res
		}
		res.Stats = &StatsResult{
			Count:    g.sk.Count,
			Min:      g.sk.Min,
			Max:      g.sk.Max,
			Mean:     g.sk.Mean(),
			Variance: g.sk.Variance(),
			StdDev:   g.sk.StdDev(),
		}
	}
	return res
}

// evalAggDirect answers an aggregation straight from the serving summary —
// the degradation path for backends without moment structure. Threshold
// queries compare the backend's own quantile estimate against t (no
// cascade, stage "Direct"); aggregations needing a solved density or
// guaranteed moment bounds are rejected with the typed backend code (the
// planner already filters them; this guards internal callers).
func (e *Engine) evalAggDirect(g *group, a *Aggregation) AggResult {
	res := AggResult{Op: a.Op}
	switch a.Op {
	case OpQuantiles:
		phis := a.phis()
		points := make([]QuantilePoint, len(phis))
		for i, phi := range phis {
			points[i] = QuantilePoint{Q: phi, Value: g.sum.Quantile(phi)}
		}
		res.Quantiles = points

	case OpThreshold:
		phi := a.thresholdPhi()
		res.Threshold = &ThresholdResult{
			T:     *a.T,
			Phi:   phi,
			Above: g.sum.Quantile(phi) > *a.T,
			Stage: "Direct",
		}

	default:
		res.Error = Errorf(CodeBackendUnsupported,
			"op %q requires moment structure the %q serving backend lacks", a.Op, e.backend.Name)
	}
	return res
}

// histogramOf renders a solved density as n equal-width buckets over its
// support. Fractions sum to ~1.
func histogramOf(sol *maxent.Solution, n int) []HistogramBucket {
	lo, hi := sol.Support()
	out := make([]HistogramBucket, n)
	prev := 0.0
	for i := 0; i < n; i++ {
		r := lo + (hi-lo)*float64(i+1)/float64(n)
		c := sol.CDF(r)
		out[i] = HistogramBucket{
			Lo:       lo + (hi-lo)*float64(i)/float64(n),
			Hi:       r,
			Fraction: c - prev,
		}
		prev = c
	}
	return out
}

// resolvedStage names the cascade stage that settled the single query
// recorded in st.
func resolvedStage(st *cascade.Stats) string {
	for stage := cascade.Stage(0); stage < cascade.NumStages; stage++ {
		if st.Resolved[stage] > 0 {
			return stage.String()
		}
	}
	return "?"
}

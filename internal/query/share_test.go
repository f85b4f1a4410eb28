package query

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/cascade"
	"repro/internal/maxent"
)

// maxentOnlyThreshold returns a (t, φ) pair on key that no bounds stage can
// settle: t sits 1 % above the solved φ-quantile, inside the RTT interval.
func maxentOnlyThreshold(t *testing.T, e *Engine, key string) (float64, float64) {
	t.Helper()
	const phi = 0.9
	groups, qerr := e.resolveSelection(context.Background(), &Selection{Key: key})
	if qerr != nil {
		t.Fatal(qerr)
	}
	sol, err := maxent.SolveSketch(groups[0].sk, maxent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sol.Quantile(phi) * 1.01, phi
}

// solveDelta runs fn and returns what it added to the cascade counters.
func solveDelta(stats func() cascade.Stats, fn func()) (solves, shared, iters int) {
	before := stats()
	fn()
	after := stats()
	return after.Solves - before.Solves, after.SharedSolves - before.SharedSolves, after.NewtonIters - before.NewtonIters
}

// checkShared asserts one evaluated quantiles+threshold group: the threshold
// reached MaxEnt and agrees with the quantile beside it.
func checkShared(t *testing.T, name string, g GroupResult, thresh float64) {
	t.Helper()
	var q *QuantilePoint
	var th *ThresholdResult
	for i := range g.Aggregations {
		a := &g.Aggregations[i]
		if a.Error != nil || a.Degraded {
			t.Fatalf("%s: aggregation %s: error %v degraded %v", name, a.Op, a.Error, a.Degraded)
		}
		if a.Op == OpQuantiles {
			q = &a.Quantiles[0]
		} else {
			th = a.Threshold
		}
	}
	if th.Stage != "MaxEnt" {
		t.Fatalf("%s: threshold resolved at %s, want MaxEnt", name, th.Stage)
	}
	if th.Above != (q.Value > thresh) {
		t.Errorf("%s: above=%v but the shared density's quantile is %v against t=%v", name, th.Above, q.Value, thresh)
	}
}

// TestThresholdSharesRollupSolve: a quantiles+threshold subquery whose
// threshold only max-ent can decide solves its rollup once — whichever
// aggregation comes first, cold and again on a solve-cache hit.
func TestThresholdSharesRollupSolve(t *testing.T) {
	store, _ := seedStore(t, 1, 2, 500)
	for _, order := range []string{"quantiles-first", "threshold-first"} {
		e := NewEngine(store, Config{SolveCache: 16})
		thresh, phi := maxentOnlyThreshold(t, e, "g0.k0")
		aggs := []Aggregation{
			{Op: OpQuantiles, Phis: []float64{phi}},
			{Op: OpThreshold, T: &thresh, Phi: &phi},
		}
		wantSolves := 0
		if order == "threshold-first" {
			aggs[0], aggs[1] = aggs[1], aggs[0]
			wantSolves = 1 // the threshold's solve fills the memo the quantiles reuse
		}
		req := &Request{Queries: []Subquery{{Select: Selection{Key: "g0.k0"}, Aggregations: aggs}}}

		var res Result
		solves, shared, iters := solveDelta(e.CascadeStats, func() { res = execOne(t, e, req) })
		checkShared(t, order+"/cold", res.Groups[0], thresh)
		if solves != wantSolves || shared != 1-wantSolves || (iters > 0) != (wantSolves > 0) {
			t.Errorf("%s/cold: cascade solved %d (%d Newton iterations), shared %d; want %d solves, %d shared",
				order, solves, iters, shared, wantSolves, 1-wantSolves)
		}

		// Same request again: the rollup's density comes back from the solve
		// cache, and the threshold must use it rather than re-solve.
		hits := e.CacheStats().Hits
		solves, shared, _ = solveDelta(e.CascadeStats, func() { res = execOne(t, e, req) })
		if e.CacheStats().Hits != hits+1 {
			t.Fatalf("%s: second request missed the solve cache", order)
		}
		checkShared(t, order+"/cached", res.Groups[0], thresh)
		if solves != 0 || shared != 1 {
			t.Errorf("%s/cached: cascade solved %d, shared %d; want 0 solves, 1 shared", order, solves, shared)
		}
	}
}

// TestEvaluatorSharesRollupSolve is the same contract on the coordinator's
// store-free path: merged partials, one solve per rollup.
func TestEvaluatorSharesRollupSolve(t *testing.T) {
	store, _ := seedStore(t, 1, 2, 500)
	e := NewEngine(store, Config{})
	thresh, phi := maxentOnlyThreshold(t, e, "g0.k1")
	sum, ok := store.Summary("g0.k1")
	if !ok {
		t.Fatal("missing key")
	}
	ev := NewEvaluator(store.Backend())
	for _, order := range []string{"quantiles-first", "threshold-first"} {
		aggs := []Aggregation{
			{Op: OpQuantiles, Phis: []float64{phi}},
			{Op: OpThreshold, T: &thresh, Phi: &phi},
		}
		wantSolves := 0
		if order == "threshold-first" {
			aggs[0], aggs[1] = aggs[1], aggs[0]
			wantSolves = 1
		}
		req := &Request{Queries: []Subquery{{Select: Selection{Key: "g0.k1"}, Aggregations: aggs}}}
		tasks, results, qerr := Plan(req, ev.Backend())
		if qerr != nil {
			t.Fatal(qerr)
		}
		merged := []MergedGroup{{Label: "g0.k1", Keys: 1, Sum: sum.Clone()}}
		solves, shared, _ := solveDelta(ev.CascadeStats, func() {
			ev.Execute(context.Background(), req, tasks, results, func(int) ([]MergedGroup, *Error) { return merged, nil })
		})
		checkShared(t, "evaluator/"+order, results[0].Groups[0], thresh)
		if solves != wantSolves || shared != 1-wantSolves {
			t.Errorf("evaluator/%s: cascade solved %d, shared %d; want %d and %d", order, solves, shared, wantSolves, 1-wantSolves)
		}
	}
}

// TestSlidingThresholdSolvesOnlyWhereMaxEntIsReached: over a sliding
// selection whose early positions the bounds stages settle and whose last
// falls through to MaxEnt, exactly that position is solved — cold, because
// its unsolved neighbour has no θ to offer. Reaching MaxEnt must never drag
// the warm-start chain's earlier positions into solves the bounds avoided.
func TestSlidingThresholdSolvesOnlyWhereMaxEntIsReached(t *testing.T) {
	e, _, _ := windowedFixture(t, time.Second, 24, 24, 100)
	thresh, phi := 520.0, 0.95
	sel := Selection{Key: "us.web", Window: &WindowSpec{Last: 4, Step: 1}}
	groups, qerr := e.resolveSelection(context.Background(), &sel)
	if qerr != nil {
		t.Fatal(qerr)
	}
	sq := &Subquery{Aggregations: []Aggregation{{Op: OpThreshold, T: &thresh, Phi: &phi}}}
	out := make([]GroupResult, len(groups))
	for gi, g := range groups {
		out[gi] = e.evalGroup(g, sq)
	}
	last := len(out) - 1
	for gi, g := range out {
		stage := g.Aggregations[0].Threshold.Stage
		if (stage == "MaxEnt") != (gi == last) {
			t.Fatalf("position %d of %d resolved at %s; the fixture wants MaxEnt at the last position only", gi, len(out), stage)
		}
		if groups[gi].solved.Load() != (gi == last) {
			t.Errorf("position %d: solved=%v", gi, groups[gi].solved.Load())
		}
	}
	if st := e.CascadeStats(); st.Solves != 1 || st.WarmSolves != 0 || st.SharedSolves != 0 {
		t.Errorf("cascade stats %+v, want exactly one cold solve", st)
	}

	// Where consecutive positions do reach MaxEnt, each seeds the next.
	thresh, phi = 560, 0.95
	e2, _, _ := windowedFixture(t, time.Second, 24, 24, 100)
	res := execOne(t, e2, windowSubquery(sel, Aggregation{Op: OpThreshold, T: &thresh, Phi: &phi}))
	reached := 0
	for _, g := range res.Groups {
		if g.Aggregations[0].Threshold.Stage == "MaxEnt" {
			reached++
		}
	}
	if st := e2.CascadeStats(); reached < 2 || st.Solves != reached || st.WarmSolves == 0 {
		t.Errorf("%d positions reached MaxEnt; cascade stats %+v, want that many solves, some warm", reached, st)
	}
}

// TestSharedSolveFailureStillDegrades: when the rollup's one solve does not
// converge, the quantiles degrade to inverted bounds and a threshold that
// reaches MaxEnt decides by the bounds midpoint, flagged degraded — from
// the memoized failure, without a second attempt.
func TestSharedSolveFailureStillDegrades(t *testing.T) {
	store, _ := seedStore(t, 1, 1, 10)
	points := []float64{0, 1, 1e6}
	for i := 0; i < 999; i++ {
		store.Add("flat", points[i%3])
	}
	e := NewEngine(store, Config{})
	thresh, phi := 0.5, 0.5
	res := execOne(t, e, &Request{Queries: []Subquery{{
		Select: Selection{Key: "flat"},
		Aggregations: []Aggregation{
			{Op: OpQuantiles, Phis: []float64{phi}},
			{Op: OpThreshold, T: &thresh, Phi: &phi},
		},
	}}})
	aggs := res.Groups[0].Aggregations
	if aggs[0].Error != nil || !aggs[0].Degraded {
		t.Errorf("quantiles: error %v degraded %v, want a degraded answer", aggs[0].Error, aggs[0].Degraded)
	}
	th := aggs[1]
	if th.Error != nil || th.Threshold == nil || th.Threshold.Stage != "MaxEnt" || !th.Degraded {
		t.Fatalf("threshold: %+v (error %v), want a degraded MaxEnt-stage decision", th.Threshold, th.Error)
	}
	if st := e.CascadeStats(); st.Solves != 0 || st.Resolved[cascade.StageMaxEnt] != 1 {
		t.Errorf("cascade stats %+v, want the MaxEnt stage reached with no successful solve", st)
	}
}

// TestSharedWindowGroupsConcurrent: 8 concurrent identical requests share
// the cached Solutions of one sliding-window scan — thresholds that reach
// MaxEnt at some positions only, plus a quantile series — so cached
// densities, the solved flags each request's positions peek at, the cache
// itself and the atomic cascade counters are all raced (run under -race).
// Every request must answer what the request that filled the cache
// answered, without solving anything.
func TestSharedWindowGroupsConcurrent(t *testing.T) {
	_, store, _ := windowedFixture(t, time.Second, 24, 24, 100)
	e := NewEngine(store, Config{SolveCache: 64})
	thresh, phi := 560.0, 0.9
	req := windowSubquery(Selection{Key: "us.web", Window: &WindowSpec{Last: 4, Step: 1}},
		Aggregation{Op: OpThreshold, T: &thresh, Phi: &phi},
		Aggregation{Op: OpQuantiles, Phis: []float64{0.5, 0.99}})
	// The quantile series solves every position, so the cache holds the
	// whole warm-started chain before the concurrent requests start.
	first := mustExecute(t, e, req)
	want := respJSON(t, first)
	positions := len(first.Results[0].Groups)
	filled := e.CacheStats()
	queries := e.CascadeStats().Queries

	const workers = 8
	out := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, qerr := e.Execute(context.Background(), req)
			if qerr != nil {
				t.Error(qerr)
				return
			}
			out[w] = respJSON(t, resp)
		}()
	}
	wg.Wait()
	for w := range out {
		if out[w] != want {
			t.Fatalf("request %d answered differently from the request that filled the cache:\n%s\n%s", w, out[w], want)
		}
	}
	st := e.CacheStats()
	if st.Misses != filled.Misses || st.Hits-filled.Hits != uint64(workers*positions) {
		t.Errorf("cache after %d requests over %d positions: %+v (filled at %+v), want only hits", workers, positions, st, filled)
	}
	if got := e.CascadeStats().Queries - queries; got != workers*positions {
		t.Errorf("cascade counted %d threshold queries, want %d", got, workers*positions)
	}
}

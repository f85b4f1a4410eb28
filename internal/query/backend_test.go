package query

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/shard"
	"repro/internal/sketch"
)

// backendFixture builds an engine over a non-moments store with a known
// sample per key.
func backendFixture(t *testing.T, b sketch.Backend) (*Engine, map[string][]float64) {
	t.Helper()
	store := shard.New(shard.WithShards(4), shard.WithBackend(b))
	rng := rand.New(rand.NewPCG(71, 72))
	values := map[string][]float64{}
	for i := 0; i < 3000; i++ {
		key := fmt.Sprintf("us.svc%d", i%3)
		v := math.Exp(rng.NormFloat64())
		store.Add(key, v)
		values[key] = append(values[key], v)
	}
	for _, data := range values {
		sort.Float64s(data)
	}
	return NewEngine(store, Config{}), values
}

func sampleRank(sorted []float64, x float64) float64 {
	return float64(sort.SearchFloat64s(sorted, x)) / float64(len(sorted))
}

func ptrInt(i int) *int { return &i }

// TestBackendQuantilesEndToEnd: key, prefix and group-by quantile
// selections on non-moments backends must answer near the exact sample and
// tag every group with the backend name.
func TestBackendQuantilesEndToEnd(t *testing.T) {
	for _, b := range []sketch.Backend{sketch.Merge12Backend(64), sketch.TDigestBackend(100)} {
		t.Run(b.Name, func(t *testing.T) {
			e, values := backendFixture(t, b)

			// Exact key.
			res := execOne(t, e, &Request{Queries: []Subquery{{
				Select:       Selection{Key: "us.svc0"},
				Aggregations: []Aggregation{{Op: OpQuantiles, Phis: []float64{0.5, 0.99}}},
			}}})
			if res.Error != nil {
				t.Fatal(res.Error)
			}
			g := res.Groups[0]
			if g.Backend != b.Name {
				t.Errorf("group backend = %q, want %q", g.Backend, b.Name)
			}
			if g.Count != float64(len(values["us.svc0"])) {
				t.Errorf("count = %v, want %d", g.Count, len(values["us.svc0"]))
			}
			for _, qp := range g.Aggregations[0].Quantiles {
				if r := sampleRank(values["us.svc0"], qp.Value); math.Abs(r-qp.Q) > 0.06 {
					t.Errorf("q(%v) = %v has sample rank %v", qp.Q, qp.Value, r)
				}
			}

			// Prefix rollup.
			var all []float64
			for _, data := range values {
				all = append(all, data...)
			}
			sort.Float64s(all)
			res = execOne(t, e, &Request{Queries: []Subquery{{
				Select:       Selection{Prefix: ptr("us.")},
				Aggregations: []Aggregation{{Op: OpQuantiles, Phis: []float64{0.9}}},
			}}})
			if res.Error != nil {
				t.Fatal(res.Error)
			}
			if res.Groups[0].Keys != 3 {
				t.Errorf("rollup keys = %d, want 3", res.Groups[0].Keys)
			}
			q := res.Groups[0].Aggregations[0].Quantiles[0].Value
			if r := sampleRank(all, q); math.Abs(r-0.9) > 0.06 {
				t.Errorf("rollup q(0.9) = %v has sample rank %v", q, r)
			}

			// Group-by through the summary-agnostic fold.
			res = execOne(t, e, &Request{Queries: []Subquery{{
				Select:       Selection{Prefix: ptr("us."), GroupBy: ptrInt(1)},
				Aggregations: []Aggregation{{Op: OpQuantiles, Phis: []float64{0.5}}},
			}}})
			if res.Error != nil {
				t.Fatal(res.Error)
			}
			if len(res.Groups) != 3 {
				t.Fatalf("group_by produced %d groups, want 3", len(res.Groups))
			}
			for _, g := range res.Groups {
				data := values["us."+g.Group]
				if g.Count != float64(len(data)) {
					t.Errorf("group %s: count %v, want %d", g.Group, g.Count, len(data))
				}
				med := g.Aggregations[0].Quantiles[0].Value
				if r := sampleRank(data, med); math.Abs(r-0.5) > 0.06 {
					t.Errorf("group %s: median %v has sample rank %v", g.Group, med, r)
				}
			}
		})
	}
}

// TestBackendThresholdDirect: thresholds on non-moments backends resolve by
// direct quantile comparison, stage "Direct".
func TestBackendThresholdDirect(t *testing.T) {
	e, values := backendFixture(t, sketch.TDigestBackend(100))
	data := values["us.svc1"]
	median := data[len(data)/2]
	for _, tc := range []struct {
		t     float64
		above bool
	}{{median * 100, false}, {data[0] / 2, true}} {
		th := tc.t
		res := execOne(t, e, &Request{Queries: []Subquery{{
			Select:       Selection{Key: "us.svc1"},
			Aggregations: []Aggregation{{Op: OpThreshold, T: &th, Phi: ptrF(0.5)}},
		}}})
		if res.Error != nil {
			t.Fatal(res.Error)
		}
		got := res.Groups[0].Aggregations[0].Threshold
		if got.Above != tc.above || got.Stage != "Direct" {
			t.Errorf("threshold t=%v: above=%v stage=%q, want above=%v stage=Direct", tc.t, got.Above, got.Stage, tc.above)
		}
	}
}

// TestBackendUnsupportedOps: aggregations needing moment structure must be
// rejected before any data work with the typed backend_unsupported code —
// and the error must map onto HTTP 400.
func TestBackendUnsupportedOps(t *testing.T) {
	e, _ := backendFixture(t, sketch.Merge12Backend(64))
	one := 1.0
	for _, agg := range []Aggregation{
		{Op: OpStats},
		{Op: OpCDF, Xs: []float64{1}},
		{Op: OpRankBounds, Xs: []float64{1}},
		{Op: OpHistogram, Buckets: 4},
	} {
		res := execOne(t, e, &Request{Queries: []Subquery{{
			Select:       Selection{Key: "us.svc0"},
			Aggregations: []Aggregation{agg},
		}}})
		if res.Error == nil || res.Error.Code != CodeBackendUnsupported {
			t.Errorf("op %s: error = %v, want %s", agg.Op, res.Error, CodeBackendUnsupported)
		}
		if res.Error != nil && res.Error.HTTPStatus() != http.StatusBadRequest {
			t.Errorf("op %s: HTTP status %d, want 400", agg.Op, res.Error.HTTPStatus())
		}
	}
	// A mixed batch isolates the failure: the supported subquery still runs.
	resp, qerr := e.Execute(context.Background(), &Request{Queries: []Subquery{
		{Select: Selection{Key: "us.svc0"}, Aggregations: []Aggregation{{Op: OpStats}}},
		{Select: Selection{Key: "us.svc0"}, Aggregations: []Aggregation{{Op: OpQuantiles}}},
		{Select: Selection{Key: "us.svc0"}, Aggregations: []Aggregation{{Op: OpThreshold, T: &one}}},
	}})
	if qerr != nil {
		t.Fatal(qerr)
	}
	if resp.Results[0].Error == nil || resp.Results[0].Error.Code != CodeBackendUnsupported {
		t.Errorf("stats subquery: %v", resp.Results[0].Error)
	}
	if resp.Results[1].Error != nil || resp.Results[2].Error != nil {
		t.Errorf("supported subqueries failed: %v / %v", resp.Results[1].Error, resp.Results[2].Error)
	}
}

// TestBackendWindowSelections: windowed selections on a tdigest store —
// whole-ring retained, trailing, and sliding (the re-merge fallback) — must
// match a per-position re-merge of the same pane series exactly (t-digest
// merges are deterministic, and both sides merge the same pane clones in
// the same order).
func TestBackendWindowSelections(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	store := shard.New(
		shard.WithShards(2),
		shard.WithBackend(sketch.TDigestBackend(100)),
		shard.WithWindow(time.Second, 12),
		shard.WithClock(func() time.Time { return now }),
	)
	rng := rand.New(rand.NewPCG(81, 82))
	for step := 0; step < 12; step++ {
		if step > 0 {
			now = now.Add(time.Second)
		}
		for i := 0; i < 30; i++ {
			store.Add("us.web", 10+rng.ExpFloat64()*20)
		}
	}
	e := NewEngine(store, Config{})
	ps, err := store.Panes("us.web")
	if err != nil {
		t.Fatal(err)
	}
	oracleQ := func(a, b int, phi float64) float64 {
		sum := store.Backend().New()
		for _, p := range ps.Panes[a:b] {
			if err := sum.Merge(p); err != nil {
				t.Fatal(err)
			}
		}
		return sum.Quantile(phi)
	}

	// Trailing window.
	res := execOne(t, e, windowSubquery(Selection{Key: "us.web", Window: &WindowSpec{Last: 4}}))
	if res.Error != nil {
		t.Fatal(res.Error)
	}
	if got, want := res.Groups[0].Aggregations[0].Quantiles[1].Value, oracleQ(8, 12, 0.99); got != want {
		t.Errorf("trailing window p99 = %v, oracle %v", got, want)
	}
	if res.Groups[0].Backend != "tdigest" {
		t.Errorf("window group backend = %q", res.Groups[0].Backend)
	}

	// Whole-ring retained fast path: count must be exact.
	res = execOne(t, e, windowSubquery(Selection{Key: "us.web", Window: &WindowSpec{}}))
	if res.Error != nil {
		t.Fatal(res.Error)
	}
	var wantCount float64
	for _, p := range ps.Panes {
		wantCount += p.Count()
	}
	if res.Groups[0].Count != wantCount {
		t.Errorf("retained count = %v, want %v", res.Groups[0].Count, wantCount)
	}

	// Sliding windows: the re-merge fallback, one group per position.
	res = execOne(t, e, windowSubquery(Selection{Key: "us.web", Window: &WindowSpec{Last: 4, Step: 2}}))
	if res.Error != nil {
		t.Fatal(res.Error)
	}
	wantPositions := (12-4)/2 + 1
	if len(res.Groups) != wantPositions {
		t.Fatalf("%d sliding groups, want %d", len(res.Groups), wantPositions)
	}
	for gi, g := range res.Groups {
		a := gi * 2
		if got, want := g.Aggregations[0].Quantiles[0].Value, oracleQ(a, a+4, 0.5); got != want {
			t.Errorf("position %d: median %v, oracle %v", gi, got, want)
		}
	}
}

// TestMergeErrorMapsTypeMismatch: a cross-backend merge error surfacing
// from any rollup path must map onto the typed backend_unsupported envelope
// rather than a generic internal error. (A uniformly configured store can't
// produce one — this pins the defense-in-depth mapping.)
func TestMergeErrorMapsTypeMismatch(t *testing.T) {
	err := mergeError("merging prefix \"us.\"", sketch.ErrTypeMismatch)
	if err.Code != CodeBackendUnsupported {
		t.Errorf("ErrTypeMismatch mapped to %q, want %q", err.Code, CodeBackendUnsupported)
	}
	if !strings.Contains(err.Message, "cross-backend merge") {
		t.Errorf("message %q does not name the cross-backend merge", err.Message)
	}
	wrapped := fmt.Errorf("cube: %w", sketch.ErrTypeMismatch)
	if got := mergeError("rollup", wrapped); got.Code != CodeBackendUnsupported {
		t.Errorf("wrapped ErrTypeMismatch mapped to %q", got.Code)
	}
	if got := mergeError("rollup", errors.New("disk on fire")); got.Code != CodeInternal {
		t.Errorf("unrelated error mapped to %q, want %q", got.Code, CodeInternal)
	}
}

// TestEvalAggDirectRejectsMomentOps: the direct evaluator (reachable via
// cached groups even if the planner is bypassed) refuses moment-structure
// ops with the typed code.
func TestEvalAggDirectRejectsMomentOps(t *testing.T) {
	e, _ := backendFixture(t, sketch.SamplingBackend(256))
	sum, ok := e.store.Summary("us.svc0")
	if !ok {
		t.Fatal("fixture key missing")
	}
	g := newGroup(sum, 1)
	if g.sk != nil {
		t.Fatal("sampling summary claims a moments view")
	}
	res := e.evalAgg(g, &Aggregation{Op: OpStats})
	if res.Error == nil || res.Error.Code != CodeBackendUnsupported {
		t.Errorf("direct stats eval: %v, want %s", res.Error, CodeBackendUnsupported)
	}
}

// TestBackendCachedGroupConcurrentReads: concurrent Execute calls over one
// t-digest key answer identically. Backend quantile evaluation must be a
// pure read of the group's summary — the digest's lazily buffered
// centroids are compacted at group creation so this holds. The solve
// cache holds max-ent solves only, so non-moments groups never leave their
// request. Run under -race in CI; identical answers across goroutines pin
// determinism.
func TestBackendCachedGroupConcurrentReads(t *testing.T) {
	store := shard.New(shard.WithShards(2), shard.WithBackend(sketch.TDigestBackend(100)))
	// Not a multiple of the digest's 4·compression scratch buffer, so the
	// read clone holds buffered centroids that a lazy Quantile would
	// flush — exactly the mutation the group-creation Compact prevents.
	for i := 0; i < 4111; i++ {
		store.Add("k", float64(i%97))
	}
	req := &Request{Queries: []Subquery{{
		Select:       Selection{Key: "k"},
		Aggregations: []Aggregation{{Op: OpQuantiles, Phis: []float64{0.1, 0.5, 0.9, 0.99}}},
	}}}
	// Repeat with a fresh engine per round so -race gets many shots at
	// concurrent first evaluations.
	for round := 0; round < 20; round++ {
		e := NewEngine(store, Config{SolveCache: 16})
		results := make([][]QuantilePoint, 8)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				resp, qerr := e.Execute(context.Background(), req)
				if qerr != nil || resp.Results[0].Error != nil {
					t.Errorf("concurrent execute: %v / %v", qerr, resp.Results[0].Error)
					return
				}
				results[w] = resp.Results[0].Groups[0].Aggregations[0].Quantiles
			}(w)
		}
		wg.Wait()
		for w := 1; w < 8; w++ {
			for qi := range results[0] {
				if results[w][qi] != results[0][qi] {
					t.Fatalf("round %d: goroutines saw different quantiles: %v vs %v", round, results[w][qi], results[0][qi])
				}
			}
		}
	}
}

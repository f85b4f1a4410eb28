package query

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/shard"
)

func strPtr(s string) *string { return &s }
func intPtr(i int) *int       { return &i }
func f64Ptr(f float64) *float64 {
	return &f
}

// seedStore ingests numGroups × keysPerGroup keys named g<i>.k<j>, each
// with perKey lognormal observations shifted by its group index, and
// returns the store plus the raw per-key samples.
func seedStore(t testing.TB, numGroups, keysPerGroup, perKey int) (*shard.Store, map[string][]float64) {
	t.Helper()
	store := shard.New(shard.WithShards(8))
	rng := rand.New(rand.NewPCG(42, 43))
	data := map[string][]float64{}
	for g := 0; g < numGroups; g++ {
		for k := 0; k < keysPerGroup; k++ {
			key := fmt.Sprintf("g%d.k%d", g, k)
			for i := 0; i < perKey; i++ {
				v := math.Exp(rng.NormFloat64()*0.5) + float64(g)
				store.Add(key, v)
				data[key] = append(data[key], v)
			}
		}
	}
	return store, data
}

func TestValidation(t *testing.T) {
	store, _ := seedStore(t, 1, 1, 10)
	e := NewEngine(store, Config{})

	cases := []struct {
		name string
		sq   Subquery
	}{
		{"no selection", Subquery{Aggregations: []Aggregation{{Op: OpStats}}}},
		{"key and prefix", Subquery{
			Select:       Selection{Key: "a", Prefix: strPtr("b")},
			Aggregations: []Aggregation{{Op: OpStats}},
		}},
		{"group_by without prefix", Subquery{
			Select:       Selection{Key: "a", GroupBy: intPtr(0)},
			Aggregations: []Aggregation{{Op: OpStats}},
		}},
		{"negative group_by", Subquery{
			Select:       Selection{Prefix: strPtr(""), GroupBy: intPtr(-1)},
			Aggregations: []Aggregation{{Op: OpStats}},
		}},
		{"no aggregations", Subquery{Select: Selection{Key: "g0.k0"}}},
		{"unknown op", Subquery{
			Select:       Selection{Key: "g0.k0"},
			Aggregations: []Aggregation{{Op: "median"}},
		}},
		{"missing op", Subquery{
			Select:       Selection{Key: "g0.k0"},
			Aggregations: []Aggregation{{}},
		}},
		{"bad phi", Subquery{
			Select:       Selection{Key: "g0.k0"},
			Aggregations: []Aggregation{{Op: OpQuantiles, Phis: []float64{1.5}}},
		}},
		{"NaN phi", Subquery{
			Select:       Selection{Key: "g0.k0"},
			Aggregations: []Aggregation{{Op: OpQuantiles, Phis: []float64{math.NaN()}}},
		}},
		{"cdf without xs", Subquery{
			Select:       Selection{Key: "g0.k0"},
			Aggregations: []Aggregation{{Op: OpCDF}},
		}},
		{"threshold without t", Subquery{
			Select:       Selection{Key: "g0.k0"},
			Aggregations: []Aggregation{{Op: OpThreshold}},
		}},
		{"threshold with inf t", Subquery{
			Select:       Selection{Key: "g0.k0"},
			Aggregations: []Aggregation{{Op: OpThreshold, T: f64Ptr(math.Inf(1))}},
		}},
		{"threshold bad phi", Subquery{
			Select:       Selection{Key: "g0.k0"},
			Aggregations: []Aggregation{{Op: OpThreshold, T: f64Ptr(1), Phi: f64Ptr(2)}},
		}},
		{"histogram without buckets", Subquery{
			Select:       Selection{Key: "g0.k0"},
			Aggregations: []Aggregation{{Op: OpHistogram}},
		}},
	}
	for _, tc := range cases {
		resp, qerr := e.Execute(context.Background(), &Request{Queries: []Subquery{tc.sq}})
		if qerr != nil {
			t.Fatalf("%s: request-level error %v, want per-subquery error", tc.name, qerr)
		}
		res := resp.Results[0]
		if res.Error == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if res.Error.Code != CodeInvalid {
			t.Errorf("%s: code = %q, want %q", tc.name, res.Error.Code, CodeInvalid)
		}
	}

	if _, qerr := e.Execute(context.Background(), &Request{}); qerr == nil || qerr.Code != CodeInvalid {
		t.Errorf("empty request: error = %v, want %s", qerr, CodeInvalid)
	}
	if _, qerr := e.Execute(context.Background(), nil); qerr == nil || qerr.Code != CodeInvalid {
		t.Errorf("nil request: error = %v, want %s", qerr, CodeInvalid)
	}
	huge := &Request{Queries: make([]Subquery, MaxSubqueries+1)}
	if _, qerr := e.Execute(context.Background(), huge); qerr == nil || qerr.Code != CodeTooLarge {
		t.Errorf("oversized request: error = %v, want %s", qerr, CodeTooLarge)
	}
}

// TestBatchedGroupByIsolation is the acceptance scenario: a single request
// carrying well over 100 group-by and key subqueries, with invalid and
// missing-key subqueries interleaved, returns per-subquery results whose
// failures are isolated from the rest of the batch.
func TestBatchedGroupByIsolation(t *testing.T) {
	store, data := seedStore(t, 8, 4, 500)
	e := NewEngine(store, Config{})

	var req Request
	kind := make([]string, 0, 140)
	for i := 0; i < 140; i++ {
		switch {
		case i%11 == 5: // missing key
			req.Queries = append(req.Queries, Subquery{
				ID:           fmt.Sprintf("q%d", i),
				Select:       Selection{Key: fmt.Sprintf("missing%d", i)},
				Aggregations: []Aggregation{{Op: OpStats}},
			})
			kind = append(kind, "missing")
		case i%11 == 9: // invalid aggregation
			req.Queries = append(req.Queries, Subquery{
				ID:           fmt.Sprintf("q%d", i),
				Select:       Selection{Key: "g0.k0"},
				Aggregations: []Aggregation{{Op: OpQuantiles, Phis: []float64{-3}}},
			})
			kind = append(kind, "invalid")
		default: // group-by over one group's prefix, by key segment 1
			prefix := fmt.Sprintf("g%d.", i%8)
			req.Queries = append(req.Queries, Subquery{
				ID:     fmt.Sprintf("q%d", i),
				Select: Selection{Prefix: &prefix, GroupBy: intPtr(1)},
				Aggregations: []Aggregation{
					{Op: OpQuantiles, Phis: []float64{0.5, 0.99}},
					{Op: OpStats},
				},
			})
			kind = append(kind, "groupby")
		}
	}

	resp, qerr := e.Execute(context.Background(), &req)
	if qerr != nil {
		t.Fatalf("Execute: %v", qerr)
	}
	if len(resp.Results) != len(req.Queries) {
		t.Fatalf("got %d results, want %d", len(resp.Results), len(req.Queries))
	}
	for i, res := range resp.Results {
		if res.ID != fmt.Sprintf("q%d", i) {
			t.Fatalf("result %d: id %q out of order", i, res.ID)
		}
		switch kind[i] {
		case "missing":
			if res.Error == nil || res.Error.Code != CodeNotFound {
				t.Errorf("result %d: error = %v, want %s", i, res.Error, CodeNotFound)
			}
		case "invalid":
			if res.Error == nil || res.Error.Code != CodeInvalid {
				t.Errorf("result %d: error = %v, want %s", i, res.Error, CodeInvalid)
			}
		case "groupby":
			if res.Error != nil {
				t.Errorf("result %d: unexpected error %v", i, res.Error)
				continue
			}
			if len(res.Groups) != 4 {
				t.Errorf("result %d: %d groups, want 4", i, len(res.Groups))
				continue
			}
			for _, g := range res.Groups {
				key := req.Queries[i].Select.prefixString() + g.Group
				want := data[key]
				if g.Keys != 1 || g.Count != float64(len(want)) {
					t.Errorf("result %d group %q: keys/count = %d/%v, want 1/%d",
						i, g.Group, g.Keys, g.Count, len(want))
				}
				sorted := append([]float64(nil), want...)
				sort.Float64s(sorted)
				for _, qp := range g.Aggregations[0].Quantiles {
					rank := float64(sort.SearchFloat64s(sorted, qp.Value)) / float64(len(sorted))
					if math.Abs(rank-qp.Q) > 0.06 {
						t.Errorf("result %d group %q: phi=%v estimate %v has rank %v",
							i, g.Group, qp.Q, qp.Value, rank)
					}
				}
			}
		}
	}
}

// prefixString is a test helper to rebuild the full key of a group.
func (sel *Selection) prefixString() string {
	if sel.Prefix == nil {
		return ""
	}
	return *sel.Prefix
}

// TestAggregations exercises each operator against per-key oracles.
func TestAggregations(t *testing.T) {
	store, data := seedStore(t, 2, 2, 4000)
	e := NewEngine(store, Config{})
	key := "g1.k0"
	sorted := append([]float64(nil), data[key]...)
	sort.Float64s(sorted)
	n := float64(len(sorted))

	req := Request{Queries: []Subquery{{
		Select: Selection{Key: key},
		Aggregations: []Aggregation{
			{Op: OpQuantiles}, // default phis
			{Op: OpCDF, Xs: []float64{2.0}},
			{Op: OpThreshold, T: f64Ptr(1.2)}, // default phi 0.99
			{Op: OpRankBounds, Xs: []float64{2.0}},
			{Op: OpHistogram, Buckets: 8},
			{Op: OpStats},
		},
	}}}
	resp, qerr := e.Execute(context.Background(), &req)
	if qerr != nil {
		t.Fatalf("Execute: %v", qerr)
	}
	res := resp.Results[0]
	if res.Error != nil {
		t.Fatalf("subquery error: %v", res.Error)
	}
	g := res.Groups[0]

	qs := g.Aggregations[0]
	if len(qs.Quantiles) != len(DefaultPhis) {
		t.Fatalf("quantiles: %d points, want %d", len(qs.Quantiles), len(DefaultPhis))
	}
	for _, qp := range qs.Quantiles {
		rank := float64(sort.SearchFloat64s(sorted, qp.Value)) / n
		if math.Abs(rank-qp.Q) > 0.05 {
			t.Errorf("quantiles: phi=%v estimate %v has rank %v", qp.Q, qp.Value, rank)
		}
	}

	cdf := g.Aggregations[1].CDF[0]
	trueFrac := float64(sort.SearchFloat64s(sorted, 2.0)) / n
	if math.Abs(cdf.Fraction-trueFrac) > 0.05 {
		t.Errorf("cdf(2.0) = %v, true fraction %v", cdf.Fraction, trueFrac)
	}

	th := g.Aggregations[2].Threshold
	truePhi99 := sorted[int(0.99*n)]
	if th.Above != (truePhi99 > 1.2) {
		t.Errorf("threshold: above = %v, true p99 = %v vs t=1.2", th.Above, truePhi99)
	}
	if th.Stage == "?" {
		t.Errorf("threshold: unresolved stage")
	}

	rb := g.Aggregations[3].RankBounds[0]
	if trueFrac < rb.Lo-1e-9 || trueFrac > rb.Hi+1e-9 {
		t.Errorf("rank_bounds(2.0) = [%v,%v] excludes true fraction %v", rb.Lo, rb.Hi, trueFrac)
	}

	hist := g.Aggregations[4].Histogram
	if len(hist) != 8 {
		t.Fatalf("histogram: %d buckets, want 8", len(hist))
	}
	sum := 0.0
	for _, b := range hist {
		sum += b.Fraction
	}
	if math.Abs(sum-1) > 0.02 {
		t.Errorf("histogram fractions sum to %v, want ~1", sum)
	}

	st := g.Aggregations[5].Stats
	if st.Count != n || st.Min != sorted[0] || st.Max != sorted[len(sorted)-1] {
		t.Errorf("stats = %+v inconsistent with oracle (n=%v min=%v max=%v)",
			st, n, sorted[0], sorted[len(sorted)-1])
	}
}

// TestNotConvergedIsolation: a near-discrete key (three point masses with
// a huge dynamic range — the paper's §6.2.3 failure mode) makes the solver
// fail; cdf/histogram must error with not_converged while
// quantiles/threshold degrade to bounds, and other subqueries in the batch
// stay healthy.
func TestNotConvergedIsolation(t *testing.T) {
	store, _ := seedStore(t, 1, 1, 2000)
	points := []float64{0, 1, 1e6}
	for i := 0; i < 999; i++ {
		store.Add("flat", points[i%3])
	}
	e := NewEngine(store, Config{})

	req := Request{Queries: []Subquery{
		{
			Select: Selection{Key: "flat"},
			Aggregations: []Aggregation{
				{Op: OpCDF, Xs: []float64{5}},
				{Op: OpHistogram, Buckets: 4},
				{Op: OpQuantiles, Phis: []float64{0.5}},
				{Op: OpThreshold, T: f64Ptr(-1), Phi: f64Ptr(0.5)},
			},
		},
		{
			Select:       Selection{Key: "g0.k0"},
			Aggregations: []Aggregation{{Op: OpQuantiles, Phis: []float64{0.5}}},
		},
	}}
	resp, qerr := e.Execute(context.Background(), &req)
	if qerr != nil {
		t.Fatalf("Execute: %v", qerr)
	}
	flat := resp.Results[0]
	if flat.Error != nil {
		t.Fatalf("flat subquery error: %v", flat.Error)
	}
	aggs := flat.Groups[0].Aggregations
	for _, i := range []int{0, 1} {
		if aggs[i].Error == nil || aggs[i].Error.Code != CodeNotConverged {
			t.Errorf("agg %d (%s): error = %v, want %s", i, aggs[i].Op, aggs[i].Error, CodeNotConverged)
		}
	}
	if aggs[2].Error != nil {
		t.Errorf("quantiles errored (%v), want degraded fallback", aggs[2].Error)
	}
	if !aggs[2].Degraded {
		t.Errorf("quantiles on solver-hostile data not flagged degraded")
	}
	if v := aggs[2].Quantiles[0].Value; v < 0 || v > 1e6 {
		t.Errorf("degraded median = %v outside the data range [0, 1e6]", v)
	}
	// t below the minimum resolves in the range-filter stage regardless of
	// the solver, so the decision must be exact and not degraded.
	if th := aggs[3].Threshold; th == nil || !th.Above || th.Stage != "Simple" {
		t.Errorf("threshold below min: %+v, want above=true via Simple", th)
	}
	if aggs[3].Degraded {
		t.Errorf("range-filter threshold flagged degraded")
	}
	if resp.Results[1].Error != nil {
		t.Errorf("healthy subquery polluted: %v", resp.Results[1].Error)
	}
}

// TestGroupByKeysCountsMatchedKeys: distinct keys whose padded segments
// coincide ("a.b" and "a.b." both pad to [a, b, ""]) still count as two
// matched keys in GroupResult.Keys. It also pins the rest of the single-node
// group_by contract: groups in ascending byte order of the label (not the
// order labels first appear in the sorted key list), keys shorter than the
// level grouped under "", and a level at or past the deepest matched key
// rejected.
func TestGroupByKeysCountsMatchedKeys(t *testing.T) {
	store := shard.New(shard.WithShards(4))
	store.Add("a.b", 1)
	store.Add("a.b.", 2)
	store.Add("a.c.x", 3)
	e := NewEngine(store, Config{})

	prefix := ""
	resp, qerr := e.Execute(context.Background(), &Request{Queries: []Subquery{{
		Select:       Selection{Prefix: &prefix, GroupBy: intPtr(0)},
		Aggregations: []Aggregation{{Op: OpStats}},
	}}})
	if qerr != nil {
		t.Fatalf("Execute: %v", qerr)
	}
	res := resp.Results[0]
	if res.Error != nil {
		t.Fatalf("subquery error: %v", res.Error)
	}
	if len(res.Groups) != 1 {
		t.Fatalf("%d groups, want 1 (all keys share segment 0 = \"a\")", len(res.Groups))
	}
	g := res.Groups[0]
	if g.Group != "a" || g.Keys != 3 || g.Count != 3 {
		t.Errorf("group = %q keys = %d count = %v, want a/3/3", g.Group, g.Keys, g.Count)
	}

	// Sorted keys a-b.x < a.w < a.z < b.y < c first show their labels in
	// an order that differs from ascending at both levels.
	ordered := shard.New(shard.WithShards(4))
	for i, k := range []string{"a.z", "b.y", "a-b.x", "a.w", "c"} {
		ordered.Add(k, float64(i))
	}
	oe := NewEngine(ordered, Config{})
	groupBy := func(e *Engine, level int) Result {
		t.Helper()
		resp, qerr := e.Execute(context.Background(), &Request{Queries: []Subquery{{
			Select:       Selection{Prefix: &prefix, GroupBy: intPtr(level)},
			Aggregations: []Aggregation{{Op: OpStats}},
		}}})
		if qerr != nil {
			t.Fatalf("Execute group_by %d: %v", level, qerr)
		}
		return resp.Results[0]
	}
	labels := func(r Result) []string {
		var out []string
		for _, g := range r.Groups {
			out = append(out, g.Group)
		}
		return out
	}
	for level, want := range [][]string{{"a", "a-b", "b", "c"}, {"", "w", "x", "y", "z"}} {
		r := groupBy(oe, level)
		if r.Error != nil {
			t.Fatalf("group_by %d: %v", level, r.Error)
		}
		if got := labels(r); !reflect.DeepEqual(got, want) {
			t.Errorf("group_by %d labels = %q, want %q", level, got, want)
		}
	}

	// Level 2 of a.b, a.b., a.c.x: the two-segment a.b has no third
	// segment and groups under "" with a.b. (whose third segment is "").
	r := groupBy(e, 2)
	if r.Error != nil {
		t.Fatalf("group_by 2: %v", r.Error)
	}
	if got, want := labels(r), []string{"", "x"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("group_by 2 labels = %q, want %q", got, want)
	}
	if r.Groups[0].Keys != 2 || r.Groups[0].Count != 2 || r.Groups[1].Keys != 1 {
		t.Errorf("group_by 2 groups = %+v, want \"\" with 2 keys and 2 obs, x with 1 key", r.Groups)
	}

	// The deepest matched key has 3 segments, so level 3 is out of range.
	r = groupBy(e, 3)
	if r.Error == nil || r.Error.Code != CodeInvalid ||
		r.Error.Message != "group_by must be a key-segment index in [0,3)" {
		t.Errorf("group_by 3 error = %+v, want %s \"group_by must be a key-segment index in [0,3)\"", r.Error, CodeInvalid)
	}
}

// TestSelectionDedup: subqueries sharing a selection must return identical
// results (they share one merge and one memoized solve).
func TestSelectionDedup(t *testing.T) {
	store, _ := seedStore(t, 4, 4, 300)
	e := NewEngine(store, Config{})
	prefix := "g2."
	sq := Subquery{
		Select:       Selection{Prefix: &prefix},
		Aggregations: []Aggregation{{Op: OpQuantiles, Phis: []float64{0.1, 0.5, 0.9}}},
	}
	req := Request{Queries: []Subquery{sq, sq, sq}}
	resp, qerr := e.Execute(context.Background(), &req)
	if qerr != nil {
		t.Fatalf("Execute: %v", qerr)
	}
	for i := 1; i < 3; i++ {
		if !reflect.DeepEqual(resp.Results[0].Groups, resp.Results[i].Groups) {
			t.Fatalf("result %d differs from result 0 on the same selection", i)
		}
	}
	if resp.Results[0].Groups[0].Keys != 4 {
		t.Errorf("prefix rollup keys = %d, want 4", resp.Results[0].Groups[0].Keys)
	}
}

// TestContextDeadline: an already-expired context fails every subquery
// with deadline_exceeded rather than running the batch, and a deadline
// that passes mid-request stops the units not yet started.
func TestContextDeadline(t *testing.T) {
	store, _ := seedStore(t, 4, 4, 100)
	e := NewEngine(store, Config{})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	prefix := ""
	req := Request{Queries: []Subquery{
		{Select: Selection{Prefix: &prefix}, Aggregations: []Aggregation{{Op: OpStats}}},
		{Select: Selection{Key: "g0.k0"}, Aggregations: []Aggregation{{Op: OpStats}}},
	}}
	resp, qerr := e.Execute(ctx, &req)
	if qerr != nil {
		t.Fatalf("Execute: %v", qerr)
	}
	for i, res := range resp.Results {
		if res.Error == nil || res.Error.Code != CodeDeadline {
			t.Errorf("result %d: error = %v, want %s", i, res.Error, CodeDeadline)
		}
	}

	canceled, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	resp, qerr = e.Execute(canceled, &req)
	if qerr != nil {
		t.Fatalf("Execute: %v", qerr)
	}
	if resp.Results[0].Error == nil || resp.Results[0].Error.Code != CodeCanceled {
		t.Errorf("canceled ctx: error = %v, want %s", resp.Results[0].Error, CodeCanceled)
	}

	// A deadline passing mid-request: a 64-group group_by whose
	// resolve succeeds stops at its remaining group units. countdownCtx
	// lets exactly three units run — the scheduler consults the context
	// once before the resolve, the resolve's walk some fixed number of
	// times (probed below), then once before each unit.
	many, _ := seedStore(t, 64, 2, 50)
	grouped := Request{Queries: []Subquery{{
		Select:       Selection{Prefix: &prefix, GroupBy: intPtr(0)},
		Aggregations: []Aggregation{{Op: OpThreshold, T: f64Ptr(3), Phi: f64Ptr(0.5)}},
	}}}
	probe := newCountdownCtx(1 << 40)
	if groups, qerr := NewEngine(many, Config{}).resolveSelection(probe, &grouped.Queries[0].Select); qerr != nil || len(groups) != 64 {
		t.Fatalf("resolve: %d groups, err %v", len(groups), qerr)
	}
	walkChecks := 1<<40 - probe.left.Load()
	for _, workers := range []int{1, 8} {
		e := NewEngine(many, Config{Workers: workers})
		resp, qerr := e.Execute(newCountdownCtx(1+walkChecks+3), &grouped)
		if qerr != nil {
			t.Fatalf("Execute: %v", qerr)
		}
		if r := resp.Results[0]; r.Error == nil || r.Error.Code != CodeDeadline || r.Groups != nil {
			t.Fatalf("workers=%d: group_by past its deadline answered %d groups, error %v; want %s", workers, len(r.Groups), r.Error, CodeDeadline)
		}
		evaluated := e.CascadeStats().Queries
		if workers == 1 && evaluated != 3 || evaluated >= 64 {
			t.Errorf("workers=%d: %d of 64 group units ran past the deadline check", workers, evaluated)
		}
	}
}

// TestConcurrentExecuteStress runs many concurrent batched Executes (under
// -race) and checks every result against a single-threaded, uncached oracle
// engine: the parallel executor must return bit-identical results, also
// when its solve cache hands one request's solutions to another.
func TestConcurrentExecuteStress(t *testing.T) {
	store, _ := seedStore(t, 6, 5, 400)
	// The parallel engine's solve cache shares solutions across the
	// concurrent requests.
	parallel := NewEngine(store, Config{Workers: 8, SolveCache: 64})
	oracle := NewEngine(store, Config{Workers: 1})

	mkReq := func(seed int) *Request {
		var req Request
		for i := 0; i < 20; i++ {
			switch (seed + i) % 4 {
			case 0:
				req.Queries = append(req.Queries, Subquery{
					Select:       Selection{Key: fmt.Sprintf("g%d.k%d", (seed+i)%6, i%5)},
					Aggregations: []Aggregation{{Op: OpQuantiles, Phis: []float64{0.5, 0.9}}, {Op: OpStats}},
				})
			case 1:
				prefix := fmt.Sprintf("g%d.", i%6)
				req.Queries = append(req.Queries, Subquery{
					Select:       Selection{Prefix: &prefix},
					Aggregations: []Aggregation{{Op: OpQuantiles, Phis: []float64{0.99}}},
				})
			case 2:
				prefix := ""
				req.Queries = append(req.Queries, Subquery{
					Select:       Selection{Prefix: &prefix, GroupBy: intPtr(0)},
					Aggregations: []Aggregation{{Op: OpStats}, {Op: OpRankBounds, Xs: []float64{2}}},
				})
			default:
				req.Queries = append(req.Queries, Subquery{
					Select:       Selection{Key: fmt.Sprintf("missing%d", i)},
					Aggregations: []Aggregation{{Op: OpStats}},
				})
			}
		}
		return &req
	}

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for iter := 0; iter < 5; iter++ {
				req := mkReq(seed)
				got, qerr := parallel.Execute(context.Background(), req)
				if qerr != nil {
					errs <- fmt.Errorf("parallel Execute: %v", qerr)
					return
				}
				want, qerr := oracle.Execute(context.Background(), req)
				if qerr != nil {
					errs <- fmt.Errorf("oracle Execute: %v", qerr)
					return
				}
				if !reflect.DeepEqual(got, want) {
					errs <- fmt.Errorf("seed %d iter %d: parallel results diverge from single-threaded oracle", seed, iter)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

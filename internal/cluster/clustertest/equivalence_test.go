package clustertest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"testing"
	"time"

	"repro/internal/encoding"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/sketch"
)

// The equivalence suite: every scatter-gather answer must match the
// single-store oracle's. On the moments backend the comparison is exact —
// ExactValue keeps every power sum an integer well inside float64, so the
// merged moment vectors are bit-identical no matter how the merge tree is
// split across nodes, and the deterministic solver maps identical inputs to
// identical outputs. On merge12 — a randomized summary whose retained
// samples depend on the merge tree — the suite pins rank behavior instead:
// per-key-constant atom values with φ probed mid-atom, so any compaction
// schedule within the sketch's guarantees returns the same atom.

func strp(s string) *string   { return &s }
func intp(i int) *int         { return &i }
func f64p(v float64) *float64 { return &v }

// seedGrid seeds every key with per-key deterministic ExactValue streams,
// optionally fanned across timestamps (one batch per element of times).
func seedGrid(t testing.TB, c *Cluster, keys []string, perKey int, times []time.Time) {
	t.Helper()
	var obs []Obs
	if len(times) == 0 {
		times = []time.Time{{}}
	}
	for ti, ts := range times {
		for ki, k := range keys {
			for i := 0; i < perKey; i++ {
				obs = append(obs, Obs{Key: k, Value: ExactValue(ti*31 + ki*7 + i), TS: ts})
			}
		}
	}
	c.Seed(t, obs)
}

func gridKeys(regions, services []string, n int) []string {
	var keys []string
	for _, r := range regions {
		for _, s := range services {
			for i := 0; i < n; i++ {
				keys = append(keys, fmt.Sprintf("%s.%s.%d", r, s, i))
			}
		}
	}
	return keys
}

// diffJSON compares two JSON-encodable values as decoded trees, numbers
// within tol (relative-plus-absolute); tol 0 demands exact equality.
func diffJSON(path string, got, want any, tol float64) []string {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			return []string{fmt.Sprintf("%s: got %T, want object", path, got)}
		}
		var diffs []string
		for k, wv := range w {
			diffs = append(diffs, diffJSON(path+"."+k, g[k], wv, tol)...)
		}
		for k := range g {
			if _, ok := w[k]; !ok {
				diffs = append(diffs, fmt.Sprintf("%s.%s: unexpected field %v", path, k, g[k]))
			}
		}
		return diffs
	case []any:
		g, ok := got.([]any)
		if !ok {
			return []string{fmt.Sprintf("%s: got %T, want array", path, got)}
		}
		if len(g) != len(w) {
			return []string{fmt.Sprintf("%s: got %d elements, want %d", path, len(g), len(w))}
		}
		var diffs []string
		for i := range w {
			diffs = append(diffs, diffJSON(fmt.Sprintf("%s[%d]", path, i), g[i], w[i], tol)...)
		}
		return diffs
	case float64:
		g, ok := got.(float64)
		if !ok {
			return []string{fmt.Sprintf("%s: got %T (%v), want number %v", path, got, got, w)}
		}
		if g != w && !(math.Abs(g-w) <= tol+tol*math.Abs(w)) {
			return []string{fmt.Sprintf("%s: got %v, want %v (tol %v)", path, g, w, tol)}
		}
		return nil
	default:
		if !equalJSONScalar(got, want) {
			return []string{fmt.Sprintf("%s: got %v, want %v", path, got, want)}
		}
		return nil
	}
}

func equalJSONScalar(a, b any) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a == b
}

// requireEquivalent runs the same request through the coordinator and the
// oracle and requires the responses to match within tol.
func requireEquivalent(t *testing.T, c *Cluster, req *query.Request, tol float64) *query.Response {
	t.Helper()
	got, gerr := c.Coord.Execute(t.Context(), req)
	if gerr != nil {
		t.Fatalf("coordinator: %v", gerr)
	}
	want, werr := c.Oracle.Execute(t.Context(), req)
	if werr != nil {
		t.Fatalf("oracle: %v", werr)
	}
	var gotTree, wantTree any
	gj, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wj, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(gj, &gotTree); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(wj, &wantTree); err != nil {
		t.Fatal(err)
	}
	if diffs := diffJSON("response", gotTree, wantTree, tol); len(diffs) > 0 {
		for _, d := range diffs {
			t.Error(d)
		}
		t.Fatalf("scatter-gather answer diverges from single-node oracle\n got: %s\nwant: %s", gj, wj)
	}
	return got
}

// momentsAggs exercises every operator the moments backend answers.
func momentsAggs() []query.Aggregation {
	return []query.Aggregation{
		{Op: query.OpQuantiles},
		{Op: query.OpQuantiles, Phis: []float64{0.05, 0.25, 0.5, 0.75, 0.95}},
		{Op: query.OpCDF, Xs: []float64{-8, -4.5, -1, 0, 0.5, 1}},
		{Op: query.OpThreshold, T: f64p(-2), Phi: f64p(0.5)},
		{Op: query.OpRankBounds, Xs: []float64{-6, -3, 0}},
		{Op: query.OpHistogram, Buckets: 6},
		{Op: query.OpStats},
	}
}

// TestScatterGatherEquivalenceMoments is the timeless moments suite: key,
// prefix-rollup and group-by selections across every operator must match
// the oracle exactly (tolerance zero — the merged moment vectors are
// bit-identical by construction).
func TestScatterGatherEquivalenceMoments(t *testing.T) {
	c := New(t, Config{StoreOpts: []shard.Option{shard.WithOrder(6)}})
	keys := gridKeys([]string{"us", "eu"}, []string{"web", "api"}, 6)
	seedGrid(t, c, keys, 40, nil)

	req := &query.Request{Queries: []query.Subquery{
		{ID: "key", Select: query.Selection{Key: "us.web.3"}, Aggregations: momentsAggs()},
		{ID: "prefix", Select: query.Selection{Prefix: strp("us.")}, Aggregations: momentsAggs()},
		{ID: "all", Select: query.Selection{Prefix: strp("")}, Aggregations: momentsAggs()},
		{ID: "by-region", Select: query.Selection{Prefix: strp(""), GroupBy: intp(0)}, Aggregations: momentsAggs()},
		{ID: "by-service", Select: query.Selection{Prefix: strp(""), GroupBy: intp(1)}, Aggregations: momentsAggs()},
		// Same selection as "prefix": the coordinator must deduplicate the
		// fan-out yet answer both subqueries.
		{ID: "dup", Select: query.Selection{Prefix: strp("us.")}, Aggregations: []query.Aggregation{{Op: query.OpStats}}},
		// Misses must carry the same typed envelope as a single node.
		{ID: "missing-prefix", Select: query.Selection{Prefix: strp("zz.")}, Aggregations: []query.Aggregation{{Op: query.OpStats}}},
		{ID: "missing-key", Select: query.Selection{Key: "zz.none"}, Aggregations: []query.Aggregation{{Op: query.OpStats}}},
		// Invalid subqueries fail identically without touching the cluster.
		{ID: "invalid", Select: query.Selection{Key: "us.web.3", Prefix: strp("us.")}, Aggregations: []query.Aggregation{{Op: query.OpStats}}},
	}}
	resp := requireEquivalent(t, c, req, 0)

	// Spot-check shape so "equivalently empty" cannot pass: the group-by
	// results really fan out and really carry every key.
	byID := map[string]*query.Result{}
	for i := range resp.Results {
		byID[resp.Results[i].ID] = &resp.Results[i]
	}
	if r := byID["by-region"]; len(r.Groups) != 2 {
		t.Fatalf("by-region groups = %d, want 2", len(r.Groups))
	}
	if r := byID["all"]; len(r.Groups) != 1 || r.Groups[0].Keys != len(keys) {
		t.Fatalf("all-prefix rollup keys = %+v, want %d", r.Groups, len(keys))
	}
	if r := byID["missing-prefix"]; r.Error == nil || r.Error.Code != query.CodeNotFound {
		t.Fatalf("missing prefix error = %+v, want %s", r.Error, query.CodeNotFound)
	}
}

// TestScatterGatherEquivalenceGroupOrder pins group order: the keys below
// first show their labels in an order that is not ascending at either
// level, and the coordinator (which merges partials by label) and a single
// node must still list groups identically.
func TestScatterGatherEquivalenceGroupOrder(t *testing.T) {
	c := New(t, Config{StoreOpts: []shard.Option{shard.WithOrder(6)}})
	// 37 observations per key (not a multiple of ExactValue's period of 10)
	// give every key, and so every group, a different distribution.
	seedGrid(t, c, []string{"a.z", "b.y", "a-b.x", "a.w"}, 37, nil)

	req := &query.Request{Queries: []query.Subquery{
		{ID: "level-0", Select: query.Selection{Prefix: strp(""), GroupBy: intp(0)}, Aggregations: momentsAggs()},
		{ID: "level-1", Select: query.Selection{Prefix: strp(""), GroupBy: intp(1)}, Aggregations: momentsAggs()},
	}}
	resp := requireEquivalent(t, c, req, 0)
	for i, n := range []int{3, 4} {
		if got := len(resp.Results[i].Groups); got != n {
			t.Fatalf("%s groups = %d, want %d", resp.Results[i].ID, got, n)
		}
	}
}

// TestScatterGatherEquivalenceMomentsWindowed covers the windowed
// selections: whole retained ring, trailing window, explicit range, sliding
// and tumbling positions — again exact against the oracle, with every store
// on the same fixed clock so panes line up across nodes.
func TestScatterGatherEquivalenceMomentsWindowed(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	opts := []shard.Option{
		shard.WithOrder(6),
		shard.WithWindow(time.Second, 8),
		shard.WithClock(func() time.Time { return base }),
	}
	c := New(t, Config{StoreOpts: opts})
	keys := gridKeys([]string{"us", "eu"}, []string{"web", "api"}, 3)
	times := make([]time.Time, 8)
	for i := range times {
		times[i] = base.Add(-time.Duration(7-i) * time.Second)
	}
	seedGrid(t, c, keys, 6, times)

	win := func(spec query.WindowSpec) *query.WindowSpec { return &spec }
	aggs := momentsAggs()
	req := &query.Request{Queries: []query.Subquery{
		{ID: "retained-prefix", Select: query.Selection{Prefix: strp("us."), Window: win(query.WindowSpec{})}, Aggregations: aggs},
		{ID: "retained-key", Select: query.Selection{Key: "eu.api.1", Window: win(query.WindowSpec{})}, Aggregations: aggs},
		{ID: "trailing", Select: query.Selection{Prefix: strp("us."), Window: win(query.WindowSpec{Last: 4})}, Aggregations: aggs},
		{ID: "range", Select: query.Selection{Prefix: strp(""), Window: win(query.WindowSpec{
			StartUnix: f64p(float64(base.Unix() - 6)),
			EndUnix:   f64p(float64(base.Unix() - 2)),
		})}, Aggregations: aggs},
		{ID: "sliding", Select: query.Selection{Prefix: strp(""), Window: win(query.WindowSpec{Last: 4, Step: 2})}, Aggregations: aggs},
		{ID: "tumbling", Select: query.Selection{Key: "us.web.0", Window: win(query.WindowSpec{Last: 2, Step: 2})}, Aggregations: aggs},
	}}
	resp := requireEquivalent(t, c, req, 0)

	for i := range resp.Results {
		r := &resp.Results[i]
		if r.Error != nil {
			t.Fatalf("%s: %v", r.ID, r.Error)
		}
		if r.ID == "sliding" && len(r.Groups) != 3 {
			t.Fatalf("sliding positions = %d, want 3", len(r.Groups))
		}
		for gi := range r.Groups {
			if r.Groups[gi].Window == nil {
				t.Fatalf("%s group %d: window metadata missing", r.ID, gi)
			}
		}
	}
}

// TestScatterGatherMergedMomentsBytesIdentical pins the strongest form of
// the equivalence claim below the solver: decoding every node's raw
// /v1/partials payloads and merging them yields byte-for-byte the codec
// frame the oracle's single-store merge produces.
func TestScatterGatherMergedMomentsBytesIdentical(t *testing.T) {
	c := New(t, Config{StoreOpts: []shard.Option{shard.WithOrder(6)}})
	keys := gridKeys([]string{"us", "eu"}, []string{"web", "api"}, 6)
	seedGrid(t, c, keys, 40, nil)

	backend := c.Coord.Backend()
	oracleSum, oracleKeys, err := c.OracleStore.MergePrefix("us.")
	if err != nil {
		t.Fatal(err)
	}
	oracleBytes, err := backend.Marshal(oracleSum)
	if err != nil {
		t.Fatal(err)
	}

	var merged sketch.Serving
	mergedKeys := 0
	for _, n := range c.Nodes {
		body, err := json.Marshal(map[string]any{
			"selections": []query.Selection{{Prefix: strp("us.")}},
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(n.HTTP.URL+"/v1/partials", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		frame, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		fp, sets, err := encoding.UnmarshalPartials(frame)
		if err != nil {
			t.Fatalf("node %s: %v", n.HTTP.URL, err)
		}
		if fp != backend.Fingerprint() {
			t.Fatalf("node %s fingerprint = %q, want %q", n.HTTP.URL, fp, backend.Fingerprint())
		}
		if len(sets) != 1 {
			t.Fatalf("node %s returned %d sets, want 1", n.HTTP.URL, len(sets))
		}
		if sets[0].Code == query.CodeNotFound {
			continue // this shard owns no matching keys
		}
		if sets[0].Code != "" {
			t.Fatalf("node %s: %s: %s", n.HTTP.URL, sets[0].Code, sets[0].Message)
		}
		if len(sets[0].Groups) != 1 {
			t.Fatalf("node %s returned %d groups, want 1", n.HTTP.URL, len(sets[0].Groups))
		}
		g := &sets[0].Groups[0]
		sum, err := backend.Unmarshal(g.Payload)
		if err != nil {
			t.Fatal(err)
		}
		mergedKeys += int(g.Keys)
		if merged == nil {
			merged = sum
		} else if err := merged.Merge(sum); err != nil {
			t.Fatal(err)
		}
	}
	if merged == nil {
		t.Fatal("no node returned a partial")
	}
	gotBytes, err := backend.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, oracleBytes) {
		t.Fatalf("merged shard partials are not byte-identical to the oracle merge:\n got %d bytes %x\nwant %d bytes %x",
			len(gotBytes), gotBytes, len(oracleBytes), oracleBytes)
	}
	if mergedKeys != oracleKeys {
		t.Fatalf("merged key count = %d, oracle = %d", mergedKeys, oracleKeys)
	}
}

// merge12Atoms are the per-key constant values of the merge12 suites. Four
// atoms at equal weight put each atom's rank interval at width 0.25, so a φ
// probed mid-atom carries a 12.5% margin — far beyond the sketch's rank
// error — and both the distributed and the single-store answer must return
// the same atom no matter how the randomized compactions fell.
var merge12Atoms = []float64{10, 20, 30, 40}

func seedMerge12(t testing.TB, c *Cluster, perKey int, times []time.Time) []string {
	t.Helper()
	keys := make([]string, 8)
	var obs []Obs
	if len(times) == 0 {
		times = []time.Time{{}}
	}
	for i := range keys {
		keys[i] = fmt.Sprintf("m.%d", i)
	}
	for _, ts := range times {
		for i, k := range keys {
			for j := 0; j < perKey; j++ {
				obs = append(obs, Obs{Key: k, Value: merge12Atoms[i%len(merge12Atoms)], TS: ts})
			}
		}
	}
	c.Seed(t, obs)
	return keys
}

// requireAtomQuantiles asserts one result's quantiles hit the expected
// atoms exactly.
func requireAtomQuantiles(t *testing.T, r *query.Result, wantGroups int, phis, atoms []float64) {
	t.Helper()
	if r.Error != nil {
		t.Fatalf("%s: %v", r.ID, r.Error)
	}
	if len(r.Groups) != wantGroups {
		t.Fatalf("%s: %d groups, want %d", r.ID, len(r.Groups), wantGroups)
	}
	for gi := range r.Groups {
		g := &r.Groups[gi]
		agg := g.Aggregations[0]
		if agg.Error != nil {
			t.Fatalf("%s group %d: %v", r.ID, gi, agg.Error)
		}
		if len(agg.Quantiles) != len(phis) {
			t.Fatalf("%s group %d: %d quantiles, want %d", r.ID, gi, len(agg.Quantiles), len(phis))
		}
		for i, qp := range agg.Quantiles {
			if qp.Q != phis[i] || qp.Value != atoms[i] {
				t.Errorf("%s group %d: quantile(%v) = %v, want atom %v", r.ID, gi, qp.Q, qp.Value, atoms[i])
			}
		}
	}
}

// TestScatterGatherEquivalenceMerge12 is the merge12 suite: quantiles and
// thresholds (the ops the backend answers) on mid-atom φ probes must agree
// between the coordinator, the oracle and the analytically known atom.
func TestScatterGatherEquivalenceMerge12(t *testing.T) {
	c := New(t, Config{StoreOpts: []shard.Option{shard.WithBackend(sketch.Merge12Backend(32))}})
	seedMerge12(t, c, 64, nil)

	phis := []float64{0.125, 0.375, 0.625, 0.875}
	req := &query.Request{Queries: []query.Subquery{
		{ID: "prefix", Select: query.Selection{Prefix: strp("m.")}, Aggregations: []query.Aggregation{
			{Op: query.OpQuantiles, Phis: phis},
			{Op: query.OpThreshold, T: f64p(25), Phi: f64p(0.375)},
			{Op: query.OpThreshold, T: f64p(25), Phi: f64p(0.875)},
		}},
		// A single key holds one constant: its whole distribution is an atom.
		{ID: "key", Select: query.Selection{Key: "m.3"}, Aggregations: []query.Aggregation{
			{Op: query.OpQuantiles, Phis: []float64{0.5}},
		}},
	}}
	got, gerr := c.Coord.Execute(t.Context(), req)
	if gerr != nil {
		t.Fatalf("coordinator: %v", gerr)
	}
	want, werr := c.Oracle.Execute(t.Context(), req)
	if werr != nil {
		t.Fatalf("oracle: %v", werr)
	}

	requireAtomQuantiles(t, &got.Results[0], 1, phis, merge12Atoms)
	requireAtomQuantiles(t, &want.Results[0], 1, phis, merge12Atoms)
	requireAtomQuantiles(t, &got.Results[1], 1, []float64{0.5}, []float64{40})
	requireAtomQuantiles(t, &want.Results[1], 1, []float64{0.5}, []float64{40})

	for ai, wantAbove := range map[int]bool{1: false, 2: true} {
		g := got.Results[0].Groups[0].Aggregations[ai]
		w := want.Results[0].Groups[0].Aggregations[ai]
		if g.Error != nil || w.Error != nil {
			t.Fatalf("threshold %d: coord %v, oracle %v", ai, g.Error, w.Error)
		}
		if g.Threshold.Above != wantAbove || w.Threshold.Above != wantAbove {
			t.Errorf("threshold %d: coord above=%v, oracle above=%v, want %v",
				ai, g.Threshold.Above, w.Threshold.Above, wantAbove)
		}
	}

	// Structural equivalence holds exactly even where sample sets differ.
	for i := range got.Results {
		gg, wg := got.Results[i].Groups, want.Results[i].Groups
		for gi := range gg {
			if gg[gi].Keys != wg[gi].Keys || gg[gi].Count != wg[gi].Count {
				t.Errorf("result %d group %d: coord keys=%d count=%v, oracle keys=%d count=%v",
					i, gi, gg[gi].Keys, gg[gi].Count, wg[gi].Keys, wg[gi].Count)
			}
		}
	}
}

// TestScatterGatherEquivalenceMerge12Windowed repeats the atom probes over
// windowed selections on the merge12 backend (the pane re-merge path, no
// turnstile), on the shared fixed clock.
func TestScatterGatherEquivalenceMerge12Windowed(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	opts := []shard.Option{
		shard.WithBackend(sketch.Merge12Backend(32)),
		shard.WithWindow(time.Second, 8),
		shard.WithClock(func() time.Time { return base }),
	}
	c := New(t, Config{StoreOpts: opts})
	times := make([]time.Time, 8)
	for i := range times {
		times[i] = base.Add(-time.Duration(7-i) * time.Second)
	}
	seedMerge12(t, c, 8, times)

	phis := []float64{0.125, 0.375, 0.625, 0.875}
	win := func(spec query.WindowSpec) *query.WindowSpec { return &spec }
	req := &query.Request{Queries: []query.Subquery{
		{ID: "trailing", Select: query.Selection{Prefix: strp("m."), Window: win(query.WindowSpec{Last: 4})},
			Aggregations: []query.Aggregation{{Op: query.OpQuantiles, Phis: phis}}},
		{ID: "sliding", Select: query.Selection{Prefix: strp("m."), Window: win(query.WindowSpec{Last: 4, Step: 2})},
			Aggregations: []query.Aggregation{{Op: query.OpQuantiles, Phis: phis}}},
	}}
	got, gerr := c.Coord.Execute(t.Context(), req)
	if gerr != nil {
		t.Fatalf("coordinator: %v", gerr)
	}
	want, werr := c.Oracle.Execute(t.Context(), req)
	if werr != nil {
		t.Fatalf("oracle: %v", werr)
	}
	requireAtomQuantiles(t, &got.Results[0], 1, phis, merge12Atoms)
	requireAtomQuantiles(t, &want.Results[0], 1, phis, merge12Atoms)
	requireAtomQuantiles(t, &got.Results[1], 3, phis, merge12Atoms)
	requireAtomQuantiles(t, &want.Results[1], 3, phis, merge12Atoms)

	for i := range got.Results {
		gg, wg := got.Results[i].Groups, want.Results[i].Groups
		for gi := range gg {
			if gg[gi].Window == nil || wg[gi].Window == nil || *gg[gi].Window != *wg[gi].Window {
				t.Errorf("result %d group %d: window coord=%+v oracle=%+v",
					i, gi, gg[gi].Window, wg[gi].Window)
			}
		}
	}
}

package query

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"repro/internal/maxent"
	"repro/internal/shard"
)

func cacheTestStore(t *testing.T) *shard.Store {
	t.Helper()
	store := shard.New(shard.WithShards(4))
	for g := 0; g < 4; g++ {
		for k := 0; k < 3; k++ {
			key := fmt.Sprintf("svc%d.host%d", g, k)
			for i := 0; i < 200; i++ {
				store.Add(key, float64(10+g)+float64(i%17)*0.5)
			}
		}
	}
	return store
}

func quantileRequest(sel Selection) *Request {
	return &Request{Queries: []Subquery{{
		ID:     "q",
		Select: sel,
		Aggregations: []Aggregation{
			{Op: OpQuantiles, Phis: []float64{0.5, 0.9, 0.99}},
			{Op: OpStats},
		},
	}}}
}

func mustExecute(t *testing.T, e *Engine, req *Request) *Response {
	t.Helper()
	resp, qerr := e.Execute(context.Background(), req)
	if qerr != nil {
		t.Fatalf("Execute: %v", qerr)
	}
	for _, r := range resp.Results {
		if r.Error != nil {
			t.Fatalf("subquery %q: %v", r.ID, r.Error)
		}
	}
	return resp
}

func respJSON(t *testing.T, resp *Response) string {
	t.Helper()
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSolveCacheHitsAndIdentity pins the cache contract: a repeated
// identical request is a hit and its response is byte-identical both to the
// first (cached-filling) response and to the response of a cache-less
// engine over the same store.
func TestSolveCacheHitsAndIdentity(t *testing.T) {
	store := cacheTestStore(t)
	cached := NewEngine(store, Config{SolveCache: 64})
	plain := NewEngine(store, Config{})

	prefix := "svc1."
	req := quantileRequest(Selection{Prefix: &prefix})

	first := respJSON(t, mustExecute(t, cached, req))
	if st := cached.CacheStats(); st.Misses != 1 || st.Hits != 0 || st.Entries != 1 {
		t.Fatalf("after first execute: %+v", st)
	}
	second := respJSON(t, mustExecute(t, cached, req))
	if st := cached.CacheStats(); st.Hits != 1 {
		t.Fatalf("after second execute: %+v", st)
	}
	if first != second {
		t.Errorf("cached response differs from the response that filled it:\n%s\n%s", first, second)
	}
	uncached := respJSON(t, mustExecute(t, plain, req))
	if first != uncached {
		t.Errorf("cached response differs from a fresh solve:\n%s\n%s", first, uncached)
	}
	if st := plain.CacheStats(); st.Enabled {
		t.Error("cache-less engine reports an enabled cache")
	}
}

// TestSolveCacheInvalidation pins what the cache keys on — the moment
// vector, not where data might have changed: an ingest into keys a
// selection does not cover leaves every one of its rollups a hit with the
// same answer, and an ingest into a covered key misses exactly the rollup
// it changed and reflects the new data — for exact-key, prefix and
// group-by selections alike.
func TestSolveCacheInvalidation(t *testing.T) {
	prefix := "svc1."
	level := 1
	cases := []struct {
		name    string
		sel     Selection
		covered string // key whose mutation must miss
	}{
		{"key", Selection{Key: "svc1.host0"}, "svc1.host0"},
		{"prefix", Selection{Prefix: &prefix}, "svc1.host2"},
		{"group_by", Selection{Prefix: &prefix, GroupBy: &level}, "svc1.host1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := cacheTestStore(t)
			e := NewEngine(store, Config{SolveCache: 64})
			req := quantileRequest(tc.sel)
			// step executes req and checks what it added to the counters.
			step := func(what string, hits, misses uint64) string {
				t.Helper()
				before := e.CacheStats()
				body := respJSON(t, mustExecute(t, e, req))
				after := e.CacheStats()
				if dh, dm := after.Hits-before.Hits, after.Misses-before.Misses; dh != hits || dm != misses {
					t.Fatalf("%s: %d hits, %d misses; want %d, %d", what, dh, dm, hits, misses)
				}
				return body
			}

			first := mustExecute(t, e, req)
			n := uint64(len(first.Results[0].Groups))
			before := step("repeat", n, 0)

			// Another prefix's ingest changes none of this selection's vectors.
			store.Add("svc3.host0", 1e6)
			if got := step("after unrelated ingest", n, 0); got != before {
				t.Errorf("answer changed after ingest into an uncovered key:\n%s\n%s", before, got)
			}

			// A covered key's ingest changes exactly one rollup's vector.
			store.Add(tc.covered, 1e6)
			if got := step("after covered-key ingest", n-1, 1); got == before {
				t.Error("response unchanged after ingesting an outlier into a covered key")
			}
			step("post-ingest repeat", n, 0)
		})
	}
}

// TestSolveCacheSharedAcrossSpellings: a solve is keyed on the rollup's
// vector, so every spelling of one key set — the prefixes "svc1" and
// "svc1." and the "svc1" group of a group_by — costs one solve between
// them and answers with the same bits.
func TestSolveCacheSharedAcrossSpellings(t *testing.T) {
	store := cacheTestStore(t)
	e := NewEngine(store, Config{SolveCache: 64})
	bare, dotted, level := "svc1", "svc1.", 0
	var answers []string
	for _, sel := range []Selection{
		{Prefix: &bare},
		{Prefix: &dotted},
		{Prefix: &bare, GroupBy: &level},
	} {
		resp := mustExecute(t, e, quantileRequest(sel))
		g := resp.Results[0].Groups
		if len(g) != 1 || g[0].Keys != 3 {
			t.Fatalf("selection %+v: %d groups, want one over 3 keys", sel, len(g))
		}
		g[0].Group = "" // the group_by answer is labelled, the prefixes are not
		b, err := json.Marshal(g[0])
		if err != nil {
			t.Fatal(err)
		}
		answers = append(answers, string(b))
	}
	if st := e.CacheStats(); st.Misses != 1 || st.Hits != 2 || st.Entries != 1 {
		t.Errorf("three spellings of one key set: %+v, want 1 miss, 2 hits, 1 entry", st)
	}
	for i := 1; i < len(answers); i++ {
		if answers[i] != answers[0] {
			t.Errorf("spelling %d answered differently:\n%s\n%s", i, answers[i], answers[0])
		}
	}
}

// TestSolveCacheSeededEntries: the warm seed is part of the solver's
// input, so the same vector solved cold and warm-seeded makes two entries,
// and each hit returns exactly what a fresh solve of its inputs returns.
func TestSolveCacheSeededEntries(t *testing.T) {
	store := cacheTestStore(t)
	sk, ok := store.Sketch("svc2.host1")
	if !ok {
		t.Fatal("svc2.host1 missing")
	}
	c := newSolveCache(8)
	cold, hit, err := c.solve(sk, maxent.Options{})
	if err != nil || hit {
		t.Fatalf("first cold solve: hit %v err %v", hit, err)
	}
	// Any other rollup's θ of the right length is a valid seed.
	other, _ := store.Sketch("svc2.host2")
	seed, err := maxent.SolveSketch(other, maxent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	warmOpts := maxent.Options{Theta0: seed.Theta}
	warm, hit, err := c.solve(sk, warmOpts)
	if err != nil || hit {
		t.Fatalf("seeded solve of a cached vector: hit %v err %v, want a miss", hit, err)
	}
	if st := c.stats(); st.Entries != 2 {
		t.Fatalf("cold and seeded solves of one vector: %d entries, want 2", st.Entries)
	}
	for _, tc := range []struct {
		name string
		opts maxent.Options
		want *maxent.Solution
	}{{"cold", maxent.Options{}, cold}, {"seeded", warmOpts, warm}} {
		got, hit, err := c.solve(sk, tc.opts)
		if err != nil || !hit || got != tc.want {
			t.Fatalf("%s repeat: hit %v err %v, same solution %v", tc.name, hit, err, got == tc.want)
		}
		fresh, err := maxent.SolveSketch(sk, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, fresh) {
			t.Errorf("%s: cached solution differs from a fresh solve of the same inputs", tc.name)
		}
	}
}

// TestSolveCacheDifferential runs one request stream through a cache-on and
// a cache-off engine over one store and requires byte-identical answers.
// The stream mixes key, prefix, group_by and sliding-window selections
// with quantiles and thresholds, interleaved with ingests into covered and
// uncovered keys, clock advances and a Restore of an earlier snapshot.
func TestSolveCacheDifferential(t *testing.T) {
	now := time.Unix(windowTestEpoch, 0)
	store := shard.New(
		shard.WithShards(4),
		shard.WithWindow(time.Second, 16),
		shard.WithClock(func() time.Time { return now }),
	)
	rng := rand.New(rand.NewPCG(5, 6))
	keys := []string{"us.web.a", "us.web.b", "us.api.a", "eu.web.a", "eu.db.a", "ap.web.a"}
	ingest := func(key string, n int) {
		for i := 0; i < n; i++ {
			store.Add(key, 10+rng.ExpFloat64()*20+float64(len(key)))
		}
	}
	for p := 0; p < 12; p++ {
		for _, k := range keys {
			ingest(k, 40)
		}
		now = now.Add(time.Second)
	}
	var snap bytes.Buffer
	if err := store.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}

	cached := NewEngine(store, Config{SolveCache: 256})
	plain := NewEngine(store, Config{})
	us, all, level := "us.", "", 0
	thresh, phi := 45.0, 0.9
	aggs := []Aggregation{
		{Op: OpQuantiles, Phis: []float64{0.5, 0.9, 0.99}},
		{Op: OpThreshold, T: &thresh, Phi: &phi},
	}
	req := &Request{Queries: []Subquery{
		{ID: "key", Select: Selection{Key: "us.web.a"}, Aggregations: aggs},
		{ID: "prefix", Select: Selection{Prefix: &us}, Aggregations: aggs},
		{ID: "group_by", Select: Selection{Prefix: &all, GroupBy: &level}, Aggregations: aggs},
		{ID: "window", Select: Selection{Prefix: &us, Window: &WindowSpec{Last: 4, Step: 2}}, Aggregations: aggs},
		{ID: "window-key", Select: Selection{Key: "eu.web.a", Window: &WindowSpec{Last: 3, Step: 1}}, Aggregations: aggs},
	}}
	check := func(what string) {
		t.Helper()
		got := respJSON(t, mustExecute(t, cached, req))
		want := respJSON(t, mustExecute(t, plain, req))
		if got != want {
			t.Fatalf("%s: cache-on answer differs from cache-off:\n%s\n%s", what, got, want)
		}
	}
	check("cold")
	check("repeat")
	for round := 0; round < 6; round++ {
		ingest("ap.web.a", 30) // uncovered by key, prefix and us. windows
		check(fmt.Sprintf("round %d after uncovered ingest", round))
		ingest(keys[round%len(keys)], 30) // covered by some selection
		check(fmt.Sprintf("round %d after covered ingest", round))
		if round%2 == 1 {
			now = now.Add(time.Second)
			check(fmt.Sprintf("round %d after a pane turnover", round))
		}
	}
	if err := store.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	check("after restore")
	check("after restore, repeat")
	if st := cached.CacheStats(); st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("the stream never exercised both paths: %+v", st)
	}
}

// TestSolveCacheEviction pins the LRU bound: distinct selections beyond the
// capacity evict and are counted.
func TestSolveCacheEviction(t *testing.T) {
	store := shard.New(shard.WithShards(4))
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("k%02d", i)
		for j := 0; j < 50; j++ {
			store.Add(key, float64(i+j))
		}
	}
	e := NewEngine(store, Config{SolveCache: 8})
	for i := 0; i < 64; i++ {
		mustExecute(t, e, quantileRequest(Selection{Key: fmt.Sprintf("k%02d", i)}))
	}
	st := e.CacheStats()
	if st.Entries > st.Capacity {
		t.Fatalf("entries %d exceed capacity %d", st.Entries, st.Capacity)
	}
	if st.Evictions == 0 {
		t.Fatalf("expected evictions after 64 distinct selections into capacity %d: %+v", st.Capacity, st)
	}
	if st.Misses != 64 {
		t.Fatalf("expected 64 misses: %+v", st)
	}
}

// TestSolveCacheWindowedClock: with an advancing clock the same window
// selection covers other panes, so its vector — and the cache key — change
// with them and the pane-stale answer is never served.
func TestSolveCacheWindowedClock(t *testing.T) {
	now := time.Unix(1000, 0)
	store := shard.New(
		shard.WithShards(2),
		shard.WithWindow(time.Second, 16),
		shard.WithClock(func() time.Time { return now }),
	)
	for i := 0; i < 10; i++ {
		store.AddAt("k", float64(i*i), now.Add(-time.Duration(i)*time.Second))
	}
	e := NewEngine(store, Config{SolveCache: 16})
	req := quantileRequest(Selection{Key: "k", Window: &WindowSpec{Last: 4}})

	first := respJSON(t, mustExecute(t, e, req))
	mustExecute(t, e, req)
	if st := e.CacheStats(); st.Hits != 1 {
		t.Fatalf("same-pane repeat should hit: %+v", st)
	}

	// Advance the clock past a pane boundary: the trailing window now
	// covers different panes, hence a different vector.
	now = now.Add(2 * time.Second)
	second := respJSON(t, mustExecute(t, e, req))
	if st := e.CacheStats(); st.Misses != 2 {
		t.Fatalf("pane advance must invalidate: %+v", st)
	}
	if first == second {
		t.Error("windowed response unchanged after the clock crossed a pane boundary")
	}
}

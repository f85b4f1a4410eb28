package server

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// readBody returns a response's raw body for byte-identity comparisons.
func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d; body: %s", resp.StatusCode, b)
	}
	return string(b)
}

// solveCacheCounters pulls the solve_cache object out of a stats payload.
func solveCacheCounters(t *testing.T, url string) (hits, misses float64, enabled bool) {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	m := wantStatus(t, resp, http.StatusOK)
	sc, ok := m["solve_cache"].(map[string]any)
	if !ok {
		t.Fatalf("stats payload missing solve_cache: %v", m)
	}
	return sc["hits"].(float64), sc["misses"].(float64), sc["enabled"].(bool)
}

// TestSolveCacheHTTPInvalidation drives the solve cache through the full
// HTTP path: repeated identical /v1/query requests must be byte-identical
// and count a hit, and ingesting into a key covered by the cached selection
// must invalidate the entry (version-vector mismatch → miss) with the next
// response reflecting the new data. Counters are asserted via /v1/stats.
func TestSolveCacheHTTPInvalidation(t *testing.T) {
	ts, _ := newTestServer(t)

	var ingest strings.Builder
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&ingest, `{"key":"api.h%d","value":%d}`+"\n", i%4, 10+i%23)
	}
	resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", strings.NewReader(ingest.String()))
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusOK)

	const query = `{"queries":[{"id":"p99","select":{"prefix":"api."},
		"aggregations":[{"op":"quantiles","phis":[0.5,0.99]},{"op":"stats"}]}]}`

	first := readBody(t, postJSON(t, ts.URL+"/v1/query", query))
	hits, misses, enabled := solveCacheCounters(t, ts.URL)
	if !enabled {
		t.Fatal("solve cache disabled on a default server")
	}
	if hits != 0 || misses != 1 {
		t.Fatalf("after first query: hits=%v misses=%v", hits, misses)
	}

	second := readBody(t, postJSON(t, ts.URL+"/v1/query", query))
	if second != first {
		t.Errorf("cached response not byte-identical:\n%s\n%s", first, second)
	}
	if hits, misses, _ = solveCacheCounters(t, ts.URL); hits != 1 || misses != 1 {
		t.Fatalf("after repeat query: hits=%v misses=%v", hits, misses)
	}

	// Ingest into a covered key: the version vector moves, the cached
	// entry must not be served, and the fresh result sees the outlier.
	resp, err = http.Post(ts.URL+"/ingest", "application/x-ndjson",
		strings.NewReader(`{"key":"api.h1","value":1000000}`))
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusOK)

	third := readBody(t, postJSON(t, ts.URL+"/v1/query", query))
	if hits, misses, _ = solveCacheCounters(t, ts.URL); hits != 1 || misses != 2 {
		t.Fatalf("after covered-key ingest: hits=%v misses=%v (stale hit?)", hits, misses)
	}
	if third == first {
		t.Error("response unchanged after ingesting an outlier into a covered key")
	}
	if !strings.Contains(third, "1e+06") && !strings.Contains(third, "1000000") {
		// The 1e6 outlier must be visible as the new max in the stats agg.
		t.Errorf("fresh response does not reflect the new data: %s", third)
	}

	// The refreshed entry serves hits again.
	readBody(t, postJSON(t, ts.URL+"/v1/query", query))
	if hits, misses, _ = solveCacheCounters(t, ts.URL); hits != 2 || misses != 2 {
		t.Fatalf("post-invalidation refill: hits=%v misses=%v", hits, misses)
	}
}

// TestSolveCacheDisabled pins WithSolveCache(0): no cache, stats report it
// disabled, and queries still work.
func TestSolveCacheDisabled(t *testing.T) {
	ts, _ := newTestServer(t, WithSolveCache(0))
	resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson",
		strings.NewReader(`{"key":"a.b","value":1}`+"\n"+`{"key":"a.c","value":2}`))
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusOK)
	readBody(t, postJSON(t, ts.URL+"/v1/query",
		`{"queries":[{"select":{"prefix":"a."},"aggregations":[{"op":"stats"}]}]}`))
	if _, _, enabled := solveCacheCounters(t, ts.URL); enabled {
		t.Fatal("solve cache reported enabled after WithSolveCache(0)")
	}
}

// TestCascadeStatsCountSharedSolves drives solve sharing through HTTP: a
// quantiles+threshold subquery whose threshold only max-ent can decide costs
// the cascade no solve of its own — cold it reuses the density the quantiles
// beside it solved, and again from the solve cache — and /v1/stats says so.
func TestCascadeStatsCountSharedSolves(t *testing.T) {
	ts, _ := newTestServer(t)
	seedRegions(t, ts)
	m := wantStatus(t, postJSON(t, ts.URL+"/v1/query",
		`{"queries":[{"select":{"key":"us.web"},"aggregations":[{"op":"quantiles","phis":[0.9]}]}]}`), http.StatusOK)
	groups := m["results"].([]any)[0].(map[string]any)["groups"].([]any)
	q90 := groups[0].(map[string]any)["aggregations"].([]any)[0].(map[string]any)["quantiles"].([]any)[0].(map[string]any)["value"].(float64)

	// A different selection (the prefix rollup) so the first request's cache
	// entry is not what gets reused.
	body := fmt.Sprintf(`{"queries":[{"select":{"prefix":"us.w"},"aggregations":[`+
		`{"op":"quantiles","phis":[0.9]},{"op":"threshold","t":%v,"phi":0.9}]}]}`, q90*1.01)
	for round := 1; round <= 2; round++ {
		m = wantStatus(t, postJSON(t, ts.URL+"/v1/query", body), http.StatusOK)
		aggs := m["results"].([]any)[0].(map[string]any)["groups"].([]any)[0].(map[string]any)["aggregations"].([]any)
		if stage := aggs[1].(map[string]any)["threshold"].(map[string]any)["stage"]; stage != "MaxEnt" {
			t.Fatalf("round %d: threshold resolved at %v, want MaxEnt", round, stage)
		}
		cs := wantStatus(t, mustGet(t, ts.URL+"/v1/stats"), http.StatusOK)["cascade"].(map[string]any)
		if cs["solves"].(float64) != 0 || cs["shared_solves"].(float64) != float64(round) || cs["newton_iters"].(float64) != 0 {
			t.Errorf("round %d: cascade stats %v, want 0 solves, %d shared", round, cs, round)
		}
	}
}

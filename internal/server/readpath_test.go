package server

import (
	"net/http"
	"testing"

	"repro/internal/query"
)

// TestStatsReadPathSection: /v1/stats must carry the read_path section —
// wait-free on the default moments store, with the published-read counters
// moving as queries are served.
func TestStatsReadPathSection(t *testing.T) {
	ts, store := newTestServer(t)
	store.Add("rp.a", 1)
	store.Add("rp.b", 2)

	// Serve a couple of reads through the HTTP surface so the counters move.
	queryOne(t, ts, query.Selection{Key: "rp.a"}, quantiles(0.5))
	wantStatus(t, mustGet(t, ts.URL+"/keys"), http.StatusOK)

	m := wantStatus(t, mustGet(t, ts.URL+"/v1/stats"), http.StatusOK)
	rp, ok := m["read_path"].(map[string]any)
	if !ok {
		t.Fatalf("missing read_path section: %v", m)
	}
	if rp["wait_free"] != true {
		t.Errorf("read_path.wait_free = %v, want true on the moments backend", rp["wait_free"])
	}
	pub, ok := rp["published_reads"].(float64)
	if !ok || pub < 1 {
		t.Errorf("read_path.published_reads = %v, want >= 1", rp["published_reads"])
	}
	for _, field := range []string{"locked_reads", "publishes", "index_rebuilds"} {
		if _, ok := rp[field]; !ok {
			t.Errorf("read_path missing counter %q", field)
		}
	}
	if pubs, ok := rp["publishes"].(float64); !ok || pubs < 2 {
		t.Errorf("read_path.publishes = %v, want >= 2 after two adds", rp["publishes"])
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/shard"
)

func newTestServer(t *testing.T, opts ...ServerOption) (*httptest.Server, *shard.Store) {
	t.Helper()
	store := shard.New(shard.WithShards(8))
	ts := httptest.NewServer(New(store, opts...))
	t.Cleanup(ts.Close)
	return ts, store
}

func postJSON(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody(t *testing.T, resp *http.Response) map[string]any {
	t.Helper()
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return m
}

func wantStatus(t *testing.T, resp *http.Response, code int) map[string]any {
	t.Helper()
	if resp.StatusCode != code {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("status %d, want %d; body: %s", resp.StatusCode, code, b)
	}
	return decodeBody(t, resp)
}

func TestIngestAndQuantile(t *testing.T) {
	ts, _ := newTestServer(t)
	rng := rand.New(rand.NewPCG(1, 2))
	n := 5000
	data := make([]float64, n)
	var sb strings.Builder
	sb.WriteString(`{"observations":[`)
	for i := range data {
		data[i] = math.Exp(rng.NormFloat64())
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"key":"lat","value":%g}`, data[i])
	}
	sb.WriteString("]}")

	m := wantStatus(t, postJSON(t, ts.URL+"/ingest", sb.String()), http.StatusOK)
	if m["ingested"].(float64) != float64(n) {
		t.Fatalf("ingested = %v, want %d", m["ingested"], n)
	}

	m = wantStatus(t, mustGet(t, ts.URL+"/quantile?key=lat&q=0.5,0.99"), http.StatusOK)
	if m["count"].(float64) != float64(n) {
		t.Errorf("count = %v, want %d", m["count"], n)
	}
	sort.Float64s(data)
	for _, qp := range m["quantiles"].([]any) {
		p := qp.(map[string]any)
		phi, est := p["q"].(float64), p["value"].(float64)
		rank := float64(sort.SearchFloat64s(data, est)) / float64(n)
		if math.Abs(rank-phi) > 0.05 {
			t.Errorf("phi=%v: estimate %v has sample rank %v", phi, est, rank)
		}
	}
}

func TestIngestBareArrayAndNDJSON(t *testing.T) {
	ts, store := newTestServer(t)
	m := wantStatus(t, postJSON(t, ts.URL+"/ingest",
		`[{"key":"a","value":1},{"key":"a","value":2}]`), http.StatusOK)
	if m["ingested"].(float64) != 2 {
		t.Errorf("bare array: ingested = %v, want 2", m["ingested"])
	}

	nd := "{\"key\":\"a\",\"value\":3}\n\n{\"key\":\"b\",\"value\":4}\n"
	resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", strings.NewReader(nd))
	if err != nil {
		t.Fatal(err)
	}
	m = wantStatus(t, resp, http.StatusOK)
	if m["ingested"].(float64) != 2 {
		t.Errorf("ndjson: ingested = %v, want 2", m["ingested"])
	}
	if got := store.Count("a"); got != 3 {
		t.Errorf("Count(a) = %v, want 3", got)
	}
	if got := store.Count("b"); got != 1 {
		t.Errorf("Count(b) = %v, want 1", got)
	}
}

func TestIngestRejectsBadInput(t *testing.T) {
	ts, store := newTestServer(t)
	cases := []string{
		``,
		`{"observations":[{"key":"","value":1}]}`,
		`{"observations":[{"key":"a","value":"x"}]}`,
		`[{"key":"a"`,
		`[{"key":"a"}]`,            // value absent entirely
		`[{"key":"a","val":12.5}]`, // misspelled value field
	}
	for _, body := range cases {
		resp := postJSON(t, ts.URL+"/ingest", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
		resp.Body.Close()
	}
	// NaN is not valid JSON, but make sure a sneaky Inf string form fails
	// rather than poisoning the store.
	resp := postJSON(t, ts.URL+"/ingest", `[{"key":"a","value":1e999}]`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("overflowing value: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	// Valid observations preceding the invalid one must be discarded, not
	// partially applied — a retried request would double-count them.
	resp = postJSON(t, ts.URL+"/ingest",
		`[{"key":"a","value":1},{"key":"b","value":2},{"key":"","value":3}]`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("partial batch: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	if store.TotalCount() != 0 {
		t.Errorf("bad requests mutated the store: %v observations", store.TotalCount())
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestQuantileErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	resp := mustGet(t, ts.URL+"/quantile?key=missing")
	wantStatus(t, resp, http.StatusNotFound)
	resp = mustGet(t, ts.URL+"/quantile")
	wantStatus(t, resp, http.StatusBadRequest)
	resp = mustGet(t, ts.URL+"/quantile?key=x&q=1.5")
	wantStatus(t, resp, http.StatusBadRequest)
}

func seedRegions(t *testing.T, ts *httptest.Server) map[string][]float64 {
	t.Helper()
	rng := rand.New(rand.NewPCG(7, 8))
	byKey := map[string][]float64{}
	var lines strings.Builder
	for _, key := range []string{"us.web", "us.api", "eu.web", "eu.api"} {
		shift := 0.0
		if strings.HasPrefix(key, "eu.") {
			shift = 3
		}
		for i := 0; i < 2000; i++ {
			v := math.Exp(rng.NormFloat64()*0.5) + shift
			byKey[key] = append(byKey[key], v)
			fmt.Fprintf(&lines, "{\"key\":%q,\"value\":%g}\n", key, v)
		}
	}
	resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", strings.NewReader(lines.String()))
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusOK)
	return byKey
}

func TestMergeRollup(t *testing.T) {
	ts, _ := newTestServer(t)
	byKey := seedRegions(t, ts)

	m := wantStatus(t, mustGet(t, ts.URL+"/merge?prefix=us.&q=0.5"), http.StatusOK)
	if m["keys"].(float64) != 2 || m["merges"].(float64) != 2 {
		t.Errorf("keys/merges = %v/%v, want 2/2", m["keys"], m["merges"])
	}
	union := append(append([]float64(nil), byKey["us.web"]...), byKey["us.api"]...)
	sort.Float64s(union)
	est := m["quantiles"].([]any)[0].(map[string]any)["value"].(float64)
	rank := float64(sort.SearchFloat64s(union, est)) / float64(len(union))
	if math.Abs(rank-0.5) > 0.05 {
		t.Errorf("rollup median %v has sample rank %v", est, rank)
	}
	if m["count"].(float64) != float64(len(union)) {
		t.Errorf("rollup count = %v, want %d", m["count"], len(union))
	}

	resp := mustGet(t, ts.URL+"/merge?prefix=asia.")
	wantStatus(t, resp, http.StatusNotFound)
}

func TestMergeGroupBy(t *testing.T) {
	ts, _ := newTestServer(t)
	byKey := seedRegions(t, ts)

	// Group everything by the first key segment: expect eu and us groups,
	// with eu's median shifted up by ~3.
	m := wantStatus(t, mustGet(t, ts.URL+"/merge?groupby=0&q=0.5"), http.StatusOK)
	groups := m["groups"].([]any)
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2: %v", len(groups), groups)
	}
	medians := map[string]float64{}
	for _, g := range groups {
		gm := g.(map[string]any)
		name := gm["group"].(string)
		if gm["keys"].(float64) != 2 {
			t.Errorf("group %q rolled up %v keys, want 2", name, gm["keys"])
		}
		medians[name] = gm["quantiles"].([]any)[0].(map[string]any)["value"].(float64)
	}
	if _, ok := medians["us"]; !ok {
		t.Fatalf("missing us group: %v", medians)
	}
	if medians["eu"]-medians["us"] < 2 {
		t.Errorf("eu median %v should sit well above us median %v", medians["eu"], medians["us"])
	}

	// Grouping by the second segment rolls web/api across regions.
	m = wantStatus(t, mustGet(t, ts.URL+"/merge?groupby=1&q=0.9"), http.StatusOK)
	groups = m["groups"].([]any)
	if len(groups) != 2 {
		t.Fatalf("groupby=1: got %d groups, want 2", len(groups))
	}
	for _, g := range groups {
		gm := g.(map[string]any)
		name := gm["group"].(string)
		if name != "web" && name != "api" {
			t.Errorf("unexpected group %q", name)
		}
		wantCount := float64(len(byKey["us."+name]) + len(byKey["eu."+name]))
		if gm["count"].(float64) != wantCount {
			t.Errorf("group %q count = %v, want %v", name, gm["count"], wantCount)
		}
	}

	resp := mustGet(t, ts.URL+"/merge?groupby=9")
	wantStatus(t, resp, http.StatusBadRequest)
}

func TestThresholdEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	seedRegions(t, ts)

	// Well beyond the maximum: resolved by the range filter, not degraded.
	m := wantStatus(t, mustGet(t, ts.URL+"/threshold?key=us.web&t=1e9&phi=0.99"), http.StatusOK)
	if m["above"].(bool) {
		t.Error("p99 reported above 1e9")
	}
	if m["stage"].(string) != "Simple" {
		t.Errorf("stage = %v, want Simple", m["stage"])
	}
	if _, degraded := m["degraded"]; degraded {
		t.Error("range-filter decision flagged degraded")
	}

	// Prefix-scoped threshold: eu latencies sit ~3 above zero.
	m = wantStatus(t, mustGet(t, ts.URL+"/threshold?prefix=eu.&t=1&phi=0.5"), http.StatusOK)
	if !m["above"].(bool) {
		t.Error("eu median not above 1")
	}
	if m["merges"].(float64) != 2 {
		t.Errorf("merges = %v, want 2", m["merges"])
	}

	// Cascade counters surfaced in /stats.
	m = wantStatus(t, mustGet(t, ts.URL+"/stats"), http.StatusOK)
	cascade := m["cascade"].(map[string]any)
	if cascade["queries"].(float64) < 2 {
		t.Errorf("cascade queries = %v, want ≥ 2", cascade["queries"])
	}
	for _, field := range []string{"solves", "shared_solves", "newton_iters"} {
		if _, ok := cascade[field].(float64); !ok {
			t.Errorf("cascade stats lack %q: %v", field, cascade)
		}
	}

	for _, u := range []string{
		"/threshold?key=us.web",             // missing t
		"/threshold?t=1",                    // no scope
		"/threshold?key=a&prefix=b&t=1",     // both scopes
		"/threshold?key=us.web&t=1&phi=1.5", // bad phi
		"/threshold?key=us.web&t=1&phi=NaN", // NaN phi
	} {
		resp := mustGet(t, ts.URL+u)
		wantStatus(t, resp, http.StatusBadRequest)
	}
	resp := mustGet(t, ts.URL+"/threshold?key=missing&t=1")
	wantStatus(t, resp, http.StatusNotFound)
}

func TestKeysStatsHealth(t *testing.T) {
	ts, _ := newTestServer(t)
	seedRegions(t, ts)
	m := wantStatus(t, mustGet(t, ts.URL+"/keys?prefix=us."), http.StatusOK)
	if m["count"].(float64) != 2 {
		t.Errorf("keys count = %v, want 2", m["count"])
	}
	m = wantStatus(t, mustGet(t, ts.URL+"/stats"), http.StatusOK)
	if m["keys"].(float64) != 4 || m["observations"].(float64) != 8000 {
		t.Errorf("stats keys/observations = %v/%v, want 4/8000", m["keys"], m["observations"])
	}
	wantStatus(t, mustGet(t, ts.URL+"/healthz"), http.StatusOK)
}

func TestSnapshotRestoreOverHTTP(t *testing.T) {
	ts, store := newTestServer(t)
	seedRegions(t, ts)
	resp := mustGet(t, ts.URL+"/snapshot")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d", resp.StatusCode)
	}
	snap, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	store.Reset()
	if store.Len() != 0 {
		t.Fatal("reset failed")
	}
	resp, err = http.Post(ts.URL+"/restore", "application/octet-stream", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	m := wantStatus(t, resp, http.StatusOK)
	if m["keys"].(float64) != 4 || m["observations"].(float64) != 8000 {
		t.Errorf("restored keys/observations = %v/%v, want 4/8000", m["keys"], m["observations"])
	}

	resp, err = http.Post(ts.URL+"/restore", "application/octet-stream", strings.NewReader("garbage"))
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusBadRequest)
}

// TestConcurrentServerStress drives ingest and every query endpoint from
// many goroutines at once (run under -race), then checks final counts and
// quantiles against a single-threaded oracle.
func TestConcurrentServerStress(t *testing.T) {
	ts, store := newTestServer(t)
	const (
		clients   = 6
		perClient = 50
		batchSize = 40
		numKeys   = 12
	)
	streams := make([][]shard.Observation, clients)
	for c := range streams {
		rng := rand.New(rand.NewPCG(uint64(c), 13))
		obs := make([]shard.Observation, perClient*batchSize)
		for i := range obs {
			obs[i] = shard.Observation{
				Key:   fmt.Sprintf("g%d.k%d", i%3, rng.IntN(numKeys)),
				Value: math.Exp(rng.NormFloat64()),
			}
		}
		streams[c] = obs
	}

	var wg sync.WaitGroup
	errc := make(chan error, clients*2)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(obs []shard.Observation) {
			defer wg.Done()
			for start := 0; start < len(obs); start += batchSize {
				body, _ := json.Marshal(obs[start : start+batchSize])
				resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("ingest status %d", resp.StatusCode)
					return
				}
			}
		}(streams[c])
	}
	// Query load during ingest: failures other than 404 (key not yet
	// ingested) are errors. The batched endpoint rides along — a /v1/query
	// batch always returns 200 with per-subquery errors inside.
	v1batch := `{"queries":[` +
		`{"select":{"key":"g0.k0"},"aggregations":[{"op":"quantiles","phis":[0.9]}]},` +
		`{"select":{"prefix":"g1."},"aggregations":[{"op":"stats"}]},` +
		`{"select":{"prefix":"","group_by":0},"aggregations":[{"op":"quantiles"}]},` +
		`{"select":{"prefix":"g2."},"aggregations":[{"op":"threshold","t":1,"phi":0.9}]}]}`
	done := make(chan struct{})
	var queriers sync.WaitGroup
	for qd := 0; qd < 4; qd++ {
		queriers.Add(1)
		go func(seed int) {
			defer queriers.Done()
			urls := []string{
				ts.URL + "/quantile?key=g0.k0&q=0.9",
				ts.URL + "/merge?prefix=g1.&q=0.5",
				ts.URL + "/merge?groupby=0",
				ts.URL + "/threshold?prefix=g2.&t=1&phi=0.9",
				ts.URL + "/stats",
				ts.URL + "/v1/query",
			}
			i := seed
			for {
				select {
				case <-done:
					return
				default:
				}
				url := urls[i%len(urls)]
				var resp *http.Response
				var err error
				if strings.HasSuffix(url, "/v1/query") {
					resp, err = http.Post(url, "application/json", strings.NewReader(v1batch))
				} else {
					resp, err = http.Get(url)
				}
				if err != nil {
					errc <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
					errc <- fmt.Errorf("query %s: status %d", url, resp.StatusCode)
					return
				}
				i++
			}
		}(qd)
	}
	wg.Wait()
	close(done)
	queriers.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	oracle := map[string][]float64{}
	total := 0
	for _, obs := range streams {
		for _, o := range obs {
			oracle[o.Key] = append(oracle[o.Key], o.Value)
			total++
		}
	}
	if got := store.TotalCount(); got != float64(total) {
		t.Fatalf("TotalCount = %v, want %d", got, total)
	}
	for key, data := range oracle {
		if got := store.Count(key); got != float64(len(data)) {
			t.Errorf("Count(%q) = %v, want %d", key, got, len(data))
		}
	}
	// Spot-check a served quantile against the oracle sample.
	key := "g0.k0"
	data := oracle[key]
	sort.Float64s(data)
	m := wantStatus(t, mustGet(t, ts.URL+"/quantile?key="+key+"&q=0.9"), http.StatusOK)
	est := m["quantiles"].([]any)[0].(map[string]any)["value"].(float64)
	rank := float64(sort.SearchFloat64s(data, est)) / float64(len(data))
	if math.Abs(rank-0.9) > 0.06 {
		t.Errorf("served p90 %v has sample rank %v", est, rank)
	}
}

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
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/sketch"
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

// queryOne posts a single-subquery batch to /v1/query and returns its
// result.
func queryOne(t *testing.T, ts *httptest.Server, sel query.Selection, aggs ...query.Aggregation) query.Result {
	t.Helper()
	return postV1(t, ts, query.Request{Queries: []query.Subquery{
		{Select: sel, Aggregations: aggs},
	}}).Results[0]
}

func quantiles(phis ...float64) query.Aggregation {
	return query.Aggregation{Op: query.OpQuantiles, Phis: phis}
}

func threshold(t, phi float64) query.Aggregation {
	return query.Aggregation{Op: query.OpThreshold, T: &t, Phi: &phi}
}

func prefixSel(prefix string) query.Selection { return query.Selection{Prefix: &prefix} }

func groupBySel(prefix string, level int) query.Selection {
	return query.Selection{Prefix: &prefix, GroupBy: &level}
}

// wantQueryError asserts that a result failed with the given error code.
func wantQueryError(t *testing.T, res query.Result, code string) {
	t.Helper()
	if res.Error == nil || res.Error.Code != code {
		t.Fatalf("error = %v, want code %s", res.Error, code)
	}
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

	g := queryOne(t, ts, query.Selection{Key: "lat"}, quantiles(0.5, 0.99)).Groups[0]
	if g.Count != float64(n) {
		t.Errorf("count = %v, want %d", g.Count, n)
	}
	sort.Float64s(data)
	for _, qp := range g.Aggregations[0].Quantiles {
		phi, est := qp.Q, qp.Value
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
	wantQueryError(t, queryOne(t, ts, query.Selection{Key: "missing"}, quantiles()), query.CodeNotFound)
	wantQueryError(t, queryOne(t, ts, query.Selection{}, quantiles()), query.CodeInvalid)
	wantQueryError(t, queryOne(t, ts, query.Selection{Key: "x"}, quantiles(1.5)), query.CodeInvalid)
}

// TestUnencodableResponseAnswersInternal: a key holding MaxFloat64 (and 1)
// makes stats and quantiles non-finite, which JSON cannot carry. The
// response must be the typed 500 internal envelope, never a 2xx with an
// empty body. /ingest refuses such a value (TestIngestDomain) and /restore
// such a vector (TestSnapshotRestoreOverHTTP), so the key is written to the
// store directly.
func TestUnencodableResponseAnswersInternal(t *testing.T) {
	ts, store := newTestServer(t)
	store.Add("huge", math.MaxFloat64)
	store.Add("huge", 1)
	for _, agg := range []string{`{"op":"stats"}`, `{"op":"quantiles"}`} {
		resp := postJSON(t, ts.URL+"/v1/query",
			`{"queries":[{"select":{"key":"huge"},"aggregations":[`+agg+`]}]}`)
		m := wantStatus(t, resp, http.StatusInternalServerError)
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type = %q, want application/json", agg, ct)
		}
		env, _ := m["error"].(map[string]any)
		if env == nil || env["code"] != query.CodeInternal || env["message"] == "" {
			t.Errorf("%s: body = %v, want an %q error envelope", agg, m, query.CodeInternal)
		}
	}
}

// TestIngestDomain closes the poison door: at k = 10, 7e30 overflows the
// tenth power sum, and one such value would turn every answer covering it
// non-finite. A shard node and a coordinator both refuse it with a 400
// that names the bound, in every framing, and ingest nothing of the body;
// a whole-store rollup then still answers 200 with finite values.
func TestIngestDomain(t *testing.T) {
	node, _ := newTestServer(t)
	coord, err := cluster.New(cluster.Config{Nodes: []string{node.URL}, Backend: sketch.MomentsBackend(10)})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(NewCoordinator(coord))
	t.Cleanup(coordTS.Close)
	bound := fmt.Sprint(core.MaxAbs(10))

	// The coordinator forwards to the same node, so the clean data doubles.
	for i, edge := range []*httptest.Server{node, coordTS} {
		var lines strings.Builder
		for i := 1; i <= 100; i++ {
			fmt.Fprintf(&lines, "{\"key\":\"dom.a\",\"value\":%d}\n", i)
		}
		resp, err := http.Post(edge.URL+"/ingest", "application/x-ndjson", strings.NewReader(lines.String()))
		if err != nil {
			t.Fatal(err)
		}
		wantStatus(t, resp, http.StatusOK)
		for _, body := range []struct{ ctype, body string }{
			{"application/x-ndjson", "{\"key\":\"dom.b\",\"value\":1}\n{\"key\":\"dom.b\",\"value\":7e30}\n"},
			{"application/x-ndjson", "{\"key\":\"dom.b\",\"value\":-7e30}\n"},
			{"application/json", `{"observations":[{"key":"dom.b","value":1},{"key":"dom.b","value":7e30}]}`},
			{"application/json", `[{"key":"dom.b","value":-7e30}]`},
		} {
			resp, err := http.Post(edge.URL+"/ingest", body.ctype, strings.NewReader(body.body))
			if err != nil {
				t.Fatal(err)
			}
			m := wantStatus(t, resp, http.StatusBadRequest)
			env, _ := m["error"].(map[string]any)
			if msg, _ := env["message"].(string); env["code"] != query.CodeInvalid || !strings.Contains(msg, bound) {
				t.Fatalf("%s %q: error %v, want invalid_request naming %s", body.ctype, body.body, m, bound)
			}
		}
		res := queryOne(t, edge, prefixSel(""), quantiles(0.5, 0.99), query.Aggregation{Op: query.OpStats}, threshold(50, 0.5))
		if res.Error != nil || len(res.Groups) != 1 {
			t.Fatalf("rollup after refused poison: %+v", res)
		}
		g := res.Groups[0]
		if want := float64(100 * (i + 1)); g.Count != want || g.Keys != 1 {
			t.Fatalf("rollup holds %v observations over %d keys, want the %v clean ones on 1 key", g.Count, g.Keys, want)
		}
		for _, q := range g.Aggregations[0].Quantiles {
			if q.Value < 1 || q.Value > 100 {
				t.Fatalf("q%g = %v outside the data", q.Q, q.Value)
			}
		}
		if st := g.Aggregations[1].Stats; st == nil || st.Mean != 50.5 || st.Max != 100 {
			t.Fatalf("stats = %+v, want mean 50.5 and max 100", st)
		}
	}
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

	g := queryOne(t, ts, prefixSel("us."), quantiles(0.5)).Groups[0]
	if g.Keys != 2 {
		t.Errorf("keys = %v, want 2", g.Keys)
	}
	union := append(append([]float64(nil), byKey["us.web"]...), byKey["us.api"]...)
	sort.Float64s(union)
	est := g.Aggregations[0].Quantiles[0].Value
	rank := float64(sort.SearchFloat64s(union, est)) / float64(len(union))
	if math.Abs(rank-0.5) > 0.05 {
		t.Errorf("rollup median %v has sample rank %v", est, rank)
	}
	if g.Count != float64(len(union)) {
		t.Errorf("rollup count = %v, want %d", g.Count, len(union))
	}

	wantQueryError(t, queryOne(t, ts, prefixSel("asia."), quantiles()), query.CodeNotFound)
}

func TestMergeGroupBy(t *testing.T) {
	ts, _ := newTestServer(t)
	byKey := seedRegions(t, ts)

	// Group everything by the first key segment: expect eu and us groups,
	// with eu's median shifted up by ~3.
	groups := queryOne(t, ts, groupBySel("", 0), quantiles(0.5)).Groups
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2: %v", len(groups), groups)
	}
	medians := map[string]float64{}
	for _, g := range groups {
		if g.Keys != 2 {
			t.Errorf("group %q rolled up %v keys, want 2", g.Group, g.Keys)
		}
		medians[g.Group] = g.Aggregations[0].Quantiles[0].Value
	}
	if _, ok := medians["us"]; !ok {
		t.Fatalf("missing us group: %v", medians)
	}
	if medians["eu"]-medians["us"] < 2 {
		t.Errorf("eu median %v should sit well above us median %v", medians["eu"], medians["us"])
	}

	// Grouping by the second segment rolls web/api across regions.
	groups = queryOne(t, ts, groupBySel("", 1), quantiles(0.9)).Groups
	if len(groups) != 2 {
		t.Fatalf("group_by=1: got %d groups, want 2", len(groups))
	}
	for _, g := range groups {
		name := g.Group
		if name != "web" && name != "api" {
			t.Errorf("unexpected group %q", name)
		}
		wantCount := float64(len(byKey["us."+name]) + len(byKey["eu."+name]))
		if g.Count != wantCount {
			t.Errorf("group %q count = %v, want %v", name, g.Count, wantCount)
		}
	}

	wantQueryError(t, queryOne(t, ts, groupBySel("", 9), quantiles()), query.CodeInvalid)
}

func TestThresholdEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	seedRegions(t, ts)

	// Well beyond the maximum: resolved by the range filter, not degraded.
	agg := queryOne(t, ts, query.Selection{Key: "us.web"}, threshold(1e9, 0.99)).Groups[0].Aggregations[0]
	if agg.Threshold.Above {
		t.Error("p99 reported above 1e9")
	}
	if agg.Threshold.Stage != "Simple" {
		t.Errorf("stage = %v, want Simple", agg.Threshold.Stage)
	}
	if agg.Degraded {
		t.Error("range-filter decision flagged degraded")
	}

	// Prefix-scoped threshold: eu latencies sit ~3 above zero.
	g := queryOne(t, ts, prefixSel("eu."), threshold(1, 0.5)).Groups[0]
	if !g.Aggregations[0].Threshold.Above {
		t.Error("eu median not above 1")
	}
	if g.Keys != 2 {
		t.Errorf("keys = %v, want 2", g.Keys)
	}

	// Cascade counters surfaced in /v1/stats.
	m := wantStatus(t, mustGet(t, ts.URL+"/v1/stats"), http.StatusOK)
	cascade := m["cascade"].(map[string]any)
	if cascade["queries"].(float64) < 2 {
		t.Errorf("cascade queries = %v, want ≥ 2", cascade["queries"])
	}
	for _, field := range []string{"solves", "shared_solves", "newton_iters"} {
		if _, ok := cascade[field].(float64); !ok {
			t.Errorf("cascade stats lack %q: %v", field, cascade)
		}
	}

	both := prefixSel("b")
	both.Key = "a"
	for _, res := range []query.Result{
		queryOne(t, ts, query.Selection{Key: "us.web"}, query.Aggregation{Op: query.OpThreshold}), // missing t
		queryOne(t, ts, query.Selection{}, threshold(1, 0.5)),                                     // no scope
		queryOne(t, ts, both, threshold(1, 0.5)),                                                  // both scopes
		queryOne(t, ts, query.Selection{Key: "us.web"}, threshold(1, 1.5)),                        // bad phi
	} {
		wantQueryError(t, res, query.CodeInvalid)
	}
	// NaN is not JSON: the request fails to decode.
	wantStatus(t, postJSON(t, ts.URL+"/v1/query",
		`{"queries":[{"select":{"key":"us.web"},"aggregations":[{"op":"threshold","t":1,"phi":NaN}]}]}`),
		http.StatusBadRequest)
	wantQueryError(t, queryOne(t, ts, query.Selection{Key: "missing"}, threshold(1, 0.5)), query.CodeNotFound)
}

func TestKeysStatsHealth(t *testing.T) {
	ts, _ := newTestServer(t)
	seedRegions(t, ts)
	m := wantStatus(t, mustGet(t, ts.URL+"/keys?prefix=us."), http.StatusOK)
	if m["count"].(float64) != 2 {
		t.Errorf("keys count = %v, want 2", m["count"])
	}
	m = wantStatus(t, mustGet(t, ts.URL+"/v1/stats"), http.StatusOK)
	if m["keys"].(float64) != 4 || m["observations"].(float64) != 8000 {
		t.Errorf("stats keys/observations = %v/%v, want 4/8000", m["keys"], m["observations"])
	}
	wantStatus(t, mustGet(t, ts.URL+"/healthz"), http.StatusOK)
}

// TestRemovedRoutes: the GET adapters and the /stats alias are gone from
// both server kinds, so a stale client gets 404 or 405 instead of an answer.
func TestRemovedRoutes(t *testing.T) {
	node, _ := newTestServer(t)
	coord, err := cluster.New(cluster.Config{Nodes: []string{node.URL}, Backend: sketch.MomentsBackend(10)})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(NewCoordinator(coord))
	t.Cleanup(coordTS.Close)

	for kind, base := range map[string]string{"node": node.URL, "coordinator": coordTS.URL} {
		for _, path := range []string{
			"/quantile?key=us.web&q=0.5",
			"/merge?prefix=us.&q=0.5",
			"/threshold?key=us.web&t=1",
			"/stats",
		} {
			resp := mustGet(t, base+path)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s GET %s: status %d, want 404 or 405", kind, path, resp.StatusCode)
			}
		}
	}
}

// TestRequestDecodeErrors pins the one decodeRequest policy on every POST
// route that decodes a body, on both edges: a body past the cap is 413
// too_large, malformed JSON and (on the strict routes) an unknown field are
// 400 invalid_request — the same status and code from a shard node and
// from a coordinator.
func TestRequestDecodeErrors(t *testing.T) {
	const maxBody = 64
	nodeSrv := New(shard.New(shard.WithShards(8), shard.WithWindow(time.Second, 8)))
	nodeSrv.maxBody = maxBody
	node := httptest.NewServer(nodeSrv)
	t.Cleanup(node.Close)
	coord, err := cluster.New(cluster.Config{Nodes: []string{node.URL}, Backend: sketch.MomentsBackend(10)})
	if err != nil {
		t.Fatal(err)
	}
	coordSrv := NewCoordinator(coord)
	coordSrv.maxBody = maxBody
	coordTS := httptest.NewServer(coordSrv)
	t.Cleanup(coordTS.Close)

	long := strings.Repeat("k", 2*maxBody)
	routes := []struct {
		path, overCap string
		onCoordinator bool
		unknownField  int // status of {"bogus":1}
	}{
		{"/ingest", `[{"key":"` + long + `","value":1}]`, true, http.StatusOK}, // the lenient envelope: zero observations
		{"/v1/query", `{"queries":[{"id":"` + long + `"}]}`, true, http.StatusBadRequest},
		{"/v1/partials", `{"selections":[{"key":"` + long + `"}]}`, false, http.StatusBadRequest},
		{"/v1/windows", `{"key":"` + long + `","width":1,"t":1}`, false, http.StatusBadRequest},
	}
	for _, rt := range routes {
		edges := map[string]string{"node": node.URL}
		if rt.onCoordinator {
			edges["coordinator"] = coordTS.URL
		}
		for _, tc := range []struct {
			name, body string
			status     int
			code       string
		}{
			{"over-cap", rt.overCap, http.StatusRequestEntityTooLarge, query.CodeTooLarge},
			{"malformed", `{"queries":[`, http.StatusBadRequest, query.CodeInvalid},
			{"unknown-field", `{"bogus":1}`, rt.unknownField, query.CodeInvalid},
		} {
			for edge, base := range edges {
				t.Run(rt.path+"/"+tc.name+"/"+edge, func(t *testing.T) {
					m := wantStatus(t, postJSON(t, base+rt.path, tc.body), tc.status)
					if tc.status == http.StatusOK {
						return
					}
					if e, _ := m["error"].(map[string]any); e == nil || e["code"] != tc.code {
						t.Errorf("error = %v, want code %s", m["error"], tc.code)
					}
				})
			}
		}
	}

	// The NDJSON framing of /ingest goes through the same cap.
	for edge, base := range map[string]string{"node": node.URL, "coordinator": coordTS.URL} {
		resp, err := http.Post(base+"/ingest", "application/x-ndjson", strings.NewReader(`{"key":"`+long+`","value":1}`+"\n"))
		if err != nil {
			t.Fatal(err)
		}
		m := wantStatus(t, resp, http.StatusRequestEntityTooLarge)
		if e, _ := m["error"].(map[string]any); e == nil || e["code"] != query.CodeTooLarge {
			t.Errorf("%s ndjson over-cap: error = %v, want code %s", edge, m["error"], query.CodeTooLarge)
		}
	}
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

	// The same snapshot with one key's Pow[1] set to +Inf: a typed 400
	// naming the corrupt record, and the store keeps what it held.
	key := store.Keys("")[0]
	sk, _ := store.Sketch(key)
	at := bytes.Index(snap, encoding.Marshal(sk))
	if at < 0 {
		t.Fatalf("record of %q not found in the snapshot", key)
	}
	sk.Pow[1] = math.Inf(1)
	poisoned := append([]byte(nil), snap...)
	copy(poisoned[at:], encoding.Marshal(sk))
	resp, err = http.Post(ts.URL+"/restore", "application/octet-stream", bytes.NewReader(poisoned))
	if err != nil {
		t.Fatal(err)
	}
	m = wantStatus(t, resp, http.StatusBadRequest)
	if env, _ := m["error"].(map[string]any); env == nil || env["code"] != query.CodeInvalid ||
		!strings.Contains(fmt.Sprint(env["message"]), encoding.ErrCorrupt.Error()) {
		t.Errorf("non-finite restore: body %v, want %q naming %q", m, query.CodeInvalid, encoding.ErrCorrupt)
	}
	if store.Len() != 4 || store.TotalCount() != 8000 {
		t.Errorf("refused restore changed the store: %d keys, %v observations", store.Len(), store.TotalCount())
	}
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
	// Query load during ingest: a /v1/query batch always returns 200, with
	// per-subquery not_found errors inside for keys not yet ingested.
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
				ts.URL + "/v1/stats",
				ts.URL + "/keys?prefix=g1.",
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
				if resp.StatusCode != http.StatusOK {
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
	est := queryOne(t, ts, query.Selection{Key: key}, quantiles(0.9)).Groups[0].Aggregations[0].Quantiles[0].Value
	rank := float64(sort.SearchFloat64s(data, est)) / float64(len(data))
	if math.Abs(rank-0.9) > 0.06 {
		t.Errorf("served p90 %v has sample rank %v", est, rank)
	}
}

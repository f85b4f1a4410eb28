package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/maxent"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/sketch"
	"repro/internal/window"
)

const winEpoch = 1_700_000_000 // fixed "now" for the windowed fixtures

// Tolerances against the full re-merge oracle: the rollup itself (counts,
// closed-form moments) must match to 1e-9; solved quantiles sit behind the
// maximum-entropy solver, which amplifies last-ulp moment differences, so
// they get an estimator-level bound.
const (
	winRollupTol   = 1e-9
	winQuantileTol = 1e-6
)

// newWindowedServer builds a windowed store frozen at winEpoch plus an
// httptest server in front of it.
func newWindowedServer(t *testing.T, paneWidth time.Duration, retention int) (*shard.Store, *httptest.Server) {
	t.Helper()
	store := shard.New(
		shard.WithShards(4),
		shard.WithWindow(paneWidth, retention),
		shard.WithClock(func() time.Time { return time.Unix(winEpoch, 0) }),
	)
	ts := httptest.NewServer(New(store))
	t.Cleanup(ts.Close)
	return store, ts
}

// ingestRandomPanes POSTs a random pane stream for each key over HTTP with
// explicit ts stamps, spiking the given key over panes [spikeLo, spikeHi).
func ingestRandomPanes(t *testing.T, url string, rng *rand.Rand, keys []string,
	paneWidth time.Duration, retention, perPane int, spikeKey string, spikeLo, spikeHi int) {
	t.Helper()
	var sb strings.Builder
	for p := 0; p < retention; p++ {
		paneStart := winEpoch - int64((retention-1-p))*int64(paneWidth/time.Second)
		for _, key := range keys {
			for i := 0; i < perPane; i++ {
				v := 20 + rng.ExpFloat64()*30
				if key == spikeKey && p >= spikeLo && p < spikeHi && rng.Float64() < 0.4 {
					v = 900 + rng.ExpFloat64()*100
				}
				ts := float64(paneStart) + rng.Float64()*paneWidth.Seconds()
				fmt.Fprintf(&sb, `{"key":%q,"value":%g,"ts":%g}`+"\n", key, v, ts)
			}
		}
	}
	resp, err := http.Post(url+"/ingest", "application/x-ndjson", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest returned %s", resp.Status)
	}
}

func postObj(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp
}

// serverRawPanes extracts the moments view of a pane series (test helper).
func serverRawPanes(t *testing.T, ps *shard.PaneSeries) []*core.Sketch {
	t.Helper()
	raws, ok := ps.MomentsPanes()
	if !ok {
		t.Fatal("pane series is not moments-backed")
	}
	return raws
}

func winRelErr(got, want float64) float64 {
	return math.Abs(got-want) / math.Max(1, math.Abs(want))
}

// oracleWindow re-merges panes[a:b] from scratch.
func oracleWindow(t *testing.T, panes []*core.Sketch, a, b int) *core.Sketch {
	t.Helper()
	sk := core.New(panes[0].K)
	for _, p := range panes[a:b] {
		if err := sk.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	return sk
}

// checkWindowedGroups pins every sliding-window group of a /v1/query
// response to the full re-merge oracle.
func checkWindowedGroups(t *testing.T, label string, groups []query.GroupResult, panes []*core.Sketch, width, step int) {
	t.Helper()
	wantPositions := (len(panes)-width)/step + 1
	if len(groups) != wantPositions {
		t.Fatalf("%s: %d groups, want %d", label, len(groups), wantPositions)
	}
	for gi, g := range groups {
		oracle := oracleWindow(t, panes, gi*step, gi*step+width)
		st := g.Aggregations[0].Stats
		if g.Count != oracle.Count || st.Count != oracle.Count {
			t.Fatalf("%s pos %d: count = %v, oracle %v", label, gi, g.Count, oracle.Count)
		}
		if st.Min != oracle.Min || st.Max != oracle.Max {
			t.Errorf("%s pos %d: range [%v,%v], oracle [%v,%v]", label, gi, st.Min, st.Max, oracle.Min, oracle.Max)
		}
		if d := winRelErr(st.Mean, oracle.Mean()); d > winRollupTol {
			t.Errorf("%s pos %d: mean = %v, oracle %v (rel diff %g)", label, gi, st.Mean, oracle.Mean(), d)
		}
		if d := winRelErr(st.Variance, oracle.Variance()); d > winRollupTol {
			t.Errorf("%s pos %d: variance = %v, oracle %v (rel diff %g)", label, gi, st.Variance, oracle.Variance(), d)
		}
		sol, err := maxent.SolveSketch(oracle, maxent.Options{})
		if err != nil {
			t.Fatal(err)
		}
		wantQ := sol.Quantile(0.99)
		gotQ := g.Aggregations[1].Quantiles[0].Value
		if d := winRelErr(gotQ, wantQ); d > winQuantileTol {
			t.Errorf("%s pos %d: p99 = %v, oracle %v (rel diff %g)", label, gi, gotQ, wantQ, d)
		}
	}
}

// windowedQuery builds the standard stats+p99 sliding-window request.
func windowedQuery(sel query.Selection) query.Request {
	return query.Request{Queries: []query.Subquery{{
		Select: sel,
		Aggregations: []query.Aggregation{
			{Op: query.OpStats},
			{Op: query.OpQuantiles, Phis: []float64{0.99}},
		},
	}}}
}

// TestWindowedQueryOracleSuite is the §7.2.2 equivalence suite: random pane
// streams ingested over HTTP, windowed /v1/query results pinned to a full
// re-merge oracle — and pinned again after a snapshot/restore round trip
// through /snapshot and /restore.
func TestWindowedQueryOracleSuite(t *testing.T) {
	const (
		paneWidth = time.Second
		retention = 48
		perPane   = 30
		width     = 8
		step      = 1
	)
	keys := []string{"us.web", "us.api", "eu.web"}
	store, srv := newWindowedServer(t, paneWidth, retention)
	rng := rand.New(rand.NewPCG(101, 103))
	// No spike: subtracting panes whose values dwarf the rest cancels
	// catastrophically in the high-order power sums, which is inherent to
	// the turnstile and covered by the exact hot-set tests instead; this
	// suite pins the drift-free contract on continuous random streams.
	ingestRandomPanes(t, srv.URL, rng, keys, paneWidth, retention, perPane, "", 0, 0)

	run := func(t *testing.T, st *shard.Store, url string) {
		for _, sel := range []query.Selection{
			{Key: "us.web", Window: &query.WindowSpec{Last: width, Step: step}},
			{Prefix: strPtr("us."), Window: &query.WindowSpec{Last: width, Step: step}},
		} {
			var ps *shard.PaneSeries
			var err error
			label := "key " + sel.Key
			if sel.Key != "" {
				ps, err = st.Panes(sel.Key)
			} else {
				ps, err = st.PanesPrefix(t.Context(), *sel.Prefix)
				label = "prefix " + *sel.Prefix
			}
			if err != nil {
				t.Fatal(err)
			}
			var out query.Response
			resp := postObj(t, url+"/v1/query", windowedQuery(sel), &out)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: /v1/query returned %s", label, resp.Status)
			}
			res := out.Results[0]
			if res.Error != nil {
				t.Fatalf("%s: %v", label, res.Error)
			}
			checkWindowedGroups(t, label, res.Groups, serverRawPanes(t, ps), width, step)
		}
	}
	run(t, store, srv.URL)

	// Snapshot over HTTP, restore into a fresh windowed server, re-pin.
	snap, err := http.Get(srv.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := func() ([]byte, error) {
		defer snap.Body.Close()
		var buf bytes.Buffer
		_, err := buf.ReadFrom(snap.Body)
		return buf.Bytes(), err
	}()
	if err != nil {
		t.Fatal(err)
	}
	store2, srv2 := newWindowedServer(t, paneWidth, retention)
	resp, err := http.Post(srv2.URL+"/restore", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore returned %s", resp.Status)
	}
	run(t, store2, srv2.URL)

	// The retained fast path (whole-ring window) after restore: the
	// rolling sketch was rebuilt by exact re-merge, so it must also sit on
	// the oracle.
	var out query.Response
	postObj(t, srv2.URL+"/v1/query", windowedQuery(query.Selection{
		Prefix: strPtr(""), Window: &query.WindowSpec{},
	}), &out)
	if out.Results[0].Error != nil {
		t.Fatal(out.Results[0].Error)
	}
	ps, err := store2.PanesPrefix(t.Context(), "")
	if err != nil {
		t.Fatal(err)
	}
	checkWindowedGroups(t, "retained whole-ring", out.Results[0].Groups, serverRawPanes(t, ps), retention, retention)
}

// TestWindowsScanMatchesSummaryOracle pins the /v1/windows alert scan to
// window.ScanSummaries — the generic re-merge-every-window comparison path
// — run over moments summaries built from the same panes.
func TestWindowsScanMatchesSummaryOracle(t *testing.T) {
	const (
		paneWidth = time.Second
		retention = 40
		width     = 6
		thresh    = 700.0
		phi       = 0.95
	)
	keys := []string{"us.web", "us.api"}
	store, srv := newWindowedServer(t, paneWidth, retention)
	rng := rand.New(rand.NewPCG(7, 9))
	ingestRandomPanes(t, srv.URL, rng, keys, paneWidth, retention, 40, "us.web", 25, 30)

	var out windowsResponse
	resp := postObj(t, srv.URL+"/v1/windows", map[string]any{
		"key": "us.web", "width": width, "t": thresh, "phi": phi,
	}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/windows returned %s", resp.Status)
	}
	if out.Windows != retention-width+1 || out.Panes != retention || out.Keys != 1 {
		t.Fatalf("scan shape %+v", out)
	}
	if out.Cascade.Queries == 0 {
		t.Error("cascade counters missing")
	}

	// Oracle: re-merge every window position from the same pane sketches.
	ps, err := store.Panes("us.web")
	if err != nil {
		t.Fatal(err)
	}
	// The pane series already carries serving MSketch clones; hand them to
	// the summary-generic scanner directly.
	sumPanes := make([]sketch.Summary, len(ps.Panes))
	for i, p := range ps.Panes {
		sumPanes[i] = p
	}
	oracle, err := window.ScanSummaries(sumPanes, width, thresh, phi,
		func() sketch.Summary { return sketch.NewMSketch(store.Order()) })
	if err != nil {
		t.Fatal(err)
	}
	if len(oracle.Hot) == 0 {
		t.Fatal("vacuous: oracle flags no windows")
	}
	var got []int
	for _, h := range out.Hot {
		got = append(got, h.Index)
		wantStart := float64(ps.PaneStart(h.Index).UnixNano()) / 1e9
		if h.StartUnix != wantStart || h.EndUnix != wantStart+float64(width)*paneWidth.Seconds() {
			t.Errorf("hot window %d bounds [%v,%v), want start %v", h.Index, h.StartUnix, h.EndUnix, wantStart)
		}
	}
	if len(got) != len(oracle.Hot) {
		t.Fatalf("hot windows %v, oracle %v", got, oracle.Hot)
	}
	for i := range got {
		if got[i] != oracle.Hot[i] {
			t.Fatalf("hot windows %v, oracle %v", got, oracle.Hot)
		}
	}
}

// TestWindowedPrefixAnswersRepeatable: a windowed-prefix /v1/query request
// and a /v1/windows prefix scan, each sent twice to a quiescent store with
// the solve cache off, return identical bodies apart from the scan's
// merge_ns/est_ns timers. One stripe holds all 200 keys and the values span
// orders of magnitude, so a merge order that followed map iteration would
// move the trailing digits between the two answers.
func TestWindowedPrefixAnswersRepeatable(t *testing.T) {
	store := shard.New(shard.WithShards(1), shard.WithWindow(time.Second, 16),
		shard.WithClock(func() time.Time { return time.Unix(winEpoch, 0) }))
	ts := httptest.NewServer(New(store, WithSolveCache(0)))
	defer ts.Close()
	rng := rand.New(rand.NewPCG(27, 28))
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		for j := 0; j < 4; j++ {
			fmt.Fprintf(&sb, `{"key":"rep.k%03d","value":%g,"ts":%d}`+"\n",
				i, math.Exp(rng.NormFloat64()*4), winEpoch-rng.IntN(16))
		}
	}
	resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest returned %s", resp.Status)
	}

	body := func(path, req string) []byte {
		t.Helper()
		resp := postJSON(t, ts.URL+path, req)
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s returned %s: %v", path, resp.Status, m)
		}
		delete(m, "merge_ns")
		delete(m, "est_ns")
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, tc := range []struct{ path, req string }{
		{"/v1/query", `{"queries":[
			{"select":{"prefix":"rep.","window":{"last":8,"step":2}},"aggregations":[{"op":"stats"},{"op":"quantiles","phis":[0.5,0.99]}]},
			{"select":{"prefix":"rep.","window":{}},"aggregations":[{"op":"stats"},{"op":"quantiles","phis":[0.9]}]}]}`},
		{"/v1/windows", `{"prefix":"rep.","width":4,"t":100,"phi":0.9}`},
	} {
		if first, second := body(tc.path, tc.req), body(tc.path, tc.req); !bytes.Equal(first, second) {
			t.Errorf("%s: two answers over the same data differ:\n%s\n%s", tc.path, first, second)
		}
	}
}

func TestWindowsEndpointErrors(t *testing.T) {
	// Timeless store: the endpoint is disabled outright.
	plain := shard.New(shard.WithShards(2))
	srvPlain := httptest.NewServer(New(plain))
	defer srvPlain.Close()
	resp := postObj(t, srvPlain.URL+"/v1/windows", map[string]any{"key": "k", "width": 2, "t": 1.0}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("timeless store: %s, want 400", resp.Status)
	}

	_, srv := newWindowedServer(t, time.Second, 8)
	cases := []struct {
		name string
		body map[string]any
		code int
	}{
		{"both key and prefix", map[string]any{"key": "k", "prefix": "p", "width": 2, "t": 1.0}, http.StatusBadRequest},
		{"neither key nor prefix", map[string]any{"width": 2, "t": 1.0}, http.StatusBadRequest},
		{"zero width", map[string]any{"key": "k", "width": 0, "t": 1.0}, http.StatusBadRequest},
		{"width beyond retention", map[string]any{"key": "k", "width": 9, "t": 1.0}, http.StatusBadRequest},
		{"missing t", map[string]any{"key": "k", "width": 2}, http.StatusBadRequest},
		{"bad phi", map[string]any{"key": "k", "width": 2, "t": 1.0, "phi": 1.5}, http.StatusBadRequest},
		{"unknown field", map[string]any{"key": "k", "width": 2, "t": 1.0, "bogus": true}, http.StatusBadRequest},
		{"missing key", map[string]any{"key": "nope", "width": 2, "t": 1.0}, http.StatusNotFound},
		{"missing prefix", map[string]any{"prefix": "nope.", "width": 2, "t": 1.0}, http.StatusNotFound},
	}
	for _, tc := range cases {
		var envelope struct {
			Error *query.Error `json:"error"`
		}
		resp := postObj(t, srv.URL+"/v1/windows", tc.body, &envelope)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %s, want %d", tc.name, resp.Status, tc.code)
		}
		if envelope.Error == nil {
			t.Errorf("%s: no error envelope", tc.name)
		}
	}
}

func TestIngestRejectsBadTimestamp(t *testing.T) {
	_, srv := newWindowedServer(t, time.Second, 4)
	for _, body := range []string{
		`{"observations":[{"key":"k","value":1,"ts":-5}]}`,
		`{"observations":[{"key":"k","value":1,"ts":1753689600000}]}`, // milliseconds: reject, don't overflow
		`{"observations":[{"key":"k","value":1,"ts":null}]}`,
	} {
		resp, err := http.Post(srv.URL+"/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if body == `{"observations":[{"key":"k","value":1,"ts":null}]}` {
			// Explicit null is indistinguishable from absent: accepted.
			if resp.StatusCode != http.StatusOK {
				t.Errorf("null ts: %s, want 200", resp.Status)
			}
			continue
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: %s, want 400", body, resp.Status)
		}
	}
}

func strPtr(s string) *string { return &s }

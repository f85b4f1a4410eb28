package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/query"
)

func postV1(t *testing.T, ts *httptest.Server, req query.Request) *query.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/query: status %d, body %s", resp.StatusCode, b)
	}
	var out query.Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestEquivalenceRepeatable pins the premise every equivalence suite rests
// on: the same query answered twice must be byte-identical (deterministic
// merge order and solver).
func TestEquivalenceRepeatable(t *testing.T) {
	ts, _ := newTestServer(t)
	seedRegions(t, ts)
	for _, body := range []string{
		`{"queries":[{"select":{"key":"eu.api"},"aggregations":[{"op":"stats"},{"op":"quantiles","phis":[0.9]}]}]}`,
		`{"queries":[{"select":{"prefix":""},"aggregations":[{"op":"stats"},{"op":"quantiles","phis":[0.5]}]}]}`,
		`{"queries":[{"select":{"prefix":"","group_by":1},"aggregations":[{"op":"quantiles","phis":[0.99]}]}]}`,
	} {
		a := readBody(t, postJSON(t, ts.URL+"/v1/query", body))
		b := readBody(t, postJSON(t, ts.URL+"/v1/query", body))
		if a != b {
			t.Errorf("%s: two identical queries differ:\n%s\n%s", body, a, b)
		}
	}
}

// TestErrorEnvelope asserts the structured {code, message} envelope on
// every failing endpoint, with codes mapped to the right statuses.
func TestErrorEnvelope(t *testing.T) {
	ts, _ := newTestServer(t)
	seedRegions(t, ts)

	cases := []struct {
		url, body string
		status    int
		code      string
	}{
		{"/ingest", `[{"key":"","value":1}]`, http.StatusBadRequest, query.CodeInvalid},
		{"/restore", "garbage", http.StatusBadRequest, query.CodeInvalid},
		{"/v1/query", `{`, http.StatusBadRequest, query.CodeInvalid},
		{"/v1/query", `{"queries":[]}`, http.StatusBadRequest, query.CodeInvalid},
		{"/v1/query", `{"unknown_field":1}`, http.StatusBadRequest, query.CodeInvalid},
	}
	for _, tc := range cases {
		name := "POST " + tc.url + " " + tc.body
		resp := postJSON(t, ts.URL+tc.url, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", name, resp.StatusCode, tc.status)
		}
		var envelope struct {
			Error *query.Error `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
			t.Fatalf("%s: decoding envelope: %v", name, err)
		}
		resp.Body.Close()
		if envelope.Error == nil {
			t.Errorf("%s: no error envelope", name)
			continue
		}
		if envelope.Error.Code != tc.code {
			t.Errorf("%s: code %q, want %q", name, envelope.Error.Code, tc.code)
		}
		if envelope.Error.Message == "" {
			t.Errorf("%s: empty message", name)
		}
	}
}

// TestV1QueryBatchHTTP exercises the batched endpoint end to end: a batch
// mixing group-bys, rollups, exact keys and failures returns per-subquery
// results with isolated errors.
func TestV1QueryBatchHTTP(t *testing.T) {
	ts, _ := newTestServer(t)
	seedRegions(t, ts)

	euPrefix, emptyPrefix, level := "eu.", "", 1
	tVal := 1.0
	req := query.Request{Queries: []query.Subquery{
		{
			ID:     "by-service",
			Select: query.Selection{Prefix: &emptyPrefix, GroupBy: &level},
			Aggregations: []query.Aggregation{
				{Op: query.OpQuantiles, Phis: []float64{0.5, 0.99}},
				{Op: query.OpStats},
			},
		},
		{
			ID:           "eu-threshold",
			Select:       query.Selection{Prefix: &euPrefix},
			Aggregations: []query.Aggregation{{Op: query.OpThreshold, T: &tVal}},
		},
		{
			ID:           "missing",
			Select:       query.Selection{Key: "nope"},
			Aggregations: []query.Aggregation{{Op: query.OpStats}},
		},
		{
			ID:           "exact",
			Select:       query.Selection{Key: "us.web"},
			Aggregations: []query.Aggregation{{Op: query.OpRankBounds, Xs: []float64{1}}},
		},
	}}
	resp := postV1(t, ts, req)
	if len(resp.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(resp.Results))
	}
	byService := resp.Results[0]
	if byService.Error != nil {
		t.Fatalf("by-service: %v", byService.Error)
	}
	if len(byService.Groups) != 2 {
		t.Fatalf("by-service: %d groups, want 2 (web, api)", len(byService.Groups))
	}
	for _, g := range byService.Groups {
		if g.Group != "web" && g.Group != "api" {
			t.Errorf("unexpected group %q", g.Group)
		}
		if g.Keys != 2 || g.Count != 4000 {
			t.Errorf("group %q: keys/count = %d/%v, want 2/4000", g.Group, g.Keys, g.Count)
		}
	}
	if th := resp.Results[1]; th.Error != nil || th.Groups[0].Aggregations[0].Threshold == nil {
		t.Errorf("eu-threshold: %+v", th)
	}
	if m := resp.Results[2]; m.Error == nil || m.Error.Code != query.CodeNotFound {
		t.Errorf("missing: error = %v, want %s", m.Error, query.CodeNotFound)
	}
	if e := resp.Results[3]; e.Error != nil || len(e.Groups[0].Aggregations[0].RankBounds) != 1 {
		t.Errorf("exact: %+v", e)
	}
}

// TestV1QueryLargeBatch sends a batch of 120 group-by subqueries over HTTP
// (the acceptance scenario) and checks every result arrives in order.
func TestV1QueryLargeBatch(t *testing.T) {
	ts, _ := newTestServer(t)
	seedRegions(t, ts)

	var req query.Request
	for i := 0; i < 120; i++ {
		prefix, level := "", i%2
		req.Queries = append(req.Queries, query.Subquery{
			ID:           fmt.Sprintf("q%d", i),
			Select:       query.Selection{Prefix: &prefix, GroupBy: &level},
			Aggregations: []query.Aggregation{{Op: query.OpQuantiles, Phis: []float64{0.9}}},
		})
	}
	resp := postV1(t, ts, req)
	if len(resp.Results) != 120 {
		t.Fatalf("got %d results, want 120", len(resp.Results))
	}
	for i, res := range resp.Results {
		if res.ID != fmt.Sprintf("q%d", i) {
			t.Fatalf("result %d has id %q", i, res.ID)
		}
		if res.Error != nil {
			t.Errorf("result %d: %v", i, res.Error)
		}
		if len(res.Groups) != 2 {
			t.Errorf("result %d: %d groups, want 2", i, len(res.Groups))
		}
	}
}

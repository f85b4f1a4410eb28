package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/sketch"
)

// newBackendServer wires a store on the given backend behind an httptest
// server.
func newBackendServer(t *testing.T, b sketch.Backend) (*shard.Store, *httptest.Server) {
	t.Helper()
	store := shard.New(shard.WithShards(4), shard.WithBackend(b))
	ts := httptest.NewServer(New(store))
	t.Cleanup(ts.Close)
	return store, ts
}

// ingestNDJSON posts one observation per line, preserving order.
func ingestNDJSON(t *testing.T, url string, obs []shard.Observation) {
	t.Helper()
	var sb strings.Builder
	for _, o := range obs {
		fmt.Fprintf(&sb, `{"key":%q,"value":%g}`+"\n", o.Key, o.Value)
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

func queryQuantiles(t *testing.T, url string, sel query.Selection, phis []float64) query.Result {
	t.Helper()
	var out query.Response
	resp := postObj(t, url+"/v1/query", query.Request{Queries: []query.Subquery{{
		Select:       sel,
		Aggregations: []query.Aggregation{{Op: query.OpQuantiles, Phis: phis}},
	}}}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/query returned %s", resp.Status)
	}
	return out.Results[0]
}

// TestBackendServeEndToEnd is the acceptance path for non-moments serving:
// HTTP ingest → /v1/query quantiles → GET /snapshot (v3) → POST /restore
// into a fresh server → identical query answers. Results are pinned against
// the internal/sketch reference implementations: exactly for the
// deterministic t-digest, to sample-rank tolerance for the seeded Merge12 —
// and byte-exactly across the snapshot round trip for both.
func TestBackendServeEndToEnd(t *testing.T) {
	for _, b := range []sketch.Backend{sketch.Merge12Backend(64), sketch.TDigestBackend(100)} {
		t.Run(b.Name, func(t *testing.T) {
			_, srv := newBackendServer(t, b)
			rng := rand.New(rand.NewPCG(91, 92))
			var obs []shard.Observation
			values := map[string][]float64{}
			for i := 0; i < 3000; i++ {
				key := fmt.Sprintf("us.svc%d", i%3)
				v := math.Exp(rng.NormFloat64())
				obs = append(obs, shard.Observation{Key: key, Value: v})
				values[key] = append(values[key], v)
			}
			ingestNDJSON(t, srv.URL, obs)

			// Reference implementation fed the same per-key streams in
			// ingestion order.
			refs := map[string]sketch.Serving{}
			for _, o := range obs {
				ref, ok := refs[o.Key]
				if !ok {
					ref = b.New()
					refs[o.Key] = ref
				}
				ref.Add(o.Value)
			}

			phis := []float64{0.1, 0.5, 0.9, 0.99}
			check := func(t *testing.T, url, when string) map[string][]float64 {
				answers := map[string][]float64{}
				for key, data := range values {
					res := queryQuantiles(t, url, query.Selection{Key: key}, phis)
					if res.Error != nil {
						t.Fatalf("%s %s: %v", when, key, res.Error)
					}
					g := res.Groups[0]
					if g.Backend != b.Name {
						t.Errorf("%s %s: group backend %q, want %q", when, key, g.Backend, b.Name)
					}
					if g.Count != float64(len(data)) {
						t.Errorf("%s %s: count %v, want %d", when, key, g.Count, len(data))
					}
					sorted := append([]float64(nil), data...)
					sort.Float64s(sorted)
					for _, qp := range g.Aggregations[0].Quantiles {
						answers[key] = append(answers[key], qp.Value)
						if r := sampleRankOf(sorted, qp.Value); math.Abs(r-qp.Q) > 0.06 {
							t.Errorf("%s %s: q(%v) = %v has sample rank %v", when, key, qp.Q, qp.Value, r)
						}
						if b.Name == "tdigest" {
							// Deterministic backend: the served estimate must
							// equal the reference implementation's exactly.
							if want := refs[key].Quantile(qp.Q); qp.Value != want {
								t.Errorf("%s %s: q(%v) = %v, reference %v", when, key, qp.Q, qp.Value, want)
							}
						}
					}
				}
				return answers
			}
			before := check(t, srv.URL, "pre-restore")

			// Snapshot over HTTP and restore into a fresh same-backend server.
			snap, err := http.Get(srv.URL + "/snapshot")
			if err != nil {
				t.Fatal(err)
			}
			var blob bytes.Buffer
			_, err = blob.ReadFrom(snap.Body)
			snap.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			_, srv2 := newBackendServer(t, b)
			resp, err := http.Post(srv2.URL+"/restore", "application/octet-stream", bytes.NewReader(blob.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("restore returned %s", resp.Status)
			}
			after := check(t, srv2.URL, "post-restore")

			// The codec serializes complete summary state, so the restored
			// server's answers must be identical, not merely close.
			for key, want := range before {
				got := after[key]
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("key %s phi=%v: post-restore %v, pre-restore %v", key, phis[i], got[i], want[i])
					}
				}
			}
		})
	}
}

func sampleRankOf(sorted []float64, x float64) float64 {
	return float64(sort.SearchFloat64s(sorted, x)) / float64(len(sorted))
}

// TestBackendStatsEcho: /v1/stats must name the serving backend by its
// fingerprint, the one backend identity (there are no capability flags).
func TestBackendStatsEcho(t *testing.T) {
	_, srv := newBackendServer(t, sketch.TDigestBackend(200))
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if out["backend"] != "tdigest(c=200)" {
		t.Errorf("backend = %v, want tdigest(c=200)", out["backend"])
	}
	if caps, ok := out["backend_caps"]; ok {
		t.Errorf("backend_caps = %v, want no such field", caps)
	}
}

// TestBackendRestoreMismatchHTTP: restoring a snapshot from a differently
// backed server must fail with a 400 and a clear message.
func TestBackendRestoreMismatchHTTP(t *testing.T) {
	_, tdSrv := newBackendServer(t, sketch.TDigestBackend(100))
	ingestNDJSON(t, tdSrv.URL, []shard.Observation{{Key: "k", Value: 1}})
	snap, err := http.Get(tdSrv.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	_, err = blob.ReadFrom(snap.Body)
	snap.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	_, m12Srv := newBackendServer(t, sketch.Merge12Backend(64))
	resp, err := http.Post(m12Srv.URL+"/restore", "application/octet-stream", bytes.NewReader(blob.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("cross-backend restore returned %s, want 400", resp.Status)
	}
	var envelope struct {
		Error *query.Error `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil || envelope.Error == nil {
		t.Fatalf("no error envelope: %v", err)
	}
	if !strings.Contains(envelope.Error.Message, "does not match store backend") {
		t.Errorf("error message %q does not explain the backend mismatch", envelope.Error.Message)
	}
}

// TestBackendWindowsEndpointGuard: the /v1/windows cascade scan is
// moments-only and must refuse other backends with the typed code.
func TestBackendWindowsEndpointGuard(t *testing.T) {
	store := shard.New(
		shard.WithShards(2),
		shard.WithBackend(sketch.TDigestBackend(100)),
		shard.WithWindow(1e9, 8),
	)
	srv := httptest.NewServer(New(store))
	defer srv.Close()
	var envelope struct {
		Error *query.Error `json:"error"`
	}
	resp := postObj(t, srv.URL+"/v1/windows", map[string]any{"key": "k", "width": 2, "t": 1.0}, &envelope)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/v1/windows on tdigest returned %s, want 400", resp.Status)
	}
	if envelope.Error == nil || envelope.Error.Code != query.CodeBackendUnsupported {
		t.Errorf("error = %+v, want code %s", envelope.Error, query.CodeBackendUnsupported)
	}
}

// TestBackendUnsupportedOverHTTP: a moment-structure aggregation on a
// non-moments server comes back as an isolated typed subquery error.
func TestBackendUnsupportedOverHTTP(t *testing.T) {
	_, srv := newBackendServer(t, sketch.SamplingBackend(256))
	ingestNDJSON(t, srv.URL, []shard.Observation{{Key: "k", Value: 1}})
	var out query.Response
	resp := postObj(t, srv.URL+"/v1/query", query.Request{Queries: []query.Subquery{
		{Select: query.Selection{Key: "k"}, Aggregations: []query.Aggregation{{Op: query.OpStats}}},
		{Select: query.Selection{Key: "k"}, Aggregations: []query.Aggregation{{Op: query.OpQuantiles}}},
	}}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/query returned %s (batch errors must stay isolated)", resp.Status)
	}
	if out.Results[0].Error == nil || out.Results[0].Error.Code != query.CodeBackendUnsupported {
		t.Errorf("stats subquery error = %+v, want %s", out.Results[0].Error, query.CodeBackendUnsupported)
	}
	if out.Results[1].Error != nil {
		t.Errorf("quantiles subquery failed: %v", out.Results[1].Error)
	}
}

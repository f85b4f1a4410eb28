package server

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/shard"
)

// benchHandler returns a ready server handler over a pre-seeded store
// (64 groups × 2 keys of lognormal latencies).
func benchHandler(b *testing.B) *Server {
	b.Helper()
	store := shard.New(shard.WithShards(16))
	rng := rand.New(rand.NewPCG(3, 4))
	batch := store.NewBatch()
	for g := 0; g < 64; g++ {
		for k := 0; k < 2; k++ {
			key := fmt.Sprintf("g%d.k%d", g, k)
			for i := 0; i < 500; i++ {
				batch.Add(key, math.Exp(rng.NormFloat64()*0.5))
			}
		}
	}
	batch.Flush()
	return New(store)
}

// BenchmarkIngestNDJSON measures ingest throughput through the full HTTP
// handler path (decode, validate, batch, flush) for 1000-observation
// NDJSON bodies.
func BenchmarkIngestNDJSON(b *testing.B) {
	srv := New(shard.New(shard.WithShards(16)))
	rng := rand.New(rand.NewPCG(5, 6))
	var sb strings.Builder
	const obsPerReq = 1000
	for i := 0; i < obsPerReq; i++ {
		fmt.Fprintf(&sb, "{\"key\":\"g%d.k%d\",\"value\":%g}\n",
			i%16, i%64, math.Exp(rng.NormFloat64()))
	}
	body := sb.String()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/ingest", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/x-ndjson")
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
	b.ReportMetric(float64(obsPerReq)*float64(b.N)/b.Elapsed().Seconds(), "obs/s")
}

// benchV1Body builds a /v1/query batch of n group-by subqueries.
func benchV1Body(n int) string {
	var sb strings.Builder
	sb.WriteString(`{"queries":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb,
			`{"id":"q%d","select":{"prefix":"g%d.","group_by":1},"aggregations":[{"op":"quantiles","phis":[0.5,0.99]},{"op":"stats"}]}`,
			i, i%64)
	}
	sb.WriteString("]}")
	return sb.String()
}

// BenchmarkV1QueryBatch100 measures end-to-end latency of one POST
// /v1/query carrying 100 group-by subqueries.
func BenchmarkV1QueryBatch100(b *testing.B) {
	srv := benchHandler(b)
	body := benchV1Body(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/query", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
	b.ReportMetric(100*float64(b.N)/b.Elapsed().Seconds(), "subqueries/s")
}

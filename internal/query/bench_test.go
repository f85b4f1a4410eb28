package query

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/shard"
	"repro/internal/sketch"
)

// benchStore holds 128 dashboard groups of 2 keys each, the acceptance
// workload: one batched request carrying ≥ 100 group-by subqueries.
func benchStore(b *testing.B) *shard.Store {
	b.Helper()
	store := shard.New(shard.WithShards(16))
	rng := rand.New(rand.NewPCG(1, 2))
	batch := store.NewBatch()
	for g := 0; g < 128; g++ {
		for k := 0; k < 2; k++ {
			key := fmt.Sprintf("g%d.k%d", g, k)
			for i := 0; i < 500; i++ {
				batch.Add(key, math.Exp(rng.NormFloat64()*0.5)+float64(g%7))
			}
		}
	}
	batch.Flush()
	return store
}

func benchRequest() *Request {
	var req Request
	for g := 0; g < 128; g++ {
		prefix, level := fmt.Sprintf("g%d.", g), 1
		req.Queries = append(req.Queries, Subquery{
			ID:     fmt.Sprintf("q%d", g),
			Select: Selection{Prefix: &prefix, GroupBy: &level},
			Aggregations: []Aggregation{
				{Op: OpQuantiles, Phis: []float64{0.5, 0.99}},
				{Op: OpStats},
			},
		})
	}
	return &req
}

// BenchmarkBatch128GroupByParallel measures one batched Execute of 128
// group-by subqueries on the parallel executor (GOMAXPROCS workers) — the
// /v1/query hot path.
func BenchmarkBatch128GroupByParallel(b *testing.B) {
	store := benchStore(b)
	e := NewEngine(store, Config{})
	req := benchRequest()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, qerr := e.Execute(context.Background(), req)
		if qerr != nil {
			b.Fatal(qerr)
		}
		if resp.Results[0].Error != nil {
			b.Fatal(resp.Results[0].Error)
		}
	}
	b.ReportMetric(float64(len(req.Queries))*float64(b.N)/b.Elapsed().Seconds(), "subqueries/s")
}

// BenchmarkBatch128GroupBySequential is the pre-/v1/query baseline: the
// same 128 subqueries issued as sequential single-subquery requests, the
// way a dashboard had to loop over the one-shot GET endpoints.
func BenchmarkBatch128GroupBySequential(b *testing.B) {
	store := benchStore(b)
	e := NewEngine(store, Config{})
	req := benchRequest()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sq := range req.Queries {
			resp, qerr := e.Execute(context.Background(), &Request{Queries: []Subquery{sq}})
			if qerr != nil {
				b.Fatal(qerr)
			}
			if resp.Results[0].Error != nil {
				b.Fatal(resp.Results[0].Error)
			}
		}
	}
	b.ReportMetric(float64(len(req.Queries))*float64(b.N)/b.Elapsed().Seconds(), "subqueries/s")
}

// BenchmarkBatch128GroupByCachedWarm measures the same 128-subquery batch
// on an engine with the cross-request solve cache, after one warm-up
// Execute: every selection is a cache hit, so the run prices the pure
// cached-serving path (no merges, no solves) that a dashboard refreshing an
// unchanged store pays. Compare against BenchmarkBatch128GroupByParallel
// (the cold, cache-less run) for the cached-vs-uncached ratio.
func BenchmarkBatch128GroupByCachedWarm(b *testing.B) {
	store := benchStore(b)
	e := NewEngine(store, Config{SolveCache: DefaultSolveCacheSize})
	req := benchRequest()
	if _, qerr := e.Execute(context.Background(), req); qerr != nil {
		b.Fatal(qerr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, qerr := e.Execute(context.Background(), req)
		if qerr != nil {
			b.Fatal(qerr)
		}
		if resp.Results[0].Error != nil {
			b.Fatal(resp.Results[0].Error)
		}
	}
	b.StopTimer()
	if st := e.CacheStats(); st.Hits == 0 {
		b.Fatalf("expected cache hits, got %+v", st)
	}
	b.ReportMetric(float64(len(req.Queries))*float64(b.N)/b.Elapsed().Seconds(), "subqueries/s")
}

// BenchmarkBatchSharedSelection measures the planner's selection dedup: 16
// aggregation-heavy subqueries all over the same prefix rollup pay one
// merge and one solve.
func BenchmarkBatchSharedSelection(b *testing.B) {
	store := benchStore(b)
	e := NewEngine(store, Config{})
	prefix := "g7."
	var req Request
	for i := 0; i < 16; i++ {
		req.Queries = append(req.Queries, Subquery{
			Select: Selection{Prefix: &prefix},
			Aggregations: []Aggregation{
				{Op: OpQuantiles, Phis: []float64{float64(i+1) / 20}},
				{Op: OpCDF, Xs: []float64{1, 2}},
				{Op: OpHistogram, Buckets: 16},
			},
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, qerr := e.Execute(context.Background(), &req); qerr != nil {
			b.Fatal(qerr)
		}
	}
}

// coldStore holds keys shaped like the live benchmark's: svcNN.rR.azA.hH,
// 4 services × 8 regions × 2 zones × 4 hosts of shifted lognormal data.
func coldStore(b *testing.B) *shard.Store {
	b.Helper()
	store := shard.New(shard.WithShards(16))
	rng := rand.New(rand.NewPCG(3, 4))
	batch := store.NewBatch()
	for svc := 0; svc < 4; svc++ {
		for r := 0; r < 8; r++ {
			for az := 0; az < 2; az++ {
				for h := 0; h < 4; h++ {
					key := fmt.Sprintf("svc%02d.r%d.az%d.h%d", svc, r, az, h)
					for i := 0; i < 200; i++ {
						batch.Add(key, math.Exp(rng.NormFloat64()*0.5)+float64(r))
					}
				}
			}
		}
	}
	batch.Flush()
	return store
}

// coldRequest is one request shaped like the live benchmark's uncached
// reads: 2 keys, a 3-segment prefix and an 8-label group_by, each asked for
// quantiles and a threshold — eleven rollups to solve.
func coldRequest() *Request {
	aggs := []Aggregation{
		{Op: OpQuantiles, Phis: []float64{0.5, 0.99}},
		{Op: OpThreshold, T: f64Ptr(4), Phi: f64Ptr(0.99)},
	}
	return &Request{Queries: []Subquery{
		{Select: Selection{Key: "svc00.r1.az0.h2"}, Aggregations: aggs},
		{Select: Selection{Key: "svc03.r6.az1.h0"}, Aggregations: aggs},
		{Select: Selection{Prefix: strPtr("svc01.r3.az1.")}, Aggregations: aggs},
		{Select: Selection{Prefix: strPtr("svc02."), GroupBy: intPtr(1)}, Aggregations: aggs},
	}}
}

// BenchmarkExecuteWorkers sweeps the worker bound on two requests: the
// 128-subquery group-by batch, and one cold dashboard request whose
// eleven rollups are the scheduler's units — the executor's scaling curve.
func BenchmarkExecuteWorkers(b *testing.B) {
	for _, c := range []struct {
		name  string
		store *shard.Store
		req   *Request
	}{
		{"batch128", benchStore(b), benchRequest()},
		{"cold", coldStore(b), coldRequest()},
	} {
		for _, workers := range []int{1, 2, 4, 8, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(b *testing.B) {
				e := NewEngine(c.store, Config{Workers: workers})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, qerr := e.Execute(context.Background(), c.req); qerr != nil {
						b.Fatal(qerr)
					}
				}
			})
		}
	}
}

// BenchmarkBatch128Backend runs the 128-group-by acceptance batch across
// serving backends: quantile-only aggregations (the op set every backend
// answers), so the pair compares the moments solve path against the
// baselines' direct estimators on identical selections.
func BenchmarkBatch128Backend(b *testing.B) {
	for _, bk := range []sketch.Backend{
		sketch.MomentsBackend(10),
		sketch.Merge12Backend(64),
		sketch.TDigestBackend(100),
	} {
		b.Run(bk.Name, func(b *testing.B) {
			store := shard.New(shard.WithShards(16), shard.WithBackend(bk))
			rng := rand.New(rand.NewPCG(1, 2))
			batch := store.NewBatch()
			for g := 0; g < 128; g++ {
				for k := 0; k < 2; k++ {
					key := fmt.Sprintf("g%d.k%d", g, k)
					for i := 0; i < 500; i++ {
						batch.Add(key, math.Exp(rng.NormFloat64()*0.5)+float64(g%7))
					}
				}
			}
			batch.Flush()
			e := NewEngine(store, Config{})
			var req Request
			for g := 0; g < 128; g++ {
				prefix, level := fmt.Sprintf("g%d.", g), 1
				req.Queries = append(req.Queries, Subquery{
					Select:       Selection{Prefix: &prefix, GroupBy: &level},
					Aggregations: []Aggregation{{Op: OpQuantiles, Phis: []float64{0.5, 0.99}}},
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, qerr := e.Execute(context.Background(), &req)
				if qerr != nil {
					b.Fatal(qerr)
				}
				if resp.Results[0].Error != nil {
					b.Fatal(resp.Results[0].Error)
				}
			}
			b.ReportMetric(float64(len(req.Queries))*float64(b.N)/b.Elapsed().Seconds(), "subqueries/s")
		})
	}
}

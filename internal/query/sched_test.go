package query

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/shard"
	"repro/internal/sketch"
)

// schedStore holds 8 services × 4 hosts of Exp data of per-service scale,
// spread over 12 one-second panes, so a store holds every selection class
// the scheduler splits into units: keys, prefixes, an 8-label group_by and
// sliding-window series.
func schedStore(t testing.TB) *shard.Store {
	t.Helper()
	now := time.Unix(windowTestEpoch, 0)
	store := shard.New(
		shard.WithShards(4),
		shard.WithWindow(time.Second, 16),
		shard.WithClock(func() time.Time { return now }),
	)
	rng := rand.New(rand.NewPCG(43, 17))
	for step := 0; step < 12; step++ {
		if step > 0 {
			now = now.Add(time.Second)
		}
		batch := store.NewBatch()
		for svc := 0; svc < 8; svc++ {
			for h := 0; h < 4; h++ {
				key := fmt.Sprintf("svc%d.h%d", svc, h)
				for i := 0; i < 25; i++ {
					batch.Add(key, 10+rng.ExpFloat64()*float64(10*(svc+1)))
				}
			}
		}
		batch.Flush()
	}
	return store
}

// schedBatch mixes every unit shape: two keys, a prefix, an 8-label
// group_by asked twice (one deduplicated selection), windowed quantile and
// threshold series over a key and a prefix, and a miss.
func schedBatch() *Request {
	all := []Aggregation{
		{Op: OpQuantiles, Phis: []float64{0.1, 0.5, 0.99}},
		{Op: OpThreshold, T: f64Ptr(40), Phi: f64Ptr(0.9)},
		{Op: OpStats},
	}
	series := []Aggregation{
		{Op: OpQuantiles, Phis: []float64{0.5, 0.99}},
		{Op: OpThreshold, T: f64Ptr(150), Phi: f64Ptr(0.95)},
	}
	return &Request{Queries: []Subquery{
		{ID: "key", Select: Selection{Key: "svc0.h1"}, Aggregations: all},
		{ID: "key-cdf", Select: Selection{Key: "svc5.h3"}, Aggregations: []Aggregation{
			{Op: OpCDF, Xs: []float64{20, 60, 120}}, {Op: OpHistogram, Buckets: 4}}},
		{ID: "prefix", Select: Selection{Prefix: strPtr("svc2.")}, Aggregations: all},
		{ID: "by-svc", Select: Selection{Prefix: strPtr(""), GroupBy: intPtr(0)}, Aggregations: all},
		{ID: "by-svc-again", Select: Selection{Prefix: strPtr(""), GroupBy: intPtr(0)}, Aggregations: []Aggregation{
			{Op: OpRankBounds, Xs: []float64{20, 50}}, {Op: OpQuantiles}}},
		{ID: "series", Select: Selection{Key: "svc7.h0", Window: &WindowSpec{Last: 4, Step: 1}}, Aggregations: series},
		{ID: "series-prefix", Select: Selection{Prefix: strPtr("svc1."), Window: &WindowSpec{Last: 3, Step: 2}}, Aggregations: series},
		{ID: "missing", Select: Selection{Key: "nope"}, Aggregations: []Aggregation{{Op: OpStats}}},
	}}
}

// TestSchedulerAnswersAtAnyWorkerCount: the per-request scheduler splits a
// batch into one unit per resolve and one per rollup, but the answer is
// the same JSON bytes at 1, 2 and 8 workers, run after run.
func TestSchedulerAnswersAtAnyWorkerCount(t *testing.T) {
	store := schedStore(t)
	var want []byte
	for _, workers := range []int{1, 2, 8} {
		for rep := 0; rep < 3; rep++ {
			resp, qerr := NewEngine(store, Config{Workers: workers}).Execute(context.Background(), schedBatch())
			if qerr != nil {
				t.Fatal(qerr)
			}
			got, err := json.Marshal(resp)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
				checkSchedShape(t, resp)
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("workers=%d run %d answers other bytes than workers=1\n got: %s\nwant: %s", workers, rep, got, want)
			}
		}
	}
}

// checkSchedShape keeps "identically empty" from passing: the group_by
// fans out to 8 groups, the series to several positions, and only the miss
// fails.
func checkSchedShape(t *testing.T, resp *Response) {
	t.Helper()
	for _, r := range resp.Results {
		if (r.Error != nil) != (r.ID == "missing") {
			t.Fatalf("%s: error %v", r.ID, r.Error)
		}
	}
	if n := len(resp.Results[3].Groups); n != 8 {
		t.Fatalf("group_by answered %d groups, want 8", n)
	}
	if n := len(resp.Results[5].Groups); n < 4 {
		t.Fatalf("series answered %d positions, want several", n)
	}
}

// countdownCtx is a context whose deadline passes once its Err has been
// consulted n times, so a test can stop a request between two units.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// TestMomentsOrderOneStats: an order-1 moments store keeps no second power
// sum, so stats answers a typed aggregation error there — next to answered
// quantiles in the same subquery and intact neighbours — instead of
// panicking on the variance.
func TestMomentsOrderOneStats(t *testing.T) {
	store := shard.New(shard.WithBackend(sketch.MomentsBackend(1)))
	for i := 0; i < 100; i++ {
		store.Add(fmt.Sprintf("a.k%d", i%4), float64(i))
	}
	req := &Request{Queries: []Subquery{
		{Select: Selection{Key: "a.k1"}, Aggregations: []Aggregation{{Op: OpStats}, {Op: OpQuantiles}}},
		{Select: Selection{Prefix: strPtr(""), GroupBy: intPtr(1)}, Aggregations: []Aggregation{{Op: OpQuantiles}, {Op: OpStats}}},
	}}
	resp, qerr := NewEngine(store, Config{Workers: 2}).Execute(context.Background(), req)
	if qerr != nil {
		t.Fatal(qerr)
	}
	if _, err := json.Marshal(resp); err != nil {
		t.Fatalf("response does not encode: %v", err)
	}
	for _, r := range resp.Results {
		if r.Error != nil || len(r.Groups) == 0 {
			t.Fatalf("subquery failed: %+v", r)
		}
		for _, g := range r.Groups {
			for _, a := range g.Aggregations {
				switch a.Op {
				case OpStats:
					if a.Error == nil || a.Error.Code != CodeBackendUnsupported || a.Stats != nil {
						t.Errorf("stats at k=1: %+v, want a %s error", a, CodeBackendUnsupported)
					}
				case OpQuantiles:
					if a.Error != nil || len(a.Quantiles) == 0 {
						t.Errorf("quantiles at k=1: %+v", a)
					}
				}
			}
		}
	}
}

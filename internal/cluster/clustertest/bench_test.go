package clustertest

import (
	"fmt"
	"testing"

	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/sketch"
)

// BenchmarkScatterGather measures a spanning prefix read end to end —
// coordinator fan-out, node-side partials resolution, wire round trip,
// merge, solve — against cluster width. nodes=1 is the degenerate cluster
// (all scatter-gather overhead, no parallelism) and the baseline a 4-node
// spread is judged against.
func BenchmarkScatterGather(b *testing.B) {
	for _, nodes := range []int{1, 4} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			c := New(b, Config{Nodes: nodes, StoreOpts: []shard.Option{shard.WithBackend(sketch.MomentsBackend(6))}})
			keys := gridKeys([]string{"us", "eu"}, []string{"web", "api"}, 16)
			seedGrid(b, c, keys, 50, nil)
			req := &query.Request{Queries: []query.Subquery{{
				Select: query.Selection{Prefix: strp("us.")},
				Aggregations: []query.Aggregation{
					{Op: query.OpQuantiles},
					{Op: query.OpStats},
				},
			}}}
			ctx := b.Context()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, qerr := c.Coord.Execute(ctx, req)
				if qerr != nil {
					b.Fatal(qerr)
				}
				if r := &resp.Results[0]; r.Error != nil || len(r.Groups) != 1 {
					b.Fatalf("bad result: %+v", r)
				}
			}
		})
	}
}

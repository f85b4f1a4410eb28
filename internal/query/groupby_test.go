package query

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/sketch"
)

// TestGroupByGroupEqualsCoveringPrefix: a group_by group whose keys are
// exactly some prefix's keys is that prefix's rollup, bit for bit — the
// grouped fold and the prefix rollup are one store walk. Values are
// Exp-distributed, so the power sums round and any difference in fold
// order shows in the low bits. Every deterministic serving backend
// compares marshaled bytes — the randomized merge12 and sampling too, since
// every new summary starts from one PRNG state — and moments also the
// answered aggregations.
func TestGroupByGroupEqualsCoveringPrefix(t *testing.T) {
	ctx := context.Background()
	backends := []sketch.Backend{
		sketch.MomentsBackend(1),
		sketch.MomentsBackend(core.DefaultK),
		sketch.MomentsBackend(core.MaxK),
		sketch.Merge12Backend(sketch.DefaultMerge12K),
		sketch.TDigestBackend(sketch.DefaultTDigestComp),
		sketch.SamplingBackend(sketch.DefaultSamplingSize),
	}
	for _, b := range backends {
		aggs := []Aggregation{{Op: OpQuantiles, Phis: []float64{0.5, 0.99}}}
		if b.Order() >= 2 { // stats reads the second moment
			aggs = append(aggs, Aggregation{Op: OpStats})
		}
		for _, shards := range []int{1, 2, 16} {
			t.Run(fmt.Sprintf("%s/shards=%d", b.Fingerprint(), shards), func(t *testing.T) {
				store := shard.New(shard.WithShards(shards), shard.WithBackend(b))
				rng := rand.New(rand.NewPCG(41, uint64(shards)))
				batch := store.NewBatch()
				for i := 0; i < 3000; i++ {
					batch.Add(fmt.Sprintf("svc%02d.host%02d", rng.IntN(8), rng.IntN(24)), rng.ExpFloat64()*100)
				}
				batch.Flush()
				e := NewEngine(store, Config{})
				groups, qerr := e.resolveSelection(ctx, &Selection{Prefix: strPtr(""), GroupBy: intPtr(0)})
				if qerr != nil {
					t.Fatal(qerr)
				}
				if len(groups) != 8 {
					t.Fatalf("%d groups, want 8", len(groups))
				}
				for _, g := range groups {
					prefix := g.label + "."
					want, qerr := e.resolveSelection(ctx, &Selection{Prefix: &prefix})
					if qerr != nil {
						t.Fatal(qerr)
					}
					if g.keys != want[0].keys {
						t.Fatalf("group %q folds %d keys, prefix %q %d", g.label, g.keys, prefix, want[0].keys)
					}
					if got, want := g.sum.Count(), want[0].sum.Count(); got != want {
						t.Fatalf("group %q counts %v, prefix %q %v", g.label, got, prefix, want)
					}
					gb, qerr := e.marshalGroup(g)
					if qerr != nil {
						t.Fatal(qerr)
					}
					wb, qerr := e.marshalGroup(want[0])
					if qerr != nil {
						t.Fatal(qerr)
					}
					if !bytes.Equal(gb, wb) {
						t.Fatalf("group %q marshals to other bytes than prefix %q", g.label, prefix)
					}
				}
				if !b.HasMoments() {
					return
				}
				// The answers, not just the records: every group's stats and
				// quantiles equal its prefix's, compared as encoded JSON.
				req := &Request{Queries: []Subquery{{Select: Selection{Prefix: strPtr(""), GroupBy: intPtr(0)}, Aggregations: aggs}}}
				for _, g := range groups {
					req.Queries = append(req.Queries, Subquery{Select: Selection{Prefix: strPtr(g.label + ".")}, Aggregations: aggs})
				}
				resp, qerr := e.Execute(ctx, req)
				if qerr != nil {
					t.Fatal(qerr)
				}
				for i, g := range resp.Results[0].Groups {
					got, _ := json.Marshal(g.Aggregations)
					want, _ := json.Marshal(resp.Results[i+1].Groups[0].Aggregations)
					if !bytes.Equal(got, want) {
						t.Fatalf("group %q answers %s, its prefix %s", g.Group, got, want)
					}
				}
			})
		}
	}
}

// TestGroupByAllocsScaleWithGroups pins the grouped fold's cost: resolving
// a group_by over n keys in g groups allocates O(g) — one accumulator and
// one group per label — whatever n is, because no key's summary is cloned.
func TestGroupByAllocsScaleWithGroups(t *testing.T) {
	const g = 8
	allocs := func(n int) float64 {
		store := shard.New(shard.WithShards(4))
		batch := store.NewBatch()
		for i := 0; i < n; i++ {
			batch.Add(fmt.Sprintf("svc%d.key%05d", i%g, i), float64(i))
		}
		batch.Flush()
		e := NewEngine(store, Config{})
		sel := &Selection{Prefix: strPtr(""), GroupBy: intPtr(0)}
		return testing.AllocsPerRun(10, func() {
			if groups, qerr := e.resolveSelection(context.Background(), sel); qerr != nil || len(groups) != g {
				t.Fatalf("resolve: %d groups, err %v", len(groups), qerr)
			}
		})
	}
	small, large := allocs(64), allocs(4096)
	if large > small {
		t.Fatalf("group_by over 4096 keys allocates %v, over 64 keys %v: the fold allocates per key", large, small)
	}
	if large > 16*g {
		t.Fatalf("group_by over %d groups allocates %v, want at most %d", g, large, 16*g)
	}
}

// TestSegmentMatchesSplit holds the label extraction to strings.Split's
// segments, including empty segments and keys shorter than the level.
func TestSegmentMatchesSplit(t *testing.T) {
	for _, sep := range []string{".", "::"} {
		for _, key := range []string{"a", "a.b", "a..b", ".a", "a.", "us.web.h1", "x::y::z", "::", "x::"} {
			split := strings.Split(key, sep)
			for level := 0; level < 5; level++ {
				seg, ok := segment(key, sep, level)
				if wantOK := level < len(split); ok != wantOK || (ok && seg != split[level]) {
					t.Errorf("segment(%q, %q, %d) = %q, %v; Split gives %q", key, sep, level, seg, ok, split)
				}
			}
		}
	}
}

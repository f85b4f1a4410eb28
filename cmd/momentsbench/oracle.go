package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"repro/internal/query"
	"repro/internal/shard"
)

// The cluster gate: scatter-gather answers must equal what one store holding
// the same observations answers. Queried keys are owned whole by one node
// and fed in body order, so a key selection's sketch is the same bits on
// node and oracle and its answer must match exactly. A prefix rollup merges
// per-node partials in a different order than one store merges its keys;
// floating-point sums then differ in their last bits, so those answers are
// compared within oracleTolerance.

const (
	oracleTolerance = 1e-6
	// oracleSample bounds how many cluster answers are re-executed.
	oracleSample = 200
)

type oracleCheck struct {
	checked, mismatches int
	first               string
}

// loadStore applies bodies to a store in order, one batch per body.
func loadStore(store *shard.Store, ks *keyspace, bodies []ingestBody) {
	b := store.NewBatch()
	for _, body := range bodies {
		for _, o := range body.obs {
			b.Add(ks.keys[o.key], o.val)
		}
		b.Flush()
	}
}

func checkAgainstOracle(in *inputs, answers []result) oracleCheck {
	store := shard.New()
	// The queried dash.* keys only ever receive the preload.
	loadStore(store, in.ks, in.preload)
	engine := query.NewEngine(store, query.Config{})
	var oc oracleCheck
	step := max(1, len(answers)/oracleSample)
	for i := 0; i < len(answers); i += step {
		res := answers[i]
		q := in.queries[res.idx%len(in.queries)]
		if res.err != nil || res.status != http.StatusOK {
			continue // already counted as failed subqueries
		}
		want, qerr := engine.Execute(context.Background(), q.req)
		var got query.Response
		oc.checked++
		var diff string
		if qerr != nil {
			diff = qerr.Error()
		} else if err := json.Unmarshal(res.body, &got); err != nil {
			diff = err.Error()
		} else {
			diff = diffResponses(q, want, &got)
		}
		if diff != "" {
			oc.mismatches++
			if oc.first == "" {
				oc.first = diff
			}
		}
	}
	return oc
}

// diffResponses describes the first difference between two answers to q,
// or returns "" when they agree: exactly on key selections, within
// oracleTolerance on rollups.
func diffResponses(q queryRequest, want, got *query.Response) string {
	if len(want.Results) != len(got.Results) {
		return fmt.Sprintf("%d results, want %d", len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		tol := oracleTolerance
		if q.subs[i].kind == selKey {
			tol = 0
		}
		w, g := &want.Results[i], &got.Results[i]
		if (w.Error == nil) != (g.Error == nil) || len(w.Groups) != len(g.Groups) {
			return fmt.Sprintf("subquery %v: error/groups differ: %+v vs %+v", q.subs[i], g, w)
		}
		for j := range w.Groups {
			wg, gg := &w.Groups[j], &g.Groups[j]
			if wg.Group != gg.Group || wg.Keys != gg.Keys || wg.Count != gg.Count || len(wg.Aggregations) != len(gg.Aggregations) {
				return fmt.Sprintf("subquery %v group %q: keys/count differ", q.subs[i], wg.Group)
			}
			for a := range wg.Aggregations {
				wa, ga := &wg.Aggregations[a], &gg.Aggregations[a]
				if len(wa.Quantiles) != len(ga.Quantiles) || (wa.Threshold == nil) != (ga.Threshold == nil) {
					return fmt.Sprintf("subquery %v group %q: aggregation %s shape differs", q.subs[i], wg.Group, wa.Op)
				}
				for k := range wa.Quantiles {
					if !near(wa.Quantiles[k].Value, ga.Quantiles[k].Value, tol) {
						return fmt.Sprintf("subquery %v group %q: q%g = %v, single store %v",
							q.subs[i], wg.Group, wa.Quantiles[k].Q, ga.Quantiles[k].Value, wa.Quantiles[k].Value)
					}
				}
				if wa.Threshold != nil && wa.Threshold.Above != ga.Threshold.Above {
					return fmt.Sprintf("subquery %v group %q: threshold above=%v, single store %v",
						q.subs[i], wg.Group, ga.Threshold.Above, wa.Threshold.Above)
				}
			}
		}
	}
	return ""
}

func near(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

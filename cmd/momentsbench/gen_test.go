package main

import (
	"testing"
	"time"
)

// allInputsDigest hashes every workload's inputs for a seed: bodies,
// queries, probes and send schedules, timestamps taken from the epoch.
func allInputsDigest(seed uint64) string {
	var bodies []ingestBody
	var queries []queryRequest
	var schedules [][]time.Duration
	for _, w := range workloads {
		in := w.inputs(seed, 2, 1)
		if in.stamped {
			stamp(in.ks, in.bodies, time.Unix(0, 0), in.bodyDue)
		}
		bodies = append(append(bodies, in.preload...), in.bodies...)
		queries = append(append(queries, in.queries...), in.probes...)
		schedules = append(schedules, in.bodyDue, in.queryDue)
	}
	return digestInputs(bodies, queries, schedules...)
}

// seed17 pins the inputs: a change here means every number recorded with
// the old generator describes different traffic.
const seed17 = "ff48275e902e2e5a285ba2a36c19ea154ce2232bb2bf7b4f9e194afa84e975be"

func TestSeed17InputsArePinned(t *testing.T) {
	if got := allInputsDigest(17); got != seed17 {
		t.Errorf("seed 17 inputs hash to %s, pinned %s", got, seed17)
	}
}

func TestSeedIsTheOnlyRandomness(t *testing.T) {
	w := workloadByName("cluster_scatter")
	a, b, c := w.inputs(5, 1, 4), w.inputs(5, 1, 4), w.inputs(6, 1, 4)
	if digestInputs(a.bodies, a.queries) != digestInputs(b.bodies, b.queries) {
		t.Error("the same seed built different inputs")
	}
	if digestInputs(a.bodies, a.queries) == digestInputs(c.bodies, c.queries) {
		t.Error("different seeds built the same inputs")
	}
}

func TestKeyspacePrefixRanges(t *testing.T) {
	ks := liveKeyspace(1)
	if lo, hi := ks.prefixRange("dash."); hi-lo != 640 {
		t.Errorf("dash.* has %d keys, want 640", hi-lo)
	}
	if lo, hi := ks.prefixRange("live."); hi-lo != 2000 {
		t.Errorf("live.* has %d keys, want 2000", hi-lo)
	}
	if lo, hi := ks.prefixRange("dash.svc01.r2.az1."); hi-lo != 10 {
		t.Errorf("a three-segment dash prefix has %d keys, want 10", hi-lo)
	}
	if n := len(storeKeyspace(1).keys); n != 20480 {
		t.Errorf("store keyspace has %d keys, want 20480", n)
	}
	if d := ks.dataset("dash.svc01."); datasetNames[d] != "hepmass" {
		t.Errorf("dash.svc01 is %s, want hepmass", datasetNames[d])
	}
	if d := ks.dataset("dash."); d != mixedDataset {
		t.Errorf("dash.* is %s, want mixed", datasetNames[d])
	}
}

// Cyclic selections over a working set several times the solve cache are
// what keeps query_cold cold: no selection may come back before at least
// four cache capacities of rollups have passed.
func TestColdQueriesNeverRepeatWithinCacheReach(t *testing.T) {
	const cache = 1024 // query.DefaultSolveCacheSize rollups
	in := workloadByName("query_cold").inputs(17, 15, 1)
	weight := func(s subquerySpec) int {
		if s.kind != selGroupBy {
			return 1
		}
		if s.groupBy == 1 {
			return 8 // regions
		}
		return 4 // azs
	}
	lastSeen := map[string]int{}
	passed := 0
	for _, q := range in.queries {
		for _, s := range q.subs {
			id := selectionID(s)
			if at, ok := lastSeen[id]; ok && passed-at < 2*cache {
				t.Fatalf("selection %v comes back after %d rollups, within reach of the %d-rollup cache", s, passed-at, cache)
			}
			lastSeen[id] = passed
			passed += weight(s)
		}
	}
	if passed < 4*cache {
		t.Errorf("the run touches %d rollups, under 4× the cache", passed)
	}
}

func selectionID(s subquerySpec) string {
	return string(rune('a'+s.kind)) + string(rune('0'+s.groupBy)) + s.sel
}

package main

import (
	"sort"
	"time"
)

// metricDef names one metric, as BENCHMARK.json lists it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// value is one measured metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd are the metrics a user of momentsd would see, measured on every
// workload; see README.md for where each comes from on each workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "ingest_obs_per_s", Unit: "obs/s", Better: "higher"},
	{Name: "ingest_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "quantile_rank_err", Unit: "rank", Better: "lower"},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower"},
}

// A phase is cut into windows equal slices and the quiet of them are kept.
const (
	windows = 30
	quiet   = windows / 3
)

// Interference on a shared two-core box comes in bursts of seconds, during
// which the cores run at about half speed, and it only ever slows things
// down. So every latency and throughput metric is taken over the quiet
// third of the phase: the windows whose own median latency is lowest (whose
// throughput is highest). A change in the program moves every window; a
// burst moves the ones it covers, and those are not the quiet ones unless
// it covers two thirds of the run. What this cannot see — a stall that
// recurs but spares a third of the windows — shows in the whole-phase p99s
// (momentsd.ingest_p99_ms, momentsd.query_p99_ms).

// byWindow splits results into the windows of [0, span) by due time.
func byWindow(rs []result, span time.Duration) [windows][]result {
	var out [windows][]result
	for _, r := range rs {
		w := min(max(int(int64(r.due)*windows/int64(span)), 0), windows-1)
		out[w] = append(out[w], r)
	}
	return out
}

// quietLatencies pools, sorted and in ms, the latencies of the quiet third
// of the windows.
func quietLatencies(rs []result, ok func(result) bool, span time.Duration) []float64 {
	var per [][]float64
	for _, w := range byWindow(rs, span) {
		if ms := latenciesMS(w, ok); len(ms) > 0 {
			per = append(per, ms)
		}
	}
	sort.Slice(per, func(i, j int) bool { return percentile(per[i], 50) < percentile(per[j], 50) })
	var pool []float64
	for _, ms := range per[:min(quiet, len(per))] {
		pool = append(pool, ms...)
	}
	sort.Float64s(pool)
	return pool
}

// quietThroughput is the mean acknowledged observations per second over the
// third of the windows with the most.
func quietThroughput(rs []result, span time.Duration) float64 {
	var per []float64
	for _, w := range byWindow(rs, span) {
		acked := 0
		for _, r := range w {
			if ingestOK(r) {
				acked += obsPerBody
			}
		}
		per = append(per, float64(acked))
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(per)))
	sum := 0.0
	for _, n := range per[:quiet] {
		sum += n
	}
	return sum / (span.Seconds() * quiet / windows)
}

// ingestLoops and queryLoop pick, per workload, the requests the ingest and
// query metrics describe: the timed phase where it has that class of
// traffic; otherwise the preload of every set-up repetition (ingest) or the
// probes after the phase (query).
func (r *liveRun) ingestLoops() []timedResults {
	if len(r.ph.ingest) > 0 {
		return []timedResults{{r.ph.ingest, r.ph.wall}}
	}
	return r.preloads
}

func (r *liveRun) queryLoop() timedResults {
	if len(r.ph.query) > 0 {
		return timedResults{r.ph.query, r.ph.wall}
	}
	return timedResults{r.probe, r.probeWall}
}

// overLoops is the median over loops of a per-loop statistic.
func overLoops(loops []timedResults, stat func(timedResults) float64) float64 {
	var xs []float64
	for _, l := range loops {
		xs = append(xs, stat(l))
	}
	return median(xs)
}

// endToEndValues assembles the end-to-end metrics of a live run.
func (r *liveRun) endToEndValues() map[string]value {
	ing, qry := r.ingestLoops(), r.queryLoop()
	return map[string]value{
		"setup_s":          {median(r.setupS), "s"},
		"ingest_obs_per_s": {overLoops(ing, func(l timedResults) float64 { return quietThroughput(l.rs, l.wall) }), "obs/s"},
		"ingest_p50_ms": {overLoops(ing, func(l timedResults) float64 {
			return percentile(quietLatencies(l.rs, ingestOK, l.wall), 50)
		}), "ms"},
		"query_p50_ms":      {percentile(quietLatencies(qry.rs, queryOK, qry.wall), 50), "ms"},
		"quantile_rank_err": {r.acc.rankErr(), "rank"},
		"rss_peak_mb":       {r.rssPeakMB, "MB"},
	}
}

// ingestResults is every ingest request the ingest metrics describe.
func (r *liveRun) ingestResults() []result {
	var all []result
	for _, l := range r.ingestLoops() {
		all = append(all, l.rs...)
	}
	return all
}

// attempts counts the run's units of work — ingest requests, subqueries and
// scans — and how many failed: not acknowledged in full, answered with an
// error or partial_result, or answered more than lateLimit after due.
func (r *liveRun) attempts() (attempted, failed int) {
	ing := r.ingestResults()
	attempted = len(ing) + r.acc.subqueries
	failed = r.acc.failed
	for _, res := range ing {
		if !ingestOK(res) || res.latency() > lateLimit {
			failed++
		}
	}
	for _, res := range r.queryLoop().rs {
		if queryOK(res) && res.latency() > lateLimit {
			failed++
		}
	}
	return attempted, failed
}

// perLayer are the metrics of single layers (layer = module name). T marks
// those timed in the in-process replay, S those read as deltas of
// /v1/stats or /proc around the live timed phase, L those computed from the
// live run's own records. A metric the workload does not exercise reads 0.
var perLayer = []metricDef{
	{Name: "server.ingest_us_per_req", Unit: "us", Better: "lower"},              // T
	{Name: "server.ingest_self_us_per_req", Unit: "us", Better: "lower"},         // T
	{Name: "server.ingest_alloc_b_per_obs", Unit: "B", Better: "lower"},          // T
	{Name: "server.query_self_us_per_req", Unit: "us", Better: "lower"},          // T
	{Name: "server.resp_b_per_subquery", Unit: "B", Better: "lower"},             // L
	{Name: "server.socket_us_per_req", Unit: "us", Better: "lower"},              // L − T
	{Name: "shard.batch_add_ns_per_obs", Unit: "ns", Better: "lower"},            // T
	{Name: "shard.commit_ns_per_obs", Unit: "ns", Better: "lower"},               // T
	{Name: "shard.buffered_ns_per_obs", Unit: "ns", Better: "lower"},             // T
	{Name: "shard.publishes_per_kobs", Unit: "count", Better: "lower"},           // S
	{Name: "shard.index_rebuilds", Unit: "count", Better: "lower"},               // T, exact
	{Name: "shard.merge_prefix_ns_per_key", Unit: "ns", Better: "lower"},         // T
	{Name: "shard.keys_merged_per_subquery", Unit: "count", Better: "lower"},     // T, exact
	{Name: "shard.point_read_ns", Unit: "ns", Better: "lower"},                   // T
	{Name: "shard.panes_range_us", Unit: "us", Better: "lower"},                  // T
	{Name: "shard.retained_prefix_us", Unit: "us", Better: "lower"},              // T
	{Name: "shard.locked_read_share", Unit: "share", Better: "lower"},            // S
	{Name: "shard.snapshot_ms", Unit: "ms", Better: "lower"},                     // T
	{Name: "shard.restore_ms", Unit: "ms", Better: "lower"},                      // T
	{Name: "shard.snapshot_b_per_key", Unit: "B", Better: "lower"},               // T, exact
	{Name: "shard.heap_b_per_key", Unit: "B", Better: "lower"},                   // T
	{Name: "wal.append_us_per_batch", Unit: "us", Better: "lower"},               // T
	{Name: "wal.bytes_per_obs", Unit: "B", Better: "lower"},                      // T
	{Name: "wal.syncs_per_append", Unit: "count", Better: "lower"},               // S
	{Name: "wal.replay_obs_per_s", Unit: "obs/s", Better: "higher"},              // T
	{Name: "wal.failed_obs", Unit: "count", Better: "lower"},                     // S, must be 0
	{Name: "query.execute_us_per_subquery", Unit: "us", Better: "lower"},         // T
	{Name: "query.self_us_per_subquery", Unit: "us", Better: "lower"},            // T
	{Name: "query.cache_hit_share_key", Unit: "share", Better: "higher"},         // T
	{Name: "query.cache_hit_share_prefix", Unit: "share", Better: "higher"},      // T
	{Name: "query.cache_hit_share", Unit: "share", Better: "higher"},             // S
	{Name: "query.cache_evictions", Unit: "count", Better: "lower"},              // S
	{Name: "query.degraded_share", Unit: "share", Better: "lower"},               // L
	{Name: "core.add_ns", Unit: "ns", Better: "lower"},                           // T
	{Name: "core.merge_ns", Unit: "ns", Better: "lower"},                         // T
	{Name: "core.sub_ns", Unit: "ns", Better: "lower"},                           // T
	{Name: "maxent.solve_us", Unit: "us", Better: "lower"},                       // T, median
	{Name: "maxent.solve_milan_us", Unit: "us", Better: "lower"},                 // T, median
	{Name: "maxent.solve_milan_p90_us", Unit: "us", Better: "lower"},             // T
	{Name: "maxent.select_basis_us", Unit: "us", Better: "lower"},                // T
	{Name: "maxent.newton_iters_per_solve", Unit: "count", Better: "lower"},      // T, exact
	{Name: "maxent.alloc_b_per_solve", Unit: "B", Better: "lower"},               // T
	{Name: "maxent.solves_per_subquery", Unit: "count", Better: "lower"},         // T, exact
	{Name: "maxent.warm_share", Unit: "share", Better: "higher"},                 // T
	{Name: "maxent.quantile_ns", Unit: "ns", Better: "lower"},                    // T
	{Name: "maxent.not_converged", Unit: "count", Better: "lower"},               // T, exact
	{Name: "cascade.threshold_us", Unit: "us", Better: "lower"},                  // T
	{Name: "cascade.presolve_share", Unit: "share", Better: "higher"},            // T, exact
	{Name: "bounds.markov_ns", Unit: "ns", Better: "lower"},                      // T
	{Name: "bounds.rtt_us", Unit: "us", Better: "lower"},                         // T
	{Name: "bounds.violations", Unit: "count", Better: "lower"},                  // T, must be 0
	{Name: "window.scan_us_per_position", Unit: "us", Better: "lower"},           // T
	{Name: "window.solves_per_scan", Unit: "count", Better: "lower"},             // T, exact
	{Name: "window.newton_iters_per_scan", Unit: "count", Better: "lower"},       // T, exact
	{Name: "encoding.marshal_ns", Unit: "ns", Better: "lower"},                   // T
	{Name: "encoding.unmarshal_ns", Unit: "ns", Better: "lower"},                 // T
	{Name: "encoding.partials_encode_ns_per_group", Unit: "ns", Better: "lower"}, // T
	{Name: "encoding.partials_decode_ns_per_group", Unit: "ns", Better: "lower"}, // T
	{Name: "encoding.partials_b_per_group", Unit: "B", Better: "lower"},          // T, exact
	{Name: "cluster.execute_us_per_subquery", Unit: "us", Better: "lower"},       // T
	{Name: "cluster.fanout_overhead_us", Unit: "us", Better: "lower"},            // T
	{Name: "cluster.ingest_us_per_req", Unit: "us", Better: "lower"},             // T
	{Name: "cluster.fanouts_per_query", Unit: "count", Better: "lower"},          // S
	{Name: "cluster.hedge_share", Unit: "share", Better: "lower"},                // S
	{Name: "cluster.partial_results", Unit: "count", Better: "lower"},            // S, must be 0
	{Name: "cluster.ingest_retries", Unit: "count", Better: "lower"},             // S
	{Name: "momentsd.cpu_ms_per_kobs", Unit: "ms", Better: "lower"},              // S
	{Name: "momentsd.cpu_ms_per_subquery", Unit: "ms", Better: "lower"},          // S
	{Name: "momentsd.cpu_util", Unit: "cores", Better: "lower"},                  // S
	{Name: "momentsd.boot_ms", Unit: "ms", Better: "lower"},                      // L
	{Name: "momentsd.recovery_ms", Unit: "ms", Better: "lower"},                  // L
	{Name: "momentsd.ingest_p99_ms", Unit: "ms", Better: "lower"},                // L
	{Name: "momentsd.query_p99_ms", Unit: "ms", Better: "lower"},                 // L
	{Name: "momentsbench.late_p99_ms", Unit: "ms", Better: "lower"},              // L
	{Name: "momentsbench.cpu_share", Unit: "share", Better: "lower"},             // S
	{Name: "momentsbench.trace_overhead_share", Unit: "share", Better: "lower"},  // T
	{Name: "momentsbench.failed_share", Unit: "share", Better: "lower"},          // L
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayerValues assembles every per-layer metric: the replay's, and the
// live run's counter deltas and records.
func perLayerValues(r *liveRun, t *traceRun) map[string]value {
	v := map[string]float64{}
	for name, x := range t.vals {
		v[name] = x
	}
	b, a := r.before, r.after
	wall := a.at.Sub(b.at).Seconds()
	cpu := a.serverCPU - b.serverCPU
	timedObs, timedSubs := 0, 0
	for _, res := range r.ph.ingest {
		if ingestOK(res) {
			timedObs += obsPerBody
		}
	}
	for _, res := range r.ph.query {
		timedSubs += max(len(r.in.queries[res.idx%len(r.in.queries)].subs), 1)
	}
	ing, qry := r.ingestResults(), r.queryLoop().rs
	attempted, failed := r.attempts()

	v["server.resp_b_per_subquery"] = ratio(float64(r.acc.respBytes), float64(r.acc.subqueries-r.acc.scans))
	// What the socket, the kernel and net/http add: the live median minus
	// the in-process time of the same request bodies. The ingest workload
	// saturates both cores, so there its "socket" time includes queueing.
	if us := v["server.ingest_us_per_req"]; us > 0 {
		v["server.socket_us_per_req"] = 1e3*percentile(latenciesMS(ing, ingestOK), 50) - us
	} else if us := v["query.execute_us_per_subquery"]; us > 0 && !r.w.clustered {
		perReq := ratio(float64(timedSubs), float64(len(r.ph.query)))
		v["server.socket_us_per_req"] = 1e3*percentile(latenciesMS(qry, queryOK), 50) - us*perReq - v["server.query_self_us_per_req"]
	}
	v["shard.publishes_per_kobs"] = ratio(float64(a.stores.ReadPath.Publishes-b.stores.ReadPath.Publishes), float64(timedObs)/1e3)
	locked := float64(a.stores.ReadPath.LockedReads - b.stores.ReadPath.LockedReads)
	v["shard.locked_read_share"] = ratio(locked, locked+float64(a.stores.ReadPath.PublishedReads-b.stores.ReadPath.PublishedReads))
	v["wal.syncs_per_append"] = ratio(float64(a.stores.WAL.Syncs-b.stores.WAL.Syncs), float64(a.stores.WAL.Appends-b.stores.WAL.Appends))
	v["wal.failed_obs"] = float64(a.stores.WAL.SyncFailures + a.stores.WAL.DroppedObs)
	hits := float64(a.stores.SolveCache.Hits - b.stores.SolveCache.Hits)
	v["query.cache_hit_share"] = ratio(hits, hits+float64(a.stores.SolveCache.Misses-b.stores.SolveCache.Misses))
	v["query.cache_evictions"] = float64(a.stores.SolveCache.Evictions - b.stores.SolveCache.Evictions)
	v["query.degraded_share"] = ratio(float64(r.acc.degraded), float64(r.acc.aggregations))
	if ca, cb := a.coord.Coordinator, b.coord.Coordinator; ca != nil && cb != nil {
		v["cluster.fanouts_per_query"] = ratio(float64(ca.Fanouts-cb.Fanouts), float64(ca.Queries-cb.Queries))
		v["cluster.hedge_share"] = ratio(float64(ca.Hedges-cb.Hedges), float64(ca.Fanouts-cb.Fanouts))
		v["cluster.partial_results"] = float64(ca.PartialResults)
		v["cluster.ingest_retries"] = float64(ca.IngestRetries)
	}
	// Both divide the same total: /proc cannot split a process's CPU
	// between its ingest and its query work.
	v["momentsd.cpu_ms_per_kobs"] = ratio(1e3*cpu, float64(timedObs)/1e3)
	v["momentsd.cpu_ms_per_subquery"] = ratio(1e3*cpu, float64(timedSubs))
	v["momentsd.cpu_util"] = ratio(cpu, wall)
	v["momentsd.boot_ms"] = r.bootMS
	v["momentsd.recovery_ms"] = 1e3 * r.recoveryS
	v["momentsd.ingest_p90_ms"] = overLoops(r.ingestLoops(), func(l timedResults) float64 {
		return percentile(quietLatencies(l.rs, ingestOK, l.wall), 90)
	})
	ql := r.queryLoop()
	v["momentsd.query_p90_ms"] = percentile(quietLatencies(ql.rs, queryOK, ql.wall), 90)
	v["momentsd.ingest_p99_ms"] = percentile(latenciesMS(ing, ingestOK), 99)
	v["momentsd.query_p99_ms"] = percentile(latenciesMS(qry, queryOK), 99)
	v["momentsbench.late_p99_ms"] = r.lateP99MS()
	v["momentsbench.cpu_share"] = r.cpuShare()
	v["momentsbench.failed_share"] = ratio(float64(failed), float64(attempted))

	out := make(map[string]value, len(perLayer))
	for _, d := range perLayer {
		out[d.Name] = value{v[d.Name], d.Unit}
	}
	return out
}

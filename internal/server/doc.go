// Package server is momentsd's HTTP edge: one Server type that exposes a
// shard.Store of per-key quantile summaries (New) — the serving path that
// turns the paper's merge-cheap summaries into an interactive aggregation
// service — or, with the same /ingest and /v1/query handlers, a
// cluster.Coordinator over a fleet of such nodes (NewCoordinator; see the
// end of this comment). The store's serving backend (moments
// by default; Merge12, t-digest or sampling via shard.WithBackend) is
// echoed on /v1/stats and on every /v1/query result group;
// aggregations a backend cannot answer return the typed
// backend_unsupported error, and /v1/windows — built on the moment-bound
// cascade — requires the moments backend.
//
//	POST /ingest     batch observation ingest (JSON body or NDJSON stream;
//	                 observations may carry a "ts" unix-seconds stamp that
//	                 selects the time pane on windowed stores)
//	POST /v1/query   batched typed queries: any number of subqueries (key,
//	                 prefix rollup, or group-by selection × quantiles, cdf,
//	                 threshold, rank_bounds, histogram, stats aggregations),
//	                 executed by the parallel internal/query engine with
//	                 per-subquery error isolation; selections may carry a
//	                 window spec on windowed stores (§7.2.2)
//	POST /v1/windows sliding-window alert scan over one key's (or prefix
//	                 rollup's) retained pane ring, slid by turnstile pane
//	                 subtraction via internal/window.ScanMoments
//	GET  /keys       key listing by prefix
//	GET  /snapshot   binary snapshot stream of the whole store
//	POST /restore    replace store contents from a snapshot stream
//	GET  /v1/stats   store totals, cascade stage-resolution counters, solve
//	                 cache, read-path and write-ahead-log sections
//	GET  /healthz    liveness probe
//
// Ingest hot path: request bodies are decoded by the one decodeIngest
// (three framings, fuzzed by FuzzDecodeNDJSON) into pooled shard.Batch
// buffers and committed before the ack, so steady-state ingest takes each
// stripe lock once per request. NDJSON lines of the canonical shape
// {"key":"…","value":N[,"ts":N]} are parsed from the scanner's bytes,
// allocating only the retained key (and a ts the line carries); any other
// line, and the JSON framings, go through encoding/json, whose answer the
// fast path matches bit for bit (FuzzNDJSONLineMatchesJSON). Queries read clones of the fixed-size sketches — published
// snapshots on the moments backend, taken under the stripe lock otherwise —
// and run estimation outside any lock, so slow maximum-entropy solves never
// block writers; see internal/query for the planner/executor (selection
// dedup, bounded worker pool, memoized solves, context deadlines).
//
// Every error response — request-level, subquery-level and
// aggregation-level — carries the structured {code, message} envelope of
// internal/query, mapped onto HTTP statuses (invalid_request 400,
// not_found 404, not_converged 422, too_large 413, deadline_exceeded 504).
// Every POST route that decodes a body goes through decodeRequest: past the
// body cap is 413 too_large, otherwise undecodable is 400 invalid_request.
//
// Coordinator mode. NewCoordinator returns the same Server with a remote
// executor and ingest sink: /v1/query runs cluster.Coordinator.Execute
// (query.Plan, then scatter-gather over the nodes' /v1/partials) where a
// node runs query.Engine.Execute, and /ingest hands the decoded
// observations to their rendezvous owners where a node commits a
// shard.Batch, forwarding each owner's slice as NDJSON in the canonical
// line shape. It registers only /ingest, /v1/query, /v1/stats (fan-out
// counters under "coordinator") and /healthz; answers missing shards carry
// the partial_result envelope (207).
package server

// Package query is the typed query layer between the HTTP surface and the
// sharded sketch store: a batched request model plus a parallel
// planner/executor.
//
// A Request is a batch of independent Subqueries. Each subquery pairs a
// Selection of the key space — an exact key, a prefix rollup, or a prefix
// partitioned by a key segment (group_by) — with a list of typed
// Aggregations: quantiles, cdf, threshold (via the paper's cascade),
// rank_bounds, histogram and stats. This is the paper's headline workload
// (Gan et al., VLDB 2018 §2): an interactive dashboard refreshing dozens to
// thousands of quantile aggregations over high-cardinality subgroups in one
// round trip.
//
// The engine is generic over the store's serving backend (sketch.Backend):
// on the default moments backend every aggregation is available and
// estimates run through the maximum-entropy solver and moment-bound
// cascade; on the baseline backends (Merge12, t-digest, sampling) the
// planner validates capabilities up front — quantiles and thresholds
// evaluate directly on the backend's own estimator (threshold stage
// "Direct"), while the moment-structure operators (cdf, rank_bounds,
// histogram, stats) fail fast with the typed backend_unsupported error.
// Every result group is tagged with the backend name, and solve-cache keys
// carry the backend fingerprint.
//
// On stores with time panes, a Selection may additionally carry a Window
// (§7.2.2): a trailing-pane window, an explicit [start, end) wall-clock
// range, or a set of sliding positions (last + step), each position one
// result group. Sliding positions are evaluated with turnstile Sub/Merge
// slides and each position's maximum-entropy density is memoized like any
// other rollup's, so a threshold scan over W positions costs O(W·step·k)
// vector work plus only the solves the cascade cannot avoid.
//
// The Engine plans before it executes:
//
//   - Every subquery is validated up front, so malformed input fails before
//     any sketch is merged or any density solved.
//   - Selections are deduplicated across the batch: ten subqueries over the
//     same rollup merge its per-key sketches exactly once.
//   - One scheduler per request runs the work in units of one rollup: each
//     unique selection resolves once, then every group it produced is
//     evaluated as its own unit, into preallocated result slots, at most
//     Config.Workers (default GOMAXPROCS) at a time. A windowed
//     selection's positions stay one unit, evaluated oldest first. The
//     coordinator's Evaluator runs its gathers on the same scheduler.
//   - Each rollup's maximum-entropy density is solved lazily and memoized,
//     so the quantiles, cdf and histogram aggregations of one selection and
//     any threshold of it that falls through to the cascade's MaxEnt stage
//     share a single solve, in whichever order they come; a sliding-window
//     position additionally warm-starts its solve from the previous
//     position's θ when that position has been solved.
//   - With Config.SolveCache, resolved selections — merged sketches plus
//     their solved densities — are kept in a sharded bounded LRU across
//     Execute calls, keyed on the store's mutation version so any ingest
//     into covered keys invalidates the entry (see Engine.CacheStats).
//   - The request context is honored: it is checked before every unit, and
//     when the deadline passes, the subqueries of every unit not yet
//     started fail with deadline_exceeded instead of running to completion.
//
// Failures are isolated at two levels. A subquery that cannot be resolved
// (bad selection, no matching keys, deadline) carries its own {code,
// message} Error and leaves the rest of the batch intact; an aggregation
// that cannot be estimated (the solver's documented not_converged failure
// on near-discrete data) carries an aggregation-level Error, or degrades to
// guaranteed moment bounds where the paper defines a sound fallback
// (quantiles, threshold).
package query

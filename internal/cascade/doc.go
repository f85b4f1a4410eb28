// Package cascade implements Algorithm 2 of the paper: threshold queries
// ("is the φ-quantile above t?") answered through a sequence of increasingly
// precise and increasingly expensive estimates — a simple range check, the
// Markov bounds, the RTT bounds, and finally the full maximum-entropy
// quantile. Because every bound provably contains the CDF of any
// distribution matching the sketch's moments — including the maximum-entropy
// one — the cascade is exactly consistent with computing the maximum-entropy
// estimate up front, just cheaper (§5.2, Figs. 12–13).
//
// A caller that memoizes its sketch's solve hands it to the final stage
// through Config.Solve, so reaching MaxEnt costs at most the one solve the
// sketch's other estimates need anyway.
//
// Stats tracks which stage resolved each query, so callers (the experiment
// harness, the /threshold endpoint in internal/server) can report the
// fraction of queries that never had to pay for a solve.
package cascade

// Package shard implements a concurrent, lock-striped store of per-key
// quantile summaries — the serving-side counterpart of the paper's
// data-cube cells. Each distinct string key owns one summary of the
// store's serving backend (sketch.Backend; the moments sketch by default,
// with WithBackend selecting the §6.1 baselines — Merge12, t-digest,
// sampling); observations hash to one of a power-of-two number of shards,
// each guarded by its own mutex, so ingest from many goroutines contends
// only when two writers land on the same stripe.
//
// The hot path is allocation-free: keys are hashed with an inline FNV-1a
// (no interface boxing, no []byte conversion), and the Batch type buckets
// incoming observations per shard in reusable buffers so a flush takes each
// stripe lock exactly once regardless of batch size. Because the moments
// sketch itself is a fixed set of power sums, per-key state never grows —
// a store with a million keys is a million ~200-byte summaries.
//
// The store stores; estimation belongs to internal/query. Reads hand out
// independent clones (Summary, Match) or merged rollups (MergePrefix,
// MergeGroups), so no solve ever runs under a stripe lock. On moments
// stores the timeless reads never take a stripe lock at all: every commit
// publishes an immutable flat copy of each touched entry's moment vector,
// and reads traverse atomic loads (see published.go). Other backends read
// under the lock. The choice follows the backend alone; there is no
// option. Sketch returns
// the raw moments view and reports false on non-moments backends.
//
// There is one write path: Add/AddAt, or a Batch whose observations become
// visible, ordered and versioned at Flush (Commit when a journal is
// attached). There is one key order and one walk: every store keeps a
// sorted key index per stripe, merged with each commit's new keys rather
// than re-sorted, and every multi-key read — rollups, grouped rollups,
// matches, pane series and retained rollups — visits it stripe by stripe
// through one walker, so every read is a pure function of the data and a
// group_by group over exactly a prefix's keys is that prefix's rollup, bit
// for bit.
//
// Every key also carries a mutation version stamped from its stripe's
// monotonic counter (KeyVersion); Version sums the stripe counters into a
// lock-free store-wide fingerprint. Query-layer solve caches stamp entries
// with these versions: a match guarantees the covered data is unchanged,
// and delete/re-create or Restore can never resurrect an old version.
//
// With WithWindow the store gains a time dimension (§7.2.2): each key
// keeps, alongside its all-time sketch, a ring of fixed-width time panes
// plus a rolling "retained" sketch equal to the sum of the live panes.
// Ingest stamps each observation's pane; on moments stores expiry is
// turnstile — the expiring pane's power sums are subtracted from the
// rolling sketch (two O(k) vector operations per pane transition,
// amortized O(1) per observation) — while backends without Sub rebuild the
// rolling summary by an exact re-merge of the surviving panes at each
// expiry. Windowed reads come in two shapes: Panes/PanesPrefix return a
// dense, time-aligned clone series for arbitrary window math, and
// Retained/RetainedPrefix read the rolling summary in O(k) per key.
//
// The full store can be serialized to a length-prefixed snapshot stream
// (see Snapshot/Restore) built on the per-backend codecs in internal/sketch
// and internal/encoding. Every store writes, and Restore reads, only the
// backend-tagged format v3 (with the pane configuration and each key's
// live panes when windowed), records in key-index order. Restore rejects a
// snapshot whose backend fingerprint differs from the store's, and any
// record the backend codec refuses, out-of-domain moment vectors included;
// it re-expires against the wall clock and rebuilds each rolling summary
// by exact re-merge.
package shard

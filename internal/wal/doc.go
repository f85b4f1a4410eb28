// Package wal is momentsd's write-ahead observation log: the durability
// layer between snapshots. Ingest batches are appended as CRC32C-checked,
// length-prefixed records to per-stripe append-only segment files and
// fsynced by one group-commit syncer per stripe before the batch is
// acknowledged, so a crash loses at most the records of fsyncs that had
// not completed — never an acknowledged observation.
//
// # Record and segment format
//
// A segment file starts with a header — the "MWAL" magic, a format
// version, the stripe id, the segment sequence number and the store
// backend's length-prefixed fingerprint, all covered by a CRC32C — and
// then holds records back to back. One record is one committed ingest
// batch, framed as
//
//	u32le payload length | u32le CRC32C(payload) | payload
//
// with a payload of a uvarint observation count, a signed varint base
// timestamp (the first observation's unix nanoseconds), a uniform-time
// flag byte (1 when every observation shares the base instant — the
// normal case, since a committed batch is stamped with one commit time —
// eliding all per-observation deltas), then per observation: a uvarint
// key token (0 introduces a new key as uvarint length + bytes, assigning
// it the next dictionary id; k > 0 references the k-th key introduced in
// this record), a uvarint of the value's byte-reversed float64 bits
// (reversal moves the exponent last, so small-magnitude values shrink to
// two or three bytes), and — only when the flag is 0 — a signed varint
// timestamp delta from the base. Ingest batches repeat few keys many
// times, so the dictionary, the elided deltas and the varint values cut
// record bytes roughly 5× — at full group-commit depth the device is
// near its bandwidth limit, so encoded density buys ingest throughput
// directly. The record is the atomic unit: replay
// applies a record only after it fully decodes and its checksum matches,
// so a torn write can lose a whole batch (which was then never
// acknowledged) but can never half-apply one. The framing is deliberately
// self-contained so the same records can double as a replication or
// rebalance stream (see ARCHITECTURE.md "Durability & crash recovery").
//
// # Group commit
//
// Appenders encode their record into the active stripe's buffered writer
// under the stripe mutex, enqueue a waiter, and block. The appender whose
// record fills the pile to the leader threshold drives the commit itself:
// it queues on the log-wide device token (one fsync in flight at a time —
// journaling filesystems serialize the commits anyway), so the moment the
// in-flight fsync retires the next begins, taking whatever pile
// accumulated meanwhile. The pile therefore self-clocks to the device's
// latency: a slow fsync simply gathers a bigger pile for the next one.
// The commit is pipelined across stripes: beginning a commit advances the
// active cursor, so records arriving while the fsync is in flight pile up
// on the next stripe. Stripes are a commit pipeline, not a key partition
// — any batch may land on any stripe, and under concurrency durability
// costs one fsync per pile of batches, not per request. A per-stripe
// syncer goroutine, kicked by every appender, commits piles that never
// reach the threshold: a lone appender waits one goroutine kick plus one
// fsync. A new segment's header is written through to the file when the
// segment is created, so no buffered byte is ever left without a waiter
// to commit it.
//
// # Checkpoints, truncation and replay
//
// Checkpoint blocks appends, seals every stripe's active segment, runs
// the caller's snapshot save with the per-stripe cut sequence numbers,
// then unblocks and deletes the sealed segments the snapshot covers.
// Callers persist the cuts atomically with the snapshot (momentsd writes
// them as a watermark footer on the snapshot file), so replay after a
// crash — whenever it happened — applies exactly the records the loaded
// snapshot does not already contain. Replay tolerates a torn tail: it
// stops a segment at the first short, checksum-failing or undecodable
// record (a NaN or infinite value, which ingest never admits, counts as
// undecodable), logs the offset, and keeps serving; only a backend
// fingerprint mismatch is a hard error. Headers, records and watermark
// footers all decode through internal/encoding's Reader.
//
// # Failure policy
//
// A write or fsync failure (disk full, I/O error) wedges the log: every
// subsequent append returns ErrWedged and the server answers ingest with
// 503s, so an acknowledged batch is always an fsynced one. The wedge stays
// latched until the process restarts; checkpoints still snapshot the
// store but do not clear it.
package wal

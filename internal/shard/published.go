package shard

import (
	"context"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/sketch"
)

// Wait-free snapshot reads (the Quancurrent idea, arXiv 2208.09265): on
// backends whose Clone is a cheap flat copy (sketch.Caps.FastClone — the
// moments vector), every write commit publishes an immutable, version-
// stamped copy of the touched entry's moment vector through an atomic
// pointer: one flat record (published) holding min, max, count, log-count
// and the 2k power sums, in two allocations. Every store, whatever its
// backend, also republishes a sorted per-stripe key index the same way
// whenever its key set changes. Timeless read paths (Summary, Count,
// KeyVersion, MatchContext, MergePrefixContext and everything layered on
// them) then traverse only atomic loads: they never take a stripe lock, so
// a rollup scan cannot stall ingest and a flush cannot stall queries. Keys
// reads only the index, so it is lock-free on every store.
//
// The protocol, and why it is correct:
//
//   - Publication happens inside the writer's critical section, after the
//     entry's version is stamped and before the stripe lock is released —
//     entry snapshot first, then (if the key set changed) the index. A
//     reader that observes the new index therefore observes published
//     entries, and a reader holding the old index observes the pre-commit
//     store: every read maps to a state the locked store actually passed
//     through. A write is committed when its Add or Flush returns, so a
//     read that follows it observes it.
//   - Published values are immutable: neither a record nor an index is
//     mutated after its atomic Store, and atomic.Pointer's release/acquire
//     ordering makes the fully built value visible to any reader that
//     loads the pointer.
//   - The index is maintained, not rebuilt: a critical section records the
//     keys it creates and deletes on the stripe, and the republished index
//     is the old one merged with the sorted additions, minus the removals —
//     O(n + a log a) for n indexed keys and a additions, not a map walk and
//     a full sort. Reset and Restore merge into an empty index with every
//     key added, so there is one build path.
//   - One key order: the index holds each stripe's keys sorted, and every
//     prefix or key walk — wait-free or under the stripe lock, where the
//     index is the live key set — goes through keyRange, stripes in order.
//     Each published record is bit-identical to the entry it was copied
//     from, and a wait-free rollup folds the records with the same
//     core.(*Sketch).Merge, from the same backend.New() start, as the
//     locked rollup, so every rollup, pane series and snapshot is a pure
//     function of the data, and a wait-free rollup reproduces the locked
//     rollup's floating-point rounding exactly (pinned by the equivalence
//     suites).
//
// Backends without FastClone publish no entry snapshots and keep the locked
// read bodies, which clone the live summary; the same bodies serve windowed
// pane reads on every store.

// published is one entry's immutable read snapshot: the all-time moment
// vector as of mutation version, copied at commit. Readers may copy it,
// merge FROM it and read its count; nothing ever mutates it after
// publication.
type published struct {
	version uint64
	sk      core.Sketch
}

// stripeIndex is a stripe's atomically published key index: keys sorted
// ascending, entries parallel. A new index is built copy-on-write whenever
// the stripe's key set changes; the slices are never mutated after
// publication.
type stripeIndex struct {
	keys    []string
	entries []*entry
}

// prefixRange returns the half-open [lo, hi) index range of keys carrying
// prefix. An empty prefix spans the whole index. Keys carrying prefix are
// contiguous from lo, so both bounds are binary searches.
func (ix *stripeIndex) prefixRange(prefix string) (int, int) {
	lo := sort.SearchStrings(ix.keys, prefix)
	hi := lo + sort.Search(len(ix.keys)-lo, func(i int) bool {
		return !strings.HasPrefix(ix.keys[lo+i], prefix)
	})
	return lo, hi
}

// indexAdd is a key created in the current critical section, with its
// entry, pending merge into the stripe's index.
type indexAdd struct {
	key string
	e   *entry
}

// keyRange returns the stripe's keys carrying prefix, ascending, and their
// entries — the one key order every walk uses. Under st.mu the index is the
// live key set (it is republished before every unlock), and the caller may
// use the entries' locked state; without the lock it is the last published
// key set, and the caller may read only the entries' published snapshots.
func (st *stripe) keyRange(prefix string) ([]string, []*entry) {
	ix := st.index.Load()
	if ix == nil {
		return nil, nil
	}
	lo, hi := ix.prefixRange(prefix)
	return ix.keys[lo:hi], ix.entries[lo:hi]
}

// lookupPublished resolves key to its published snapshot. found reports
// whether the key is in the published index at all; a found key's snapshot
// is non-nil for every store that publishes (entries are published before
// the index that names them), so callers treat (nil, true) — impossible by
// construction on wait-free stores, checked by the invariant tests — as a
// locked-read fallback rather than data.
func (s *Store) lookupPublished(key string) (p *published, found bool) {
	ix := s.stripeFor(key).index.Load()
	if ix == nil {
		return nil, false
	}
	i := sort.SearchStrings(ix.keys, key)
	if i >= len(ix.keys) || ix.keys[i] != key {
		return nil, false
	}
	return ix.entries[i].pub.Load(), true
}

// publishEntryLocked publishes e's current moment vector as an immutable
// snapshot. It is idempotent per version — commit paths that touch the same
// entry several times in one critical section (a Batch bucket with repeated
// keys) call it once per observation and pay one copy per entry. The stripe
// lock must be held.
func (s *Store) publishEntryLocked(e *entry) {
	if !s.waitFree() {
		return
	}
	if p := e.pub.Load(); p != nil && p.version == e.version {
		return
	}
	p := &published{version: e.version}
	p.sk.CopyFrom(sketch.RawMoments(e.all))
	e.pub.Store(p)
	s.pubCount.Add(1)
}

// publishIndexLocked republishes the stripe's sorted key index when the key
// set changed in the current critical section: entryLocked and Delete
// record the keys they add and remove, and Reset and Restore rebase, so the
// merge starts from an empty index with every key of the new map added.
// The new index is the old one merged with the sorted additions, minus the
// removals, copied in runs between binary-searched positions. Every
// mutating entry point calls it immediately before releasing the stripe
// lock. The stripe lock must be held.
func (s *Store) publishIndexLocked(st *stripe) {
	if len(st.added) == 0 && len(st.removed) == 0 && !st.rebase {
		return
	}
	var old stripeIndex
	if ix := st.index.Load(); ix != nil && !st.rebase {
		old = *ix
	}
	slices.SortFunc(st.added, func(a, b indexAdd) int { return strings.Compare(a.key, b.key) })
	slices.Sort(st.removed)
	n := len(old.keys) + len(st.added) - len(st.removed)
	ix := &stripeIndex{keys: make([]string, 0, n), entries: make([]*entry, 0, n)}
	// appendOld copies old[lo:hi] into ix, leaving out removed keys. Only
	// indexed keys are removed — Delete publishes before it unlocks — so a
	// removal's search position inside [lo, hi) is the key itself.
	removed := st.removed
	appendOld := func(lo, hi int) {
		for len(removed) > 0 {
			p := lo + sort.SearchStrings(old.keys[lo:hi], removed[0])
			if p == hi {
				break
			}
			ix.keys = append(ix.keys, old.keys[lo:p]...)
			ix.entries = append(ix.entries, old.entries[lo:p]...)
			lo, removed = p+1, removed[1:]
		}
		ix.keys = append(ix.keys, old.keys[lo:hi]...)
		ix.entries = append(ix.entries, old.entries[lo:hi]...)
	}
	lo := 0
	for _, a := range st.added {
		p := lo + sort.SearchStrings(old.keys[lo:], a.key)
		appendOld(lo, p)
		ix.keys = append(ix.keys, a.key)
		ix.entries = append(ix.entries, a.e)
		lo = p
	}
	appendOld(lo, len(old.keys))
	st.index.Store(ix)
	s.rebuilds.Add(1)
	if st.rebase {
		// A rebase adds the whole stripe; keep no scratch that large.
		st.added, st.removed, st.rebase = nil, nil, false
		return
	}
	clear(st.added) // release the keys and entries
	st.added, st.removed = st.added[:0], st.removed[:0]
}

// mergePrefixPublished is MergePrefixContext's wait-free body: it walks the
// published per-stripe indexes and folds the immutable published moment
// vectors straight into the raw sketch behind backend.New(), in the locked
// body's order and with the same core merge the locked body reaches
// through the Serving interface, so the result is byte-identical for any
// state the locked store passes through.
func (s *Store) mergePrefixPublished(ctx context.Context, prefix string) (sketch.Serving, int, error) {
	s.pubReads.Add(1)
	out := s.backend.New()
	raw := sketch.RawMoments(out)
	merges := 0
	for i := range s.stripes {
		if err := ctx.Err(); err != nil {
			return nil, merges, err
		}
		_, entries := s.stripes[i].keyRange(prefix)
		for _, e := range entries {
			p := e.pub.Load()
			if p == nil {
				continue // unpublished indexed entry: impossible by construction
			}
			if err := raw.Merge(&p.sk); err != nil {
				return nil, merges, err
			}
			merges++
		}
	}
	return out, merges, nil
}

// matchPublished is MatchContext's wait-free body: clones of every published
// (key, summary) under prefix, assembled from the per-stripe indexes.
func (s *Store) matchPublished(ctx context.Context, prefix string) ([]Keyed, error) {
	s.pubReads.Add(1)
	var out []Keyed
	for i := range s.stripes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		keys, entries := s.stripes[i].keyRange(prefix)
		for j, e := range entries {
			p := e.pub.Load()
			if p == nil {
				continue // unpublished indexed entry: impossible by construction
			}
			out = append(out, Keyed{Key: keys[j], Summary: s.servingOf(p)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// servingOf returns an independent serving summary holding a copy of p's
// moment vector: backend.New() with its raw sketch overwritten.
func (s *Store) servingOf(p *published) sketch.Serving {
	out := s.backend.New()
	sketch.RawMoments(out).CopyFrom(&p.sk)
	return out
}

// atomicFloat64 is a CAS-maintained float64 gauge. The store's observation
// total is a float64 (backend counts are), but every delta applied here is
// an integral observation count, so concurrent Adds commute exactly and the
// gauge tracks the locked per-stripe sums bit for bit (audited by
// AuditCounts in the test suite).
type atomicFloat64 struct {
	bits atomic.Uint64
}

func (f *atomicFloat64) Add(delta float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (f *atomicFloat64) Load() float64 {
	return math.Float64frombits(f.bits.Load())
}

// ReadStats is a point-in-time view of the store's read-path counters,
// served on /v1/stats as the read_path section.
type ReadStats struct {
	// WaitFree reports whether the store publishes snapshots for wait-free
	// reads (the backend has FastClone).
	WaitFree bool `json:"wait_free"`
	// PublishedReads counts read operations answered entirely from
	// published snapshots or key indexes, without taking any stripe lock
	// (Keys counts here on every store).
	PublishedReads uint64 `json:"published_reads"`
	// LockedReads counts read operations that took stripe locks: every read
	// but Keys on a backend without FastClone, plus the windowed pane reads
	// (Panes, Retained and friends), which advance rings in place and stay
	// locked on every store.
	LockedReads uint64 `json:"locked_reads"`
	// Publishes counts entry snapshot publications (one flat copy of the
	// moment vector each).
	Publishes uint64 `json:"publishes"`
	// IndexRebuilds counts per-stripe key index republications (one per
	// key-set change per stripe per critical section, not per write).
	IndexRebuilds uint64 `json:"index_rebuilds"`
}

// ReadStats returns the store's read-path counters.
func (s *Store) ReadStats() ReadStats {
	return ReadStats{
		WaitFree:       s.waitFree(),
		PublishedReads: s.pubReads.Load(),
		LockedReads:    s.lockReads.Load(),
		Publishes:      s.pubCount.Load(),
		IndexRebuilds:  s.rebuilds.Load(),
	}
}

// AuditCounts sweeps every stripe under its lock and returns the exact key
// and observation totals. It is the audit for the lock-free Len/TotalCount
// gauges — the test suites cross-check the two on quiescent stores — and is
// deliberately not used by any serving path: a /v1/stats scrape must not
// take every stripe lock.
func (s *Store) AuditCounts() (keys int, observations float64) {
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		keys += len(st.entries)
		observations += st.count
		st.mu.Unlock()
	}
	return keys, observations
}

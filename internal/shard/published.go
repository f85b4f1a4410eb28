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
// moments stores, whose summary is a flat O(k) vector, every write commit publishes an immutable, version-
// stamped copy of the touched entry's moment vector through an atomic
// pointer: one flat record (published) holding min, max, count, log-count
// and the 2k power sums, in two allocations. Every store, whatever its
// backend, also republishes a sorted per-stripe key index the same way
// whenever its key set changes. Timeless read paths (Summary, Count,
// KeyVersion, Match, MergePrefixContext, MergeGroups and everything
// layered on them) then traverse only atomic loads: they never take a
// stripe lock, so a rollup scan cannot stall ingest and a flush cannot
// stall queries. Keys reads only the index, so it is lock-free on every
// store.
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
//   - One walk: every multi-key read is a visitor of walk, which follows
//     keyRange, stripes in order — wait-free, or under the stripe lock
//     (where the index is the live key set) on non-moments backends and
//     for pane reads, which advance rings in place. A published record
//     is bit-identical to the entry it was copied from, and mergeInto folds
//     it with the same core.(*Sketch).Merge, from the same backend.New()
//     start, as the locked fold, so every rollup, group, pane series and
//     snapshot is a pure function of the data, and a wait-free fold
//     reproduces the locked fold's rounding exactly (pinned by the
//     equivalence suites).

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

// walk visits every key carrying prefix, with its entry, in the store's
// one key order: stripes in order, keys ascending within each stripe. With
// locked set it holds each stripe's lock across that stripe's visits, so
// visit may use the entries' live state; otherwise visit may read only the
// published records. It checks ctx between stripes, counts one locked or
// published read, and stops at the first error visit returns.
func (s *Store) walk(ctx context.Context, prefix string, locked bool, visit func(key string, e *entry) error) error {
	if locked {
		s.lockReads.Add(1)
	} else {
		s.pubReads.Add(1)
	}
	for i := range s.stripes {
		if err := ctx.Err(); err != nil {
			return err
		}
		st := &s.stripes[i]
		if locked {
			st.mu.Lock()
		}
		keys, entries := st.keyRange(prefix)
		var err error
		for j := 0; j < len(entries) && err == nil; j++ {
			err = visit(keys[j], entries[j])
		}
		if locked {
			st.mu.Unlock()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// mergeInto merges e's all-time summary into acc: the live summary when
// the caller holds the stripe lock (locked), else the published record —
// which every indexed entry of a wait-free store has, entries publishing
// before the index that names them — folded straight into the raw sketch
// behind acc with the same core merge the live summary reaches through the
// Serving interface, so a wait-free fold is byte-identical to the locked
// fold of the same state.
func (e *entry) mergeInto(acc sketch.Serving, locked bool) error {
	if locked {
		return acc.Merge(e.all)
	}
	return sketch.RawMoments(acc).Merge(&e.pub.Load().sk)
}

// clone returns an independent copy of e's all-time summary, read as
// mergeInto reads it.
func (e *entry) clone(backend sketch.Backend, locked bool) sketch.Serving {
	if locked {
		return e.all.Clone()
	}
	return e.pub.Load().serving(backend)
}

// serving returns an independent serving summary holding a copy of p's
// moment vector: backend.New() with its raw sketch overwritten.
func (p *published) serving(backend sketch.Backend) sketch.Serving {
	out := backend.New()
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
	// reads (a moments store).
	WaitFree bool `json:"wait_free"`
	// PublishedReads counts read operations answered entirely from
	// published snapshots or key indexes, without taking any stripe lock
	// (Keys, and the existence probe before a prefix pane read, count
	// here on every store).
	PublishedReads uint64 `json:"published_reads"`
	// LockedReads counts read operations that took stripe locks: every read
	// but Keys on a non-moments backend, plus the windowed pane reads
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

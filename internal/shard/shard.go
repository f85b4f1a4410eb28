package shard

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/sketch"
)

// ErrNoKey is returned when a queried key has no sketch.
var ErrNoKey = errors.New("shard: no such key")

// Observation is one keyed sample. At is the observation's wall-clock
// instant, used to stamp time panes on windowed stores; the zero time means
// "when the batch flushes". Stores without panes ignore it.
type Observation struct {
	Key   string    `json:"key"`
	Value float64   `json:"value"`
	At    time.Time `json:"at,omitzero"`
}

// entry is the per-key state: the all-time summary every timeless query
// reads, plus — on windowed stores — the ring of time panes behind the
// windowed queries. ring is nil when the store has no panes. The summary's
// concrete type is fixed by the store's serving backend (moments by
// default).
//
// version counts the entry's own mutations: every Add into it increments
// it. It exists for the publish protocol alone — the published snapshot
// carries the version it copied, so an entry is unpublished exactly while
// the two differ.
//
// pub is the entry's published read snapshot (see published.go): an
// immutable, version-stamped copy of the all-time moment vector,
// republished on every commit while the stripe lock is still held. It is
// nil on stores that do not publish (see waitFree). The guardedby
// directive covers the mutable fields; pub is its own synchronization and
// is read lock-free.
//
//lint:guardedby stripe.mu
type entry struct {
	all     sketch.Serving
	ring    *paneRing
	version uint64
	pub     atomic.Pointer[published]
}

// stripe is one lock-striped partition of the key space. The padding keeps
// adjacent stripes on separate cache lines so uncontended locks on
// neighbouring shards do not false-share.
//
// index is the stripe's published key index (see published.go): a sorted,
// immutable (keys, entries) snapshot republished copy-on-write, while the
// stripe lock is held, whenever the key set changes, on every store. added,
// removed and rebase record the current critical section's key-set changes
// for that republish to merge in. Every prefix or key walk follows the
// index: lock-free on the wait-free paths, under the lock on the others. It
// is nil only until the stripe's first write.
type stripe struct {
	mu      sync.Mutex
	entries map[string]*entry
	count   float64 // observations ingested into this stripe
	index   atomic.Pointer[stripeIndex]
	added   []indexAdd // keys created since the last index publish
	removed []string   // keys deleted since the last index publish
	rebase  bool       // Reset/Restore: merge into an empty index, not the published one
	_       [47]byte   // mutex(8) + map(8) + count(8) + index(8) + added(24) + removed(24) + bool(1) + 47 = two 64-byte lines
}

// Store is a sharded map from string keys to quantile summaries of one
// serving backend (per-key moments sketches by default). All methods are
// safe for concurrent use.
type Store struct {
	backend   sketch.Backend
	locked    bool // moments without published reads (storeConfig.locked)
	mask      uint64
	stripes   []stripe
	paneWidth int64 // pane width in nanoseconds; 0 = no time panes
	retention int   // live panes per key when paneWidth > 0
	now       func() time.Time

	// journal is the attached write-ahead log, nil when the store has
	// none (see SetJournal). Batch.Commit logs through it before applying;
	// plain Add/AddAt never do.
	journal Journal

	// keyGauge and obsGauge mirror the per-stripe key and observation
	// totals, maintained under the stripe locks but read lock-free, so
	// Len/TotalCount (a /v1/stats scrape) never sweep the stripes. The
	// locked sweep survives as AuditCounts, the test-only cross-check.
	keyGauge atomic.Int64
	obsGauge atomicFloat64

	// Read-path counters (see ReadStats).
	pubReads  atomic.Uint64
	lockReads atomic.Uint64
	pubCount  atomic.Uint64
	rebuilds  atomic.Uint64
}

// Journal is the durability seam between ingest and a write-ahead log
// (internal/wal implements it). Append logs one batch and blocks until it
// is durable, returning a release func the caller MUST invoke — typically
// deferred — after applying the batch to the store. The journal may hold
// a checkpoint guard from Append to release, so a snapshot can never fall
// between a logged record and its application and the snapshot ∪
// retained-log always covers exactly the acknowledged observations.
type Journal interface {
	Append(obs []Observation) (release func(), err error)
}

// Option configures a Store at construction.
type Option func(*storeConfig)

type storeConfig struct {
	backend   sketch.Backend
	shards    int
	paneWidth time.Duration
	retention int
	now       func() time.Time
	// locked serves a moments store from the stripe locks, the path every
	// other backend reads through. No Option sets it: it exists for the
	// wait-free suites' locked twin, which the published reads must match
	// byte for byte.
	locked bool
}

// WithShards sets the number of lock stripes (rounded up to a power of two,
// minimum 1). The default is 8× GOMAXPROCS, enough that random keys rarely
// contend.
func WithShards(n int) Option { return func(c *storeConfig) { c.shards = n } }

// WithBackend selects the serving summary backend for every key of the
// store (default: the moments backend at core.DefaultK; a moments backend
// carries its own order k). Non-moments backends trade the moments
// sketch's moment structure — turnstile pane expiry, threshold cascades,
// warm-started solves, wait-free reads — for their own accuracy profiles;
// the store serves them by exact pane re-merges and locked reads.
func WithBackend(b sketch.Backend) Option { return func(c *storeConfig) { c.backend = b } }

// WithWindow adds a time dimension to the store: alongside its all-time
// sketch, every key keeps a ring of `retention` fixed-width time panes of
// `paneWidth` each, enabling the windowed queries of §7.2.2. Pane expiry is
// turnstile — the expiring pane's power sums are subtracted from a rolling
// retained sketch — so sliding a window costs two O(k) vector operations,
// not a re-merge. retention must be in [2, MaxRetention].
func WithWindow(paneWidth time.Duration, retention int) Option {
	return func(c *storeConfig) {
		c.paneWidth = paneWidth
		c.retention = retention
	}
}

// WithClock overrides the wall clock used to stamp unstamped observations
// and expire panes (default time.Now) — for tests and simulations.
func WithClock(now func() time.Time) Option {
	return func(c *storeConfig) { c.now = now }
}

// New returns an empty store. It panics on a window retention outside
// [2, MaxRetention].
func New(opts ...Option) *Store {
	var cfg storeConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.backend.IsZero() {
		cfg.backend = sketch.MomentsBackend(core.DefaultK)
	}
	if cfg.paneWidth < 0 || (cfg.paneWidth > 0 && (cfg.retention < 2 || cfg.retention > MaxRetention)) {
		panic(fmt.Sprintf("shard: window retention %d outside [2,%d]", cfg.retention, MaxRetention))
	}
	if cfg.shards <= 0 {
		cfg.shards = 8 * runtime.GOMAXPROCS(0)
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	n := 1
	for n < cfg.shards {
		n <<= 1
	}
	s := &Store{
		backend: cfg.backend,
		locked:  cfg.locked,
		mask:    uint64(n - 1),
		stripes: make([]stripe, n),
		now:     cfg.now,
	}
	if cfg.paneWidth > 0 {
		s.paneWidth = int64(cfg.paneWidth)
		s.retention = cfg.retention
	}
	for i := range s.stripes {
		s.stripes[i].entries = make(map[string]*entry)
	}
	return s
}

// waitFree reports whether commits publish immutable entry snapshots for
// wait-free reads (see published.go; key indexes are published on every
// store): on moments stores, whose summaries are flat O(k) vectors.
func (s *Store) waitFree() bool { return s.backend.HasMoments() && !s.locked }

// Order returns the moments-sketch order k of a moments store, and 0 on
// every other backend.
func (s *Store) Order() int { return s.backend.Order() }

// Backend returns the store's serving summary backend.
func (s *Store) Backend() sketch.Backend { return s.backend }

// NumShards returns the number of lock stripes.
func (s *Store) NumShards() int { return len(s.stripes) }

// SetJournal attaches a write-ahead journal to the store. It must be
// called once, before the store serves any traffic — the field is read
// without synchronization on every Commit. Only Batch.Commit logs through
// the journal; direct Add/AddAt writes and Delete/Reset/Restore mutations
// do not, so a journaling deployment must ingest through Commit (momentsd
// does) and should re-snapshot after a restore or reset (momentsd
// checkpoints on /restore).
func (s *Store) SetJournal(j Journal) { s.journal = j }

// fnv64a hashes a key without allocating (FNV-1a).
func fnv64a(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

func (s *Store) stripeFor(key string) *stripe {
	return &s.stripes[fnv64a(key)&s.mask]
}

// entryLocked returns the entry for key, creating it if absent. Creation
// records the key for the stripe's index and bumps the key gauge; the
// caller's commit path republishes the index before releasing the lock.
// The stripe lock must be held.
func (s *Store) entryLocked(st *stripe, key string) *entry {
	e, ok := st.entries[key]
	if !ok {
		e = &entry{all: s.backend.New()}
		if s.paneWidth > 0 {
			e.ring = s.newPaneRing()
		}
		st.entries[key] = e
		st.added = append(st.added, indexAdd{key: key, e: e})
		s.keyGauge.Add(1)
	}
	return e
}

// addLocked accumulates one observation into an entry: always into the
// all-time sketch, and — on windowed stores — into the pane containing at,
// clamped to nowPane. The clamp means a data-supplied future timestamp
// (clock skew, or a hostile ingest body) lands in the current pane instead
// of advancing the ring and expiring live panes. The stripe lock must be
// held.
func (s *Store) addLocked(e *entry, x float64, at time.Time, nowPane int64) {
	e.all.Add(x)
	if e.ring != nil {
		p := s.paneIndex(at)
		if p > nowPane {
			p = nowPane
		}
		e.ring.observe(p, x)
	}
	e.version++
}

// Add accumulates one observation stamped with the store clock's now.
func (s *Store) Add(key string, x float64) {
	s.AddAt(key, x, s.now())
}

// AddAt accumulates one observation at an explicit instant; the zero time
// means "now", matching Batch.AddAt. On windowed stores the value lands in
// the pane containing at; observations older than the retained range (or
// before 1970) still count toward the all-time sketch but no pane, and
// instants after the clock's now clamp to the current pane.
func (s *Store) AddAt(key string, x float64, at time.Time) {
	if at.IsZero() {
		at = s.now()
	}
	nowPane := int64(0)
	if s.paneWidth > 0 {
		nowPane = s.nowPane()
	}
	st := s.stripeFor(key)
	st.mu.Lock()
	e := s.entryLocked(st, key)
	s.addLocked(e, x, at, nowPane)
	st.count++
	s.obsGauge.Add(1)
	s.publishEntryLocked(e)
	s.publishIndexLocked(st)
	st.mu.Unlock()
}

// Batch buckets observations per stripe so a Flush takes each stripe lock
// exactly once. Buffers are reused across flushes, so a long-lived Batch
// (e.g. pooled per request) ingests without allocating. A Batch is not safe
// for concurrent use; pool them instead.
type Batch struct {
	store   *Store
	buckets [][]Observation
	touched []int
	n       int
	flat    []Observation // Commit's journal-encode scratch, reused
	pub     []*entry      // Flush's per-stripe publish scratch, reused
}

// NewBatch returns an empty reusable batch bound to the store.
func (s *Store) NewBatch() *Batch {
	return &Batch{
		store:   s,
		buckets: make([][]Observation, len(s.stripes)),
	}
}

// Add appends one observation to the batch, stamped with the store clock's
// now at flush time.
func (b *Batch) Add(key string, x float64) {
	b.AddAt(key, x, time.Time{})
}

// AddAt appends one observation with an explicit timestamp. The zero time
// means "stamp with the flush instant".
func (b *Batch) AddAt(key string, x float64, at time.Time) {
	i := int(fnv64a(key) & b.store.mask)
	if len(b.buckets[i]) == 0 {
		b.touched = append(b.touched, i)
	}
	b.buckets[i] = append(b.buckets[i], Observation{Key: key, Value: x, At: at})
	b.n++
}

// Len returns the number of buffered observations.
func (b *Batch) Len() int { return b.n }

// Flush applies the buffered observations and resets the batch for reuse.
// It returns the number of observations applied.
func (b *Batch) Flush() int {
	applied := b.n
	now := b.store.now()
	nowPane := int64(0)
	if b.store.paneWidth > 0 {
		nowPane = b.store.paneIndex(now)
	}
	for _, i := range b.touched {
		st := &b.store.stripes[i]
		st.mu.Lock()
		for _, o := range b.buckets[i] {
			at := o.At
			if at.IsZero() {
				at = now
			}
			e := b.store.entryLocked(st, o.Key)
			if b.store.waitFree() {
				// First touch this flush ⇔ the entry is still "clean":
				// every entry is published at each commit, so at lock
				// acquisition pub.version == e.version (or pub is nil for
				// a just-created entry), and the first addLocked below
				// breaks the equality for the rest of the bucket. One
				// atomic load per observation replaces a per-observation
				// map lookup in a separate publish pass; duplicates from
				// repeated just-created keys are no-ops at publish time.
				if p := e.pub.Load(); p == nil || p.version == e.version {
					b.pub = append(b.pub, e)
				}
			}
			b.store.addLocked(e, o.Value, at, nowPane)
		}
		st.count += float64(len(b.buckets[i]))
		b.store.obsGauge.Add(float64(len(b.buckets[i])))
		// Publish once per touched entry, then the key index, all before
		// the stripe lock releases.
		for _, e := range b.pub {
			b.store.publishEntryLocked(e)
		}
		b.pub = b.pub[:0]
		b.store.publishIndexLocked(st)
		st.mu.Unlock()
		clear(b.buckets[i]) // release key strings before truncating
		b.buckets[i] = b.buckets[i][:0]
	}
	b.touched = b.touched[:0]
	b.n = 0
	return applied
}

// Commit applies the batch write-ahead: when the store has a journal the
// buffered observations are logged and made durable first, then applied,
// then the journal's checkpoint guard is released — so an acknowledged
// batch is always recoverable and a failed one (journal wedged by a disk
// failure) is never partially applied; the caller may retry or
// Discard it. Without a journal Commit is exactly Flush. Zero timestamps
// are resolved against the store clock before logging, so the log record
// and the store agree on every observation's instant.
func (b *Batch) Commit() (int, error) {
	j := b.store.journal
	if j == nil || b.n == 0 {
		return b.Flush(), nil
	}
	// Stamp zero timestamps in place, so Flush has nothing left to stamp and
	// the journaled record and the store apply carry identical instants.
	now := b.store.now()
	b.flat = b.flat[:0]
	for _, i := range b.touched {
		bucket := b.buckets[i]
		for k := range bucket {
			if bucket[k].At.IsZero() {
				bucket[k].At = now
			}
		}
		b.flat = append(b.flat, bucket...)
	}
	release, err := j.Append(b.flat)
	clear(b.flat) // release the key strings the scratch retains
	b.flat = b.flat[:0]
	if err != nil {
		return 0, err
	}
	defer release()
	return b.Flush(), nil
}

// Discard drops the buffered observations without applying them — e.g.
// when a request fails validation partway through decoding — and resets
// the batch for reuse.
func (b *Batch) Discard() {
	for _, i := range b.touched {
		clear(b.buckets[i])
		b.buckets[i] = b.buckets[i][:0]
	}
	b.touched = b.touched[:0]
	b.n = 0
}

// Summary returns an independent clone of the all-time summary for key. On
// wait-free stores (see published.go) it clones the key's published
// snapshot without taking any lock; otherwise it clones under the stripe
// lock.
func (s *Store) Summary(key string) (sketch.Serving, bool) {
	if s.waitFree() {
		p, found := s.lookupPublished(key)
		if !found {
			s.pubReads.Add(1)
			return nil, false
		}
		if p != nil {
			s.pubReads.Add(1)
			return p.serving(s.backend), true
		}
	}
	s.lockReads.Add(1)
	st := s.stripeFor(key)
	st.mu.Lock()
	e, ok := st.entries[key]
	var c sketch.Serving
	if ok {
		c = e.all.Clone()
	}
	st.mu.Unlock()
	return c, ok
}

// Sketch returns an independent clone of the all-time moments sketch for
// key — the moments view of Summary. ok is false when the key is absent or
// the store serves a non-moments backend.
func (s *Store) Sketch(key string) (*core.Sketch, bool) {
	c, ok := s.Summary(key)
	if !ok {
		return nil, false
	}
	raw := sketch.RawMoments(c)
	return raw, raw != nil
}

// Count returns the number of observations recorded under key (0 if the key
// is absent).
func (s *Store) Count(key string) float64 {
	if s.waitFree() {
		p, found := s.lookupPublished(key)
		if !found {
			s.pubReads.Add(1)
			return 0
		}
		if p != nil {
			s.pubReads.Add(1)
			return p.sk.Count
		}
	}
	s.lockReads.Add(1)
	st := s.stripeFor(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	if e, ok := st.entries[key]; ok {
		return e.all.Count()
	}
	return 0
}

// Len returns the number of distinct keys — one atomic gauge load, no
// stripe locks. The gauge is maintained under the stripe locks on every
// create/delete/reset/restore; AuditCounts is the locked sweep the test
// suites cross-check it against.
func (s *Store) Len() int {
	return int(s.keyGauge.Load())
}

// TotalCount returns the total number of observations ingested — one
// atomic gauge load, no stripe locks (see Len).
func (s *Store) TotalCount() float64 {
	return s.obsGauge.Load()
}

// Keys returns every key with the given prefix, sorted. An empty prefix
// matches all keys. Every store publishes its per-stripe key indexes, so
// the scan never locks.
func (s *Store) Keys(prefix string) []string {
	s.pubReads.Add(1)
	var keys []string
	for i := range s.stripes {
		k, _ := s.stripes[i].keyRange(prefix)
		keys = append(keys, k...)
	}
	sort.Strings(keys)
	return keys
}

// Keyed pairs a key with a clone of its summary.
type Keyed struct {
	Key     string
	Summary sketch.Serving
}

// Match returns a clone of every (key, summary) whose key has the given
// prefix, in the store's key order: stripes in order, keys ascending within
// each stripe — the order every rollup folds in. An empty prefix matches
// all keys.
func (s *Store) Match(prefix string) []Keyed {
	locked := !s.waitFree()
	var out []Keyed
	_ = s.walk(context.Background(), prefix, locked, func(key string, e *entry) error {
		out = append(out, Keyed{Key: key, Summary: e.clone(s.backend, locked)})
		return nil
	})
	return out
}

// MergePrefix rolls up every key with the given prefix into one summary —
// the cube-style aggregation the moments sketch is built for. It returns
// the merged summary and the number of per-key summaries merged. Nothing is
// cloned, so a rollup over n keys costs n summary merges (vector additions
// for the moments backend).
func (s *Store) MergePrefix(prefix string) (sketch.Serving, int, error) {
	return s.MergePrefixContext(context.Background(), prefix)
}

// MergePrefixContext is MergePrefix with cancellation: the rollup checks
// ctx between stripes and returns ctx.Err() when the deadline passes. It is
// MergeGroups with one label for every key, so for a quiescent store the
// rollup — rounding included — is a pure function of the data, equal to
// any group over the same keys; repeated queries answer bit-identically.
func (s *Store) MergePrefixContext(ctx context.Context, prefix string) (sketch.Serving, int, error) {
	groups, err := s.MergeGroups(ctx, prefix, func(string) string { return "" })
	if err != nil || len(groups) == 0 {
		return s.backend.New(), 0, err
	}
	return groups[0].Summary, groups[0].Keys, nil
}

// Group is one label's rollup from MergeGroups: the merged summary of the
// Keys keys that label maps to Label.
type Group struct {
	Label   string
	Summary sketch.Serving
	Keys    int
}

// MergeGroups rolls up every key with the given prefix into one summary per
// label(key), returned in ascending byte order of the label. Each label's
// accumulator starts from backend.New() and merges its keys in the store's
// one key order, so a group whose keys are exactly some prefix's keys is
// bit-identical to that prefix's rollup. Nothing is cloned: a grouped
// rollup over n keys in g groups costs n merges and O(g) allocations.
// label runs once per key, possibly under a stripe lock, and must not call
// back into the store.
func (s *Store) MergeGroups(ctx context.Context, prefix string, label func(key string) string) ([]Group, error) {
	locked := !s.waitFree()
	var groups []Group
	at := make(map[string]int)
	err := s.walk(ctx, prefix, locked, func(key string, e *entry) error {
		l := label(key)
		i, ok := at[l]
		if !ok {
			i = len(groups)
			at[l] = i
			groups = append(groups, Group{Label: l, Summary: s.backend.New()})
		}
		groups[i].Keys++
		return e.mergeInto(groups[i].Summary, locked)
	})
	if err != nil {
		return nil, err
	}
	slices.SortFunc(groups, func(a, b Group) int { return strings.Compare(a.Label, b.Label) })
	return groups, nil
}

// Delete removes a key, reporting whether it was present.
func (s *Store) Delete(key string) bool {
	st := s.stripeFor(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.entries[key]
	if ok {
		st.count -= e.all.Count()
		delete(st.entries, key)
		s.keyGauge.Add(-1)
		s.obsGauge.Add(-e.all.Count())
		st.removed = append(st.removed, key)
		s.publishIndexLocked(st)
	}
	return ok
}

// Reset removes every key.
func (s *Store) Reset() {
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		s.keyGauge.Add(int64(-len(st.entries)))
		s.obsGauge.Add(-st.count)
		st.entries = make(map[string]*entry)
		st.count = 0
		st.rebase = true
		s.publishIndexLocked(st)
		st.mu.Unlock()
	}
}

// Snapshot format: a "MDSS" magic, the format version, a header, then one
// length-prefixed record per key, terminated by a trailer (an all-ones
// key-length sentinel followed by the record count) so truncation — even
// at a record boundary — is always detectable. See internal/encoding and
// internal/sketch's codecs for the payload formats.
//
// Every store writes version 3, the only version Restore reads (the
// moments-only versions 1 and 2 of earlier releases are refused). Its
// header carries the backend's length-prefixed fingerprint (e.g.
// "moments(k=10)", "tdigest(c=100)") and a flags byte whose bit 0 marks a
// windowed store, followed when set by the pane configuration (width in
// nanoseconds, retention). Each record is the key, its all-time payload in
// the backend's codec and, on windowed stores, the key's live panes as a
// pane count followed by (absolute pane index, payload) pairs. Records
// come in key-index order (stripes in order, keys ascending within a
// stripe), so the same store state always gives the same bytes. Restore
// rejects a snapshot whose backend fingerprint does not match the store's,
// so summaries from different backends — or differently parameterized
// ones — can never be mixed.
//
// Pane indices are absolute (unix nanoseconds / width), so a restored store
// re-expires against the wall clock: panes that aged out while the snapshot
// sat on disk are dropped during Restore, and each key's rolling retained
// sketch is rebuilt by an exact re-merge of the live panes (clearing any
// turnstile floating-point drift).
const (
	snapMagic      = "MDSS"
	snapVersion    = 3
	snapEndMarker  = ^uint64(0) // key-length sentinel introducing the trailer
	maxSnapPayload = 1 << 24    // per-sketch payload cap
	maxFingerprint = 256        // backend fingerprint length cap
	snapFlagPanes  = 1          // flags bit: store has time panes
)

// MaxKeyLen is the longest key the snapshot format round-trips (1 MiB).
// Ingest surfaces must reject longer keys — a store holding one could
// write a snapshot that Restore then refuses to read back.
const MaxKeyLen = 1 << 20

// Snapshot serializes every (key, sketch) pair to w. Records are marshaled
// stripe by stripe under each stripe lock but written to w outside it, so a
// slow consumer (a remote /snapshot client, a saturated disk) never blocks
// ingest. The result is a consistent per-key snapshot: each sketch is
// internally consistent; keys ingested during the snapshot may or may not
// appear.
func (s *Store) Snapshot(w io.Writer) error {
	fp := s.backend.Fingerprint()
	hdr := append([]byte(snapMagic), snapVersion)
	hdr = binary.AppendUvarint(hdr, uint64(len(fp)))
	hdr = append(hdr, fp...)
	nowPane := int64(0)
	if s.paneWidth > 0 {
		hdr = append(hdr, snapFlagPanes)
		hdr = binary.AppendUvarint(hdr, uint64(s.paneWidth))
		hdr = binary.AppendUvarint(hdr, uint64(s.retention))
		nowPane = s.nowPane()
	} else {
		hdr = append(hdr, 0)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	var records []byte
	total := uint64(0)
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		keys, entries := st.keyRange("")
		var err error
		records = records[:0]
		for j, e := range entries {
			if records, err = s.appendRecordLocked(records, keys[j], e, nowPane); err != nil {
				st.mu.Unlock()
				return err
			}
		}
		st.mu.Unlock()
		total += uint64(len(entries))
		if _, err := bw.Write(records); err != nil {
			return err
		}
	}
	trailer := binary.AppendUvarint(records[:0], snapEndMarker)
	if _, err := bw.Write(binary.AppendUvarint(trailer, total)); err != nil {
		return err
	}
	return bw.Flush()
}

// appendRecordLocked appends key's snapshot record to buf. On windowed
// stores the ring is expired to nowPane first, so stale panes are not
// persisted. The stripe lock must be held.
func (s *Store) appendRecordLocked(buf []byte, key string, e *entry, nowPane int64) ([]byte, error) {
	payload, err := s.backend.Marshal(e.all)
	if err != nil {
		return buf, err
	}
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	if e.ring == nil {
		return buf, nil
	}
	e.ring.advance(nowPane)
	live := uint64(0)
	for j := range e.ring.slots {
		if e.ring.slots[j].idx >= 0 {
			live++
		}
	}
	buf = binary.AppendUvarint(buf, live)
	for j := range e.ring.slots {
		if e.ring.slots[j].idx < 0 {
			continue
		}
		pp, err := s.backend.Marshal(e.ring.slots[j].sk)
		if err != nil {
			return buf, err
		}
		buf = binary.AppendUvarint(buf, uint64(e.ring.slots[j].idx))
		buf = binary.AppendUvarint(buf, uint64(len(pp)))
		buf = append(buf, pp...)
	}
	return buf, nil
}

// Restore replaces the store's contents with a snapshot previously written
// by Snapshot. The snapshot's backend fingerprint must match the store's.
// The whole stream — including the truncation-detecting trailer — is
// decoded and validated into a staging area first, so a bad or cut-short
// snapshot leaves the store untouched. That includes a record the
// backend codec refuses as out of domain (a non-finite or impossible
// moment vector, encoding.ErrCorrupt): the whole restore fails with that
// error rather than dropping the key, because a snapshot holding such a
// record was not written by Snapshot and nothing else in it can be
// trusted either.
func (s *Store) Restore(r io.Reader) error {
	br := bufio.NewReader(r)
	head := make([]byte, len(snapMagic)+1)
	if _, err := io.ReadFull(br, head); err != nil {
		return fmt.Errorf("shard: reading snapshot header: %w", err)
	}
	if string(head[:len(snapMagic)]) != snapMagic {
		return errors.New("shard: not a snapshot stream (bad magic)")
	}
	if version := head[len(snapMagic)]; version != snapVersion {
		return fmt.Errorf("shard: unsupported snapshot version %d", version)
	}
	fpLen, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("shard: reading snapshot backend fingerprint: %w", err)
	}
	if fpLen > maxFingerprint {
		return errors.New("shard: implausible backend fingerprint length in snapshot")
	}
	fp := make([]byte, fpLen)
	if _, err := io.ReadFull(br, fp); err != nil {
		return fmt.Errorf("shard: reading snapshot backend fingerprint: %w", err)
	}
	if string(fp) != s.backend.Fingerprint() {
		return fmt.Errorf("shard: snapshot backend %s does not match store backend %s", fp, s.backend.Fingerprint())
	}
	flags, err := br.ReadByte()
	if err != nil {
		return fmt.Errorf("shard: reading snapshot header: %w", err)
	}
	snapPanes := flags&snapFlagPanes != 0
	if snapPanes {
		width, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("shard: reading snapshot pane config: %w", err)
		}
		retention, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("shard: reading snapshot pane config: %w", err)
		}
		if s.paneWidth <= 0 {
			return errors.New("shard: windowed snapshot into a store without time panes")
		}
		if int64(width) != s.paneWidth || int(retention) != s.retention {
			return fmt.Errorf("shard: snapshot pane config (width=%s, retention=%d) does not match store (width=%s, retention=%d)",
				time.Duration(width), retention, time.Duration(s.paneWidth), s.retention)
		}
	}

	type stagedPane struct {
		idx int64
		sk  sketch.Serving
	}
	type stagedEntry struct {
		all   sketch.Serving
		panes []stagedPane
	}
	readSketch := func(buf []byte) ([]byte, sketch.Serving, error) {
		payloadLen, err := binary.ReadUvarint(br)
		if err != nil {
			return buf, nil, fmt.Errorf("shard: reading snapshot record: %w", err)
		}
		if payloadLen > maxSnapPayload {
			return buf, nil, errors.New("shard: implausible sketch length in snapshot")
		}
		if uint64(cap(buf)) < payloadLen {
			buf = make([]byte, payloadLen)
		}
		buf = buf[:payloadLen]
		if _, err := io.ReadFull(br, buf); err != nil {
			return buf, nil, fmt.Errorf("shard: reading snapshot payload: %w", err)
		}
		sum, err := s.backend.Unmarshal(buf)
		if err != nil {
			return buf, nil, fmt.Errorf("shard: decoding snapshot sketch: %w", err)
		}
		return buf, sum, nil
	}

	staged := make(map[string]*stagedEntry)
	var buf []byte
	for {
		keyLen, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("shard: truncated snapshot (missing trailer): %w", err)
		}
		if keyLen == snapEndMarker {
			total, err := binary.ReadUvarint(br)
			if err != nil {
				return fmt.Errorf("shard: truncated snapshot trailer: %w", err)
			}
			if total != uint64(len(staged)) {
				return fmt.Errorf("shard: snapshot trailer records %d keys, decoded %d", total, len(staged))
			}
			break
		}
		if keyLen > MaxKeyLen {
			return errors.New("shard: implausible key length in snapshot")
		}
		keyBytes := make([]byte, keyLen)
		if _, err := io.ReadFull(br, keyBytes); err != nil {
			return fmt.Errorf("shard: reading snapshot key: %w", err)
		}
		se := &stagedEntry{}
		if buf, se.all, err = readSketch(buf); err != nil {
			return err
		}
		if snapPanes {
			paneCount, err := binary.ReadUvarint(br)
			if err != nil {
				return fmt.Errorf("shard: reading snapshot pane count: %w", err)
			}
			if paneCount > uint64(s.retention) {
				return fmt.Errorf("shard: snapshot pane count %d exceeds retention %d", paneCount, s.retention)
			}
			seen := make(map[int64]bool, paneCount)
			for p := uint64(0); p < paneCount; p++ {
				idx, err := binary.ReadUvarint(br)
				if err != nil {
					return fmt.Errorf("shard: reading snapshot pane index: %w", err)
				}
				// A duplicate index would merge twice into the rolling
				// retained sketch but occupy one ring slot, desynchronizing
				// retained from the panes until the ring next fully resets.
				if seen[int64(idx)] {
					return fmt.Errorf("shard: duplicate pane index %d in snapshot", idx)
				}
				seen[int64(idx)] = true
				var sk sketch.Serving
				if buf, sk, err = readSketch(buf); err != nil {
					return err
				}
				se.panes = append(se.panes, stagedPane{idx: int64(idx), sk: sk})
			}
		}
		staged[string(keyBytes)] = se
	}

	// Swap the staged contents in stripe by stripe, replacing each stripe's
	// map and recomputing its count wholesale. Each stripe's replacement is
	// atomic under its lock, so concurrent ingest never leaves a stripe
	// whose count disagrees with its entries. Pane rings are rebuilt
	// against the wall clock: panes that expired while the snapshot sat on
	// disk are dropped, and each key's rolling retained sketch is an exact
	// re-merge of its live panes.
	nowPane := int64(0)
	if s.paneWidth > 0 {
		nowPane = s.nowPane()
	}
	perStripe := make([]map[string]*entry, len(s.stripes))
	for key, se := range staged {
		i := fnv64a(key) & s.mask
		if perStripe[i] == nil {
			perStripe[i] = make(map[string]*entry)
		}
		e := &entry{all: se.all}
		if s.paneWidth > 0 {
			e.ring = s.newPaneRing()
			e.ring.advance(nowPane)
			for _, p := range se.panes {
				e.ring.restorePane(p.idx, p.sk)
			}
		}
		perStripe[i][key] = e
	}
	for i := range s.stripes {
		entries := perStripe[i]
		if entries == nil {
			entries = make(map[string]*entry)
		}
		count := 0.0
		for _, e := range entries {
			//lint:allow stripelock staged entries are unpublished; counting pre-lock is intentional
			count += e.all.Count()
		}
		st := &s.stripes[i]
		st.mu.Lock()
		for key, e := range entries {
			s.publishEntryLocked(e)
			st.added = append(st.added, indexAdd{key: key, e: e})
		}
		s.keyGauge.Add(int64(len(entries) - len(st.entries)))
		s.obsGauge.Add(count - st.count)
		st.entries = entries
		st.count = count
		st.rebase = true
		s.publishIndexLocked(st)
		st.mu.Unlock()
	}
	return nil
}

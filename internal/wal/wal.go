package wal

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/shard"
)

// Defaults for Options fields left zero.
const (
	DefaultStripes     = 4
	DefaultSegmentSize = 64 << 20
)

// pileTarget is the group-commit leader threshold: the appender whose
// record fills the pile to this size runs the sync inline instead of
// waiting for the syncer goroutine to win the CPU (see append). Sized so
// that at full load one fsync's worth of encoding keeps the disk fed: a
// ~1ms fsync covers roughly this many ~100µs batch encodes, so compute
// and fsync pipeline instead of alternating.
const pileTarget = 12

// ErrWedged is returned by every append after a write or sync failure
// wedged the log, so the server answers ingest with a 503 and never
// acknowledges a batch it has not fsynced. The log stays wedged — serving
// reads continues, durability does not — until the process restarts
// against a healthy disk.
var ErrWedged = errors.New("wal: log wedged by an earlier write or sync failure")

// Options configures a Log.
type Options struct {
	// Dir is the segment directory (required; created if absent).
	Dir string
	// Stripes is the number of independent segment logs appends spread
	// over (default DefaultStripes). More stripes let fsyncs proceed in
	// parallel on hardware that benefits from it.
	Stripes int
	// SegmentSize is the byte threshold past which a stripe seals its
	// active segment and rotates to a new one (default DefaultSegmentSize).
	SegmentSize int64
	// Fingerprint is the store backend's fingerprint, stamped into every
	// segment header and checked by Replay.
	Fingerprint string
	// SeqFloor carries the loaded snapshot watermark's per-stripe cut
	// sequence numbers (the same slice passed to Replay). New segments are
	// numbered strictly above the floor: a checkpoint that truncated every
	// segment leaves an empty directory behind, and without the floor a
	// later boot would restart numbering at 1 — writing acknowledged
	// records into sequences the persisted watermark already claims are
	// covered, which a subsequent replay would silently skip. Entries past
	// Stripes are ignored; a short or nil slice means no floor.
	SeqFloor []uint64
	// Logf, when non-nil, receives operational log lines (wedge events,
	// truncation failures).
	Logf func(format string, args ...any)

	// openFile is the segment-creation seam tests use to inject failing
	// files; nil means the real filesystem.
	openFile func(path string) (segFile, error)
}

// Stats is a point-in-time snapshot of the log's counters, surfaced under
// "wal" on /v1/stats.
type Stats struct {
	Dir               string       `json:"dir"`
	Stripes           int          `json:"stripes"`
	SegmentSize       int64        `json:"segment_size"`
	Segments          int64        `json:"segments"`
	ActiveBytes       int64        `json:"active_bytes"`
	Appends           uint64       `json:"appends"`
	AppendedObs       uint64       `json:"appended_obs"`
	Syncs             uint64       `json:"syncs"`
	SyncFailures      uint64       `json:"sync_failures"`
	Wedged            bool         `json:"wedged"`
	Checkpoints       uint64       `json:"checkpoints"`
	TruncatedSegments uint64       `json:"truncated_segments"`
	Replay            *ReplayStats `json:"replay,omitempty"`
}

// Log is a per-stripe group-commit observation log. All methods are safe
// for concurrent use. It implements shard.Journal.
type Log struct {
	opts Options

	// cp is the checkpoint guard: every append holds the read side from
	// the moment its record is logged until the committer has applied the
	// batch to the store (release), and Checkpoint holds the write side
	// across [seal every stripe + snapshot save]. That pincer is what
	// makes snapshot ∩ retained-WAL empty: no record can be applied (and
	// so snapshotted) while still in a segment the checkpoint will not
	// cut, and none can be cut while not yet applied.
	cp sync.RWMutex

	stripes []stripeLog
	// active is the stripe currently accumulating appends. Syncers advance
	// it when they begin a group commit on it, so the next pile accumulates
	// on another stripe while this one's fsync is in flight — pipelined
	// group commit. Stripe count is fsync pipeline depth, not a key
	// partition: any batch may land on any stripe.
	active atomic.Uint64
	// syncTok admits one fsync at a time across the whole log. Journaling
	// filesystems serialize fsyncs on the journal commit anyway; letting
	// stripes issue them concurrently would only split the commit pile
	// (halving the batches each fsync covers) without finishing any
	// sooner. Serializing deliberately makes each group commit cover the
	// entire arrival stream of the previous one's duration.
	syncTok sync.Mutex

	wedged    atomic.Bool
	appends   atomic.Uint64
	obs       atomic.Uint64
	syncs     atomic.Uint64
	syncFails atomic.Uint64
	chkpts    atomic.Uint64
	truncated atomic.Uint64
	segments  atomic.Int64

	replay atomic.Pointer[ReplayStats]

	closed atomic.Bool
}

// waiter is one append blocked on the next fsync.
type waiter struct {
	ch chan error
}

// stripeLog is one independent segment log: an active segment file, a
// buffered writer, the waiters of the next group commit, and the syncer
// goroutine that serves them.
type stripeLog struct {
	l  *Log
	id int

	mu      sync.Mutex
	f       segFile
	w       *bufio.Writer
	seq     uint64 // sequence of the active (or last sealed) segment
	size    int64  // bytes written to the active segment
	gen     uint64 // bumped on every seal; lets the syncer detect races
	waiters []*waiter
	err     error    // sticky stripe failure
	buf     []byte   // record encode scratch
	enc     *dictTab // record encoder's reusable key dictionary

	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

// Open creates (or reuses) the segment directory and starts a log whose
// appends go to fresh segments — existing segments are never appended to,
// so a torn tail from a previous crash stays frozen until truncation.
// Callers replay existing segments (Replay) before opening. Open creates
// every stripe's first segment eagerly, so an unwritable directory fails
// here rather than on the first ingest.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if opts.Stripes <= 0 {
		opts.Stripes = DefaultStripes
	}
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = DefaultSegmentSize
	}
	if opts.openFile == nil {
		opts.openFile = openSegFile
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating directory: %w", err)
	}
	l := &Log{opts: opts, stripes: make([]stripeLog, opts.Stripes)}

	// Existing segments (to be truncated at the next checkpoint) count
	// toward the segment gauge, and fix each stripe's next sequence number
	// past everything already on disk — and past the snapshot watermark's
	// cuts, so sequences covered by a persisted watermark are never reused
	// even when truncation emptied the directory.
	maxSeq := make([]uint64, opts.Stripes)
	for i := range maxSeq {
		if i < len(opts.SeqFloor) && opts.SeqFloor[i] > maxSeq[i] {
			maxSeq[i] = opts.SeqFloor[i]
		}
	}
	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("wal: reading directory: %w", err)
	}
	for _, e := range entries {
		stripe, seq, ok := parseSegName(e.Name())
		if !ok {
			continue
		}
		l.segments.Add(1)
		if stripe < opts.Stripes && seq > maxSeq[stripe] {
			maxSeq[stripe] = seq
		}
	}

	for i := range l.stripes {
		l.stripes[i] = stripeLog{
			l:    l,
			id:   i,
			seq:  maxSeq[i],
			enc:  new(dictTab),
			kick: make(chan struct{}, 1),
			stop: make(chan struct{}),
			done: make(chan struct{}),
		}
	}
	// Create the first segments before starting any syncer, so a failure
	// here can clean up without racing goroutines.
	for i := range l.stripes {
		sl := &l.stripes[i]
		if err := sl.createLocked(false); err != nil {
			for j := 0; j < i; j++ {
				l.stripes[j].f.Close()
			}
			return nil, fmt.Errorf("wal: creating segment: %w", err)
		}
	}
	if err := SyncDir(opts.Dir); err != nil {
		for i := range l.stripes {
			l.stripes[i].f.Close()
		}
		return nil, fmt.Errorf("wal: syncing directory: %w", err)
	}
	for i := range l.stripes {
		go l.stripes[i].run()
	}
	return l, nil
}

// logf forwards to the configured operational logger.
func (l *Log) logf(format string, args ...any) {
	if l.opts.Logf != nil {
		l.opts.Logf(format, args...)
	}
}

// NoteReplay records the startup replay's statistics for Stats.
func (l *Log) NoteReplay(rs *ReplayStats) { l.replay.Store(rs) }

// Append implements shard.Journal: it logs the batch to one stripe,
// blocks until the record is fsynced, and returns a release func the
// committer must call after applying the batch to the store. A wedged log
// fails every append (ErrWedged, or the failure that wedged it), so a nil
// error always means durable. Append and release bracket the store apply
// inside the checkpoint guard; see Log.cp.
func (l *Log) Append(obs []shard.Observation) (func(), error) {
	if len(obs) == 0 {
		return func() {}, nil
	}
	l.cp.RLock()
	l.appends.Add(1)
	err := ErrWedged
	if !l.wedged.Load() {
		err = l.stripes[l.active.Load()%uint64(len(l.stripes))].append(obs)
	}
	if err != nil {
		l.cp.RUnlock()
		return nil, err
	}
	l.obs.Add(uint64(len(obs)))
	return l.cp.RUnlock, nil
}

// wedge latches a stripe failure into the log-wide wedged state.
func (l *Log) wedge(stripe int, err error) {
	if l.wedged.CompareAndSwap(false, true) {
		l.logf("wal: stripe %d wedged: %v", stripe, err)
	}
}

// append encodes the batch into the stripe's active segment, rotating
// first if the record would overflow it, then blocks on the next group
// commit. It returns the failure, if any, that kept the record from
// becoming durable.
func (sl *stripeLog) append(obs []shard.Observation) error {
	sl.mu.Lock()
	if sl.err != nil {
		err := sl.err
		sl.mu.Unlock()
		return err
	}
	if sl.f == nil {
		// Lazily recreate after a checkpoint sealed the active segment.
		if err := sl.createLocked(true); err != nil {
			sl.failLocked(err)
			sl.mu.Unlock()
			return err
		}
	}
	sl.buf = appendRecordDict(sl.buf[:0], obs, sl.enc)
	if sl.size > 0 && sl.size+int64(len(sl.buf)) > sl.l.opts.SegmentSize {
		if err := sl.rotateLocked(); err != nil {
			sl.failLocked(err)
			sl.mu.Unlock()
			return err
		}
	}
	if _, err := sl.w.Write(sl.buf); err != nil {
		sl.failLocked(err)
		sl.mu.Unlock()
		return err
	}
	sl.size += int64(len(sl.buf))
	w := &waiter{ch: make(chan error, 1)}
	sl.waiters = append(sl.waiters, w)
	lead := len(sl.waiters) == pileTarget
	sl.mu.Unlock()

	// Group commit, work-conserving: the disk must never sit idle while a
	// record waits. Relying on the syncer goroutine alone loses that race
	// under load — it gets starved behind the wave of committers it just
	// released, the whole wave piles onto one stripe, and disk and CPU
	// strictly alternate instead of overlapping. So the appender that
	// fills the pile to pileTarget becomes the commit leader and drives
	// the sync on its own goroutine: it queues on the device token, so the
	// moment the in-flight fsync retires the next one starts, taking
	// whatever pile accumulated in the meantime (the pile self-clocks to
	// the device's latency). Everyone else just parks. The syncer
	// goroutine's kick path serves piles that never reach the target — a
	// lone committer waits one goroutine handoff plus one fsync.
	if lead {
		sl.syncNow()
	} else {
		select {
		case sl.kick <- struct{}{}:
		default:
		}
	}
	return <-w.ch
}

// failLocked latches an error on the stripe, wedges the log, and fails
// any enqueued waiters. sl.mu held.
func (sl *stripeLog) failLocked(err error) {
	if sl.err == nil {
		sl.err = err
	}
	sl.l.syncFails.Add(1)
	sl.l.wedge(sl.id, err)
	for _, w := range sl.waiters {
		w.ch <- err
	}
	sl.waiters = nil
}

// createLocked opens a fresh segment (seq+1) and writes its header
// through to the file, so no bytes sit in the buffer without a waiter to
// sync them. When syncDir is true the directory is fsynced so the new
// entry survives a crash — Open batches that sync across stripes instead.
// sl.mu held (or the stripe not yet published).
func (sl *stripeLog) createLocked(syncDir bool) error {
	seq := sl.seq + 1
	path := filepath.Join(sl.l.opts.Dir, segName(sl.id, seq))
	f, err := sl.l.opts.openFile(path)
	if err != nil {
		return err
	}
	if syncDir {
		if err := SyncDir(sl.l.opts.Dir); err != nil {
			f.Close()
			return err
		}
	}
	hdr := appendHeader(nil, sl.id, seq, sl.l.opts.Fingerprint)
	if sl.w == nil {
		sl.w = bufio.NewWriterSize(f, 64<<10)
	} else {
		sl.w.Reset(f)
	}
	if _, err := sl.w.Write(hdr); err != nil {
		f.Close()
		return err
	}
	if err := sl.w.Flush(); err != nil {
		f.Close()
		return err
	}
	sl.f = f
	sl.seq = seq
	sl.size = int64(len(hdr))
	sl.l.segments.Add(1)
	return nil
}

// sealLocked flushes, fsyncs and closes the active segment, releasing the
// current waiters with the result. A nil active segment is a no-op.
// sl.mu held.
func (sl *stripeLog) sealLocked() error {
	if sl.f == nil {
		return nil
	}
	err := sl.w.Flush()
	if err == nil {
		// No syncTok here: seals run under sl.mu and the token is only
		// ever taken before stripe locks (syncNow), so taking it in the
		// opposite order would deadlock. A seal racing a group commit
		// costs at most one concurrent fsync.
		err = sl.f.Sync()
	}
	if cerr := sl.f.Close(); err == nil {
		err = cerr
	}
	sl.f = nil
	sl.size = 0
	sl.gen++
	if err != nil {
		sl.failLocked(err)
		return err
	}
	if len(sl.waiters) > 0 {
		sl.l.syncs.Add(1)
	}
	for _, w := range sl.waiters {
		w.ch <- nil
	}
	sl.waiters = nil
	return nil
}

// rotateLocked seals the active segment and opens the next one. sl.mu
// held.
func (sl *stripeLog) rotateLocked() error {
	if err := sl.sealLocked(); err != nil {
		return err
	}
	return sl.createLocked(true)
}

// run is the stripe's syncer goroutine: fsync as soon as writers are
// waiting (kick).
func (sl *stripeLog) run() {
	//lint:allow stripelock kick, stop and done are immutable after Open publishes the stripe
	defer close(sl.done)
	for {
		select {
		case <-sl.stop:
			return
		case <-sl.kick:
		}
		sl.syncNow()
	}
}

// idleLocked reports whether the stripe has no group commit to run: it is
// failed, sealed, or has no waiters. sl.mu held.
func (sl *stripeLog) idleLocked() bool {
	return sl.err != nil || sl.f == nil || len(sl.waiters) == 0
}

// syncNow is one group commit: flush the buffered writer under the lock,
// fsync outside it (appenders keep encoding meanwhile), then release
// every waiter the fsync covered. A stripe with no waiters has nothing to
// commit: every buffered record has one, and createLocked writes segment
// headers through to the file.
func (sl *stripeLog) syncNow() {
	l := sl.l
	sl.mu.Lock()
	idle := sl.idleLocked()
	sl.mu.Unlock()
	if idle {
		return
	}

	// Take the device token BEFORE the pile: while another stripe's fsync
	// holds it, this stripe keeps accumulating appends, so the pile
	// grabbed below covers the entire arrival stream of that fsync's
	// duration — grabbing first and then queueing would freeze a small
	// pile and split the group commit.
	l.syncTok.Lock()
	sl.mu.Lock()
	if sl.idleLocked() {
		sl.mu.Unlock()
		l.syncTok.Unlock()
		return
	}
	waiters := sl.waiters
	sl.waiters = nil
	f, gen := sl.f, sl.gen
	// Advance the active cursor now: appends arriving while our fsync is
	// in flight pile up on the next stripe. The CAS keeps a lagging
	// syncer from double-advancing past piles that never got to fill.
	l.active.CompareAndSwap(uint64(sl.id), uint64(sl.id+1)%uint64(len(l.stripes)))
	err := sl.w.Flush()
	sl.mu.Unlock()

	if err == nil {
		err = f.Sync()
	}
	l.syncTok.Unlock()

	sl.mu.Lock()
	if err != nil && sl.gen != gen {
		// The segment was sealed while we were syncing: the seal's own
		// flush+fsync covered these records (waiters enqueued after our
		// grab were released by the seal itself), so the stale handle's
		// error is not a durability failure.
		err = nil
	}
	if err != nil {
		// Latch the failure (wedging the log) before any waiter we took
		// sees it, so an appender holding the error finds the log wedged.
		sl.failLocked(err)
		for _, w := range waiters {
			w.ch <- err
		}
		waiters = nil
	} else {
		l.syncs.Add(1)
	}
	sl.mu.Unlock()
	for _, w := range waiters {
		w.ch <- nil
	}
}

// Checkpoint brackets a snapshot save: it blocks appends, seals every
// stripe's active segment, calls save with the per-stripe cut sequence
// numbers (every record in segments ≤ cut is applied to the store and so
// contained in the snapshot save writes), then unblocks appends and
// deletes the covered segments. The caller must persist the cuts
// atomically with the snapshot (momentsd writes them as a watermark
// footer, committed by the snapshot rename) so replay after any crash
// skips exactly the segments the snapshot contains. A save error leaves
// the sealed segments in place — they replay next boot.
func (l *Log) Checkpoint(save func(cuts []uint64) error) error {
	l.cp.Lock()
	cuts := make([]uint64, len(l.stripes))
	for i := range l.stripes {
		sl := &l.stripes[i]
		sl.mu.Lock()
		// A seal failure wedges the stripe and fails its unapplied
		// waiters; the checkpoint itself is still sound (see below).
		_ = sl.sealLocked()
		cuts[i] = sl.seq
		sl.mu.Unlock()
	}
	err := save(cuts)
	l.cp.Unlock()
	if err != nil {
		return err
	}
	l.chkpts.Add(1)
	l.truncate(cuts)
	return nil
}

// truncate deletes every sealed segment at or below its stripe's cut.
// Failures are logged and counted, never fatal: an undeleted segment
// costs replay work, not correctness, because the snapshot watermark
// already excludes it.
func (l *Log) truncate(cuts []uint64) {
	entries, err := os.ReadDir(l.opts.Dir)
	if err != nil {
		l.logf("wal: truncate: reading directory: %v", err)
		return
	}
	removed := 0
	for _, e := range entries {
		stripe, seq, ok := parseSegName(e.Name())
		if !ok || stripe >= len(cuts) || seq > cuts[stripe] {
			continue
		}
		if err := os.Remove(filepath.Join(l.opts.Dir, e.Name())); err != nil {
			l.logf("wal: truncate: %v", err)
			continue
		}
		removed++
		l.truncated.Add(1)
		l.segments.Add(-1)
	}
	if removed > 0 {
		if err := SyncDir(l.opts.Dir); err != nil {
			l.logf("wal: truncate: syncing directory: %v", err)
		}
	}
}

// Close stops the syncers and seals every stripe, releasing any blocked
// appenders. The log must not be appended to afterwards.
func (l *Log) Close() error {
	if !l.closed.CompareAndSwap(false, true) {
		return nil
	}
	var first error
	for i := range l.stripes {
		sl := &l.stripes[i]
		//lint:allow stripelock stop and done are immutable after Open publishes the stripe
		close(sl.stop)
		<-sl.done
		sl.mu.Lock()
		if err := sl.sealLocked(); err != nil && first == nil {
			first = err
		}
		sl.mu.Unlock()
	}
	return first
}

// Wedged reports whether a write or sync failure has wedged the log.
func (l *Log) Wedged() bool { return l.wedged.Load() }

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	st := Stats{
		Dir:               l.opts.Dir,
		Stripes:           len(l.stripes),
		SegmentSize:       l.opts.SegmentSize,
		Segments:          l.segments.Load(),
		Appends:           l.appends.Load(),
		AppendedObs:       l.obs.Load(),
		Syncs:             l.syncs.Load(),
		SyncFailures:      l.syncFails.Load(),
		Wedged:            l.wedged.Load(),
		Checkpoints:       l.chkpts.Load(),
		TruncatedSegments: l.truncated.Load(),
		Replay:            l.replay.Load(),
	}
	for i := range l.stripes {
		sl := &l.stripes[i]
		sl.mu.Lock()
		st.ActiveBytes += sl.size
		sl.mu.Unlock()
	}
	return st
}

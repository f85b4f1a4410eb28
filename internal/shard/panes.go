package shard

import (
	"context"
	"errors"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/sketch"
)

// ErrNoWindow is returned by the pane accessors when the store was built
// without WithWindow.
var ErrNoWindow = errors.New("shard: store has no time panes (construct with WithWindow)")

// MaxRetention bounds the number of panes a windowed store retains per key.
// Each live pane is one ~200-byte sketch, so this caps per-key memory at a
// few hundred KiB even for pathological configurations.
const MaxRetention = 4096

// paneSlot is one position of a key's pane ring. idx is the absolute pane
// index the slot currently holds, or -1 when empty. Summaries are allocated
// lazily on first use and Reset — not reallocated — on expiry, so a
// steady-state ring never allocates.
type paneSlot struct {
	idx int64
	sk  sketch.Serving
}

// paneRing is the per-key time dimension: a ring of fixed-width pane
// summaries covering the trailing `retention` panes, plus a rolling
// `retained` summary equal to the sum of all live panes. On backends with
// turnstile subtraction (the moments sketch) the ring advances with
// turnstile semantics (§7.2.2): when a pane expires, its power sums are
// subtracted from `retained` — two O(k) vector operations per pane
// transition instead of re-merging the whole window. Backends without Sub
// fall back to an exact re-merge of the surviving live panes whenever a
// pane expires.
//
// Pane indices are absolute (unix nanoseconds / pane width), so rings from
// different keys — and from snapshots — align without any per-ring epoch.
// A ring is only ever touched under its stripe's lock.
//
//lint:guardedby stripe.mu
type paneRing struct {
	slots    []paneSlot
	retained sketch.Serving
	newFn    func() sketch.Serving
	// cur is the highest pane index the ring has advanced to; the live
	// range is (cur-len(slots), cur]. -1 until the first observation.
	cur int64
}

// newPaneRing builds an empty ring for the store's backend and retention.
func (s *Store) newPaneRing() *paneRing {
	r := &paneRing{
		slots:    make([]paneSlot, s.retention),
		retained: s.backend.New(),
		newFn:    s.backend.New,
		cur:      -1,
	}
	for i := range r.slots {
		r.slots[i].idx = -1
	}
	return r
}

// advance expires every pane that falls out of the live range when the ring
// moves forward to pane p. When the summary is a sketch.Subber (moments)
// expiry is the turnstile subtraction: each expiring pane's power sums are
// removed from the rolling retained summary, costing O(min(p-cur,
// retention)) pane transitions, independent of how many observations the
// panes held. Other backends rebuild retained by an exact re-merge of the
// surviving panes.
func (r *paneRing) advance(p int64) {
	if p <= r.cur {
		return
	}
	n := int64(len(r.slots))
	if r.cur < 0 || p-r.cur >= n {
		// Every live pane expires at once; skip the per-pane subtractions
		// and start from a clean ring (also resets any accumulated
		// floating-point drift in the retained sums).
		for i := range r.slots {
			if r.slots[i].idx >= 0 {
				r.slots[i].sk.Reset()
				r.slots[i].idx = -1
			}
		}
		r.retained.Reset()
		r.cur = p
		return
	}
	sub, canSub := r.retained.(sketch.Subber)
	expired := false
	for q := r.cur + 1; q <= p; q++ {
		s := &r.slots[q%n]
		if s.idx >= 0 {
			if canSub {
				// s holds pane q-retention, the one sliding out of the live
				// range. Sub cannot fail here: retained's count is the exact
				// integer-arithmetic sum of the live panes' counts.
				_ = sub.Sub(s.sk)
			}
			s.sk.Reset()
			s.idx = -1
			expired = true
		}
	}
	r.cur = p
	if expired && !canSub {
		// Exact re-merge fallback for backends without turnstile Sub.
		r.retained.Reset()
		for i := range r.slots {
			if r.slots[i].idx >= 0 {
				_ = r.retained.Merge(r.slots[i].sk)
			}
		}
	}
}

// observe records x into pane p, advancing the ring first. Out-of-range
// observations (p older than the live range, or negative — a pre-1970
// timestamp) update nothing here — the caller has already folded them into
// the all-time summary. Callers must clamp p to the clock's current pane:
// the ring trusts p, and advancing on a data-supplied future timestamp
// would expire live panes.
func (r *paneRing) observe(p int64, x float64) {
	if p < 0 {
		return
	}
	r.advance(p)
	if p <= r.cur-int64(len(r.slots)) {
		return // too old: outside the retained range
	}
	s := &r.slots[p%int64(len(r.slots))]
	if s.sk == nil {
		s.sk = r.newFn()
	}
	s.idx = p
	s.sk.Add(x)
	r.retained.Add(x)
}

// restorePane installs a decoded pane summary during Restore. The ring must
// have been advanced to the restore-time pane first so stale snapshot panes
// are dropped rather than resurrected.
func (r *paneRing) restorePane(p int64, sk sketch.Serving) {
	if p > r.cur || p <= r.cur-int64(len(r.slots)) {
		return
	}
	s := &r.slots[p%int64(len(r.slots))]
	s.idx = p
	s.sk = sk
	_ = r.retained.Merge(sk)
}

// liveRange returns the tightest [lo, hi] covering every live pane's
// values, for TightenRange after turnstile subtractions (Sub cannot shrink
// the tracked support). Returns ±Inf when no live pane holds data. Only
// meaningful on moments-backed rings; other backends never subtract, so
// their retained support needs no repair.
func (r *paneRing) liveRange() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := range r.slots {
		if r.slots[i].idx < 0 {
			continue
		}
		raw := sketch.RawMoments(r.slots[i].sk)
		if raw == nil {
			continue
		}
		if raw.Min < lo {
			lo = raw.Min
		}
		if raw.Max > hi {
			hi = raw.Max
		}
	}
	return lo, hi
}

// retainedClone returns an independent copy of the rolling retained summary
// — on moments rings with its support re-tightened from the live panes.
func (r *paneRing) retainedClone() sketch.Serving {
	c := r.retained.Clone()
	if raw := sketch.RawMoments(c); raw != nil {
		lo, hi := r.liveRange()
		// Reset the stale post-Sub support before tightening: TightenRange
		// only ever narrows, and Sub leaves the widest historical range.
		raw.Min, raw.Max = math.Inf(1), math.Inf(-1)
		if !math.IsInf(lo, 1) {
			raw.Min, raw.Max = lo, hi
		}
	}
	return c
}

// retained advances e's ring to now and returns a clone of its rolling
// retained summary. The stripe lock must be held.
func (e *entry) retained(now int64) sketch.Serving {
	e.ring.advance(now)
	return e.ring.retainedClone()
}

// WindowConfig reports the store's pane configuration. enabled is false for
// stores built without WithWindow.
func (s *Store) WindowConfig() (paneWidth time.Duration, retention int, enabled bool) {
	if s.paneWidth <= 0 {
		return 0, 0, false
	}
	return time.Duration(s.paneWidth), s.retention, true
}

// paneIndex maps a wall-clock instant onto an absolute pane index.
func (s *Store) paneIndex(t time.Time) int64 {
	return t.UnixNano() / s.paneWidth
}

// nowPane returns the pane index of the store clock's current instant.
func (s *Store) nowPane() int64 { return s.paneIndex(s.now()) }

// CurrentPane returns the absolute index of the pane containing the store
// clock's now. ok is false on stores without time panes.
func (s *Store) CurrentPane() (int64, bool) {
	if s.paneWidth <= 0 {
		return 0, false
	}
	return s.nowPane(), true
}

// PaneSeries is a dense, time-aligned view of retained panes for one key
// or one prefix rollup: Panes[i] covers [Start+i, Start+i+1) × Width of
// wall-clock time, oldest first. Panes with no data are empty (non-nil)
// sketches. All sketches are independent clones. The full-ring accessors
// (Panes, PanesPrefix) return exactly the store's retention count of
// panes, ending at the pane containing the store clock's now; the range
// accessors return just the requested slice of the ring.
type PaneSeries struct {
	// Start is the absolute pane index of Panes[0] (unix time / Width).
	Start int64
	// Width is the store's pane width.
	Width time.Duration
	// Panes holds one summary per pane of the series' range.
	Panes []sketch.Serving
	// Keys counts the per-key rings merged into the series (1 for a key
	// series, the number of matched keys for a prefix series).
	Keys int
}

// MomentsPanes returns the raw moments view of every pane, or ok=false when
// the series was produced by a non-moments backend. Moment-structure
// consumers (window.ScanMoments, turnstile slides) go through it.
func (ps *PaneSeries) MomentsPanes() ([]*core.Sketch, bool) {
	out := make([]*core.Sketch, len(ps.Panes))
	for i, p := range ps.Panes {
		raw := sketch.RawMoments(p)
		if raw == nil {
			return nil, false
		}
		out[i] = raw
	}
	return out, true
}

// PaneStart returns the wall-clock start of Panes[i].
func (ps *PaneSeries) PaneStart(i int) time.Time {
	return time.Unix(0, (ps.Start+int64(i))*int64(ps.Width))
}

// ringRange returns the absolute pane range of the currently retained
// ring, [now-retention+1, now+1).
func (s *Store) ringRange() (start, end int64) {
	now := s.nowPane()
	return now - int64(s.retention) + 1, now + 1
}

// clipToRing clips an absolute pane range to the retained ring (an empty
// result means the range and the ring do not overlap).
func (s *Store) clipToRing(start, end int64) (int64, int64) {
	lo, hi := s.ringRange()
	if start < lo {
		start = lo
	}
	if end > hi {
		end = hi
	}
	return start, end
}

// emptySeries allocates a dense all-empty series over [start, end).
func (s *Store) emptySeries(start, end int64) *PaneSeries {
	n := end - start
	if n < 0 {
		n = 0
	}
	ps := &PaneSeries{
		Start: start,
		Width: time.Duration(s.paneWidth),
		Panes: make([]sketch.Serving, n),
	}
	for i := range ps.Panes {
		ps.Panes[i] = s.backend.New()
	}
	return ps
}

// fillLocked merges an entry's live panes into the series (the ring is advanced to
// the series end first, expiring anything stale). Slots outside the series
// are skipped: below Start when the ring had already advanced past the
// series end, above the end when observations carried future timestamps
// (clock skew) — those panes become visible once the clock catches up.
// Must hold the stripe lock.
func (ps *PaneSeries) fillLocked(e *entry) {
	if len(ps.Panes) == 0 {
		return
	}
	r := e.ring
	end := ps.Start + int64(len(ps.Panes))
	r.advance(end - 1)
	for i := range r.slots {
		if r.slots[i].idx < ps.Start || r.slots[i].idx >= end {
			continue
		}
		_ = ps.Panes[r.slots[i].idx-ps.Start].Merge(r.slots[i].sk)
	}
}

// Panes returns the dense retained pane series for key — the whole ring,
// ending at the current pane. It returns ErrNoWindow on a store without
// panes and ErrNoKey when the key is absent.
func (s *Store) Panes(key string) (*PaneSeries, error) {
	if s.paneWidth <= 0 {
		return nil, ErrNoWindow
	}
	start, end := s.ringRange()
	return s.PanesRange(key, start, end)
}

// PanesRange is Panes restricted to the absolute pane range [start, end),
// clipped to the retained ring — a trailing-window read of n panes clones
// and merges O(n) sketches instead of O(retention).
//
// Windowed reads stay locked on every store, wait-free or not: they advance
// pane rings in place (expiry is driven by reads as well as writes), which
// is a mutation and cannot run against a shared immutable snapshot.
func (s *Store) PanesRange(key string, start, end int64) (*PaneSeries, error) {
	s.lockReads.Add(1)
	if s.paneWidth <= 0 {
		return nil, ErrNoWindow
	}
	start, end = s.clipToRing(start, end)
	// Cheap existence probe in the published key index before allocating
	// the dense series — a missing-key request must not cost retention
	// sketch allocations. The key is re-checked under the lock; losing it to
	// a concurrent Delete in between is the same outcome as arriving
	// slightly later.
	if _, found := s.lookupPublished(key); !found {
		return nil, ErrNoKey
	}
	ps := s.emptySeries(start, end)
	st := s.stripeFor(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.entries[key]
	if !ok {
		return nil, ErrNoKey
	}
	ps.fillLocked(e)
	ps.Keys = 1
	return ps, nil
}

// PanesPrefix returns the pane-wise rollup series across every key with the
// given prefix — the whole ring, ending at the current pane: Panes[i] is
// the merge of pane i over all matching keys, the time-indexed analogue of
// MergePrefix. Keys merge in MergePrefix's order (ascending within each
// stripe, stripes in order), so the series is a pure function of the data.
func (s *Store) PanesPrefix(ctx context.Context, prefix string) (*PaneSeries, error) {
	if s.paneWidth <= 0 {
		return nil, ErrNoWindow
	}
	start, end := s.ringRange()
	return s.PanesRangePrefix(ctx, prefix, start, end)
}

// PanesRangePrefix is PanesPrefix restricted to the absolute pane range
// [start, end), clipped to the retained ring. Locked on every store — see
// PanesRange.
func (s *Store) PanesRangePrefix(ctx context.Context, prefix string, start, end int64) (*PaneSeries, error) {
	if s.paneWidth <= 0 {
		return nil, ErrNoWindow
	}
	start, end = s.clipToRing(start, end)
	// Cheap existence probe — a published walk that stops at the first key —
	// before allocating the dense series: a request for a prefix matching
	// nothing (attacker-reachable over HTTP) must not cost a retention-sized
	// allocation, and allocating mid-sweep would hold a stripe lock across it.
	if err := s.walk(ctx, prefix, false, stopWalk); !errors.Is(err, errStopWalk) {
		if err == nil {
			err = ErrNoKey
		}
		return nil, err
	}
	ps := s.emptySeries(start, end)
	err := s.walk(ctx, prefix, true, func(_ string, e *entry) error {
		ps.fillLocked(e)
		ps.Keys++
		return nil
	})
	if err != nil {
		return nil, err
	}
	if ps.Keys == 0 {
		return nil, ErrNoKey
	}
	return ps, nil
}

// errStopWalk ends a walk at its first key; walk hands it back.
var errStopWalk = errors.New("shard: walk stopped")

func stopWalk(string, *entry) error { return errStopWalk }

// Retained returns a clone of the rolling retained summary for key — the
// sum of every live pane. On the moments backend it is maintained
// incrementally by turnstile Sub on expiry, so this is O(k) regardless of
// retention, and its support is re-tightened from the live panes before
// returning; backends without Sub keep it exact by re-merging live panes at
// expiry.
func (s *Store) Retained(key string) (sketch.Serving, error) {
	s.lockReads.Add(1)
	if s.paneWidth <= 0 {
		return nil, ErrNoWindow
	}
	now := s.nowPane()
	st := s.stripeFor(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.entries[key]
	if !ok {
		return nil, ErrNoKey
	}
	return e.retained(now), nil
}

// RetainedPrefix merges the rolling retained summaries of every key with
// the given prefix — the windowed analogue of MergePrefixContext, costing
// one merge per matched key rather than one per (key × pane), in the
// store's one key order. It returns the merged summary and the number of
// keys merged.
func (s *Store) RetainedPrefix(ctx context.Context, prefix string) (sketch.Serving, int, error) {
	if s.paneWidth <= 0 {
		return nil, 0, ErrNoWindow
	}
	now := s.nowPane()
	out := s.backend.New()
	keys := 0
	err := s.walk(ctx, prefix, true, func(_ string, e *entry) error {
		if err := out.Merge(e.retained(now)); err != nil {
			return err
		}
		keys++
		return nil
	})
	if err != nil {
		return nil, keys, err
	}
	return out, keys, nil
}

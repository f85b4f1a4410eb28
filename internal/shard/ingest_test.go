package shard

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/sketch"
)

// exactValue maps an index onto a value whose moments accumulate exactly in
// float64: small non-positive integers (which skip the irrational log-power
// sums entirely) plus 1.0 (whose log powers are exactly zero). With exact
// arithmetic every power sum is order-independent, so buffered ingest —
// whatever interleaving of local adds and merges it takes — must land on
// byte-identical sketches. |x| ≤ 8 keeps Σ x^10 far below 2^53 for the
// observation counts used here.
func exactValue(i int) float64 {
	v := i % 10
	if v == 9 {
		return 1
	}
	return -float64(v % 9)
}

// requireSameMoments asserts two stores hold byte-identical raw moments for
// every key in keys, including pane series and retained summaries on
// windowed stores.
func requireSameMoments(t *testing.T, got, want *Store, keys []string) {
	t.Helper()
	if g, w := got.TotalCount(), want.TotalCount(); g != w {
		t.Fatalf("TotalCount() = %v, want %v", g, w)
	}
	for _, key := range keys {
		g, gok := got.Sketch(key)
		w, wok := want.Sketch(key)
		if gok != wok {
			t.Fatalf("key %s: presence %v vs oracle %v", key, gok, wok)
		}
		if !gok {
			continue
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("key %s: buffered moments %+v != oracle %+v", key, g, w)
		}
		if _, _, windowed := got.WindowConfig(); !windowed {
			continue
		}
		gp, gerr := got.Panes(key)
		wp, werr := want.Panes(key)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("key %s: Panes err %v vs oracle %v", key, gerr, werr)
		}
		if gerr == nil {
			gm, _ := gp.MomentsPanes()
			wm, _ := wp.MomentsPanes()
			if !reflect.DeepEqual(gm, wm) {
				t.Errorf("key %s: buffered pane series differ from oracle", key)
			}
		}
		gr, gerr := got.Retained(key)
		wr, werr := want.Retained(key)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("key %s: Retained err %v vs oracle %v", key, gerr, werr)
		}
		if gerr == nil && !reflect.DeepEqual(sketch.RawMoments(gr), sketch.RawMoments(wr)) {
			t.Errorf("key %s: buffered retained differs from oracle", key)
		}
	}
}

// TestBufferedIngestOracle: N goroutines ingesting through thread-local
// handles must land on byte-identical per-key moments to a single-threaded
// oracle ingesting the same observations directly — the no-lost-no-
// duplicated-no-corrupted pin for the buffered path. Runs under -race in
// CI.
func TestBufferedIngestOracle(t *testing.T) {
	const (
		goroutines = 8
		perG       = 5000
		numKeys    = 13
	)
	keys := make([]string, numKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("svc.k%d", i)
	}

	s := New(WithShards(8))
	f, err := NewFlusher(s, FlusherConfig{FlushSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := f.Handle()
			defer h.Close()
			for i := 0; i < perG; i++ {
				j := g*perG + i
				h.Add(keys[j%numKeys], exactValue(j))
			}
		}(g)
	}
	wg.Wait()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	oracle := New(WithShards(8))
	for j := 0; j < goroutines*perG; j++ {
		oracle.Add(keys[j%numKeys], exactValue(j))
	}
	requireSameMoments(t, s, oracle, keys)
}

// TestBufferedIngestOracleWindowed is the windowed variant: timestamped
// ingest across pane boundaries — including future timestamps that clamp to
// the current pane and ancient ones that only reach the all-time sketch —
// with a mid-stream Snapshot/Restore cycle racing the writers. Pane series,
// retained summaries and all-time sketches must all match the oracle
// byte-for-byte after the final flush.
func TestBufferedIngestOracleWindowed(t *testing.T) {
	const (
		goroutines = 6
		perG       = 4000
		numKeys    = 7
		retention  = 16
	)
	t0 := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return t0 }
	keys := make([]string, numKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("win.k%d", i)
	}
	// Timestamps sweep panes well behind the retained range up to well past
	// "now" (clamped): pane width 1s, offsets in [-64, +8) seconds.
	at := func(j int) time.Time { return t0.Add(time.Duration(j%72-64) * time.Second) }

	s := New(WithShards(8), WithWindow(time.Second, retention), WithClock(clock))
	f, err := NewFlusher(s, FlusherConfig{FlushSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := f.Handle()
			defer h.Close()
			for i := 0; i < perG; i++ {
				j := g*perG + i
				h.AddAt(keys[j%numKeys], exactValue(j), at(j))
			}
		}(g)
	}

	// Mid-stream snapshot: must drain the pending buffers (never lose a
	// buffered observation), decode cleanly, and leave the writers
	// unperturbed.
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatalf("mid-stream snapshot: %v", err)
	}
	mid := New(WithShards(4), WithWindow(time.Second, retention), WithClock(clock))
	if err := mid.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("mid-stream restore: %v", err)
	}
	if got := mid.TotalCount(); got > float64(goroutines*perG) {
		t.Fatalf("mid-stream snapshot holds %v observations, more than ever ingested", got)
	}

	wg.Wait()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	oracle := New(WithShards(8), WithWindow(time.Second, retention), WithClock(clock))
	for j := 0; j < goroutines*perG; j++ {
		oracle.AddAt(keys[j%numKeys], exactValue(j), at(j))
	}
	requireSameMoments(t, s, oracle, keys)
}

// TestBufferedIngestNonExactBackend: backends without ExactMerge must fall
// back to batched striped writes — observation counts stay exact and
// quantiles sane, with no accumulator-merge shortcuts that would distort
// the summary's insertion-order-dependent state.
func TestBufferedIngestNonExactBackend(t *testing.T) {
	s := New(WithShards(4), WithBackend(sketch.Merge12Backend(64)))
	f, err := NewFlusher(s, FlusherConfig{FlushSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	h := f.Handle()
	const n = 2000
	for i := 0; i < n; i++ {
		h.Add("m12.key", float64(i))
	}
	h.Close()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.Count("m12.key"); got != n {
		t.Fatalf("Count = %v, want %d", got, n)
	}
	q := quantileOf(t, s, "m12.key", 0.5)
	if q < n/4 || q > 3*n/4 {
		t.Errorf("median %v wildly off for 0..%d", q, n-1)
	}
}

// TestFlusherTriggers pins the three flush triggers: size, time, explicit.
func TestFlusherTriggers(t *testing.T) {
	t.Run("size", func(t *testing.T) {
		s := New(WithShards(2))
		f, err := NewFlusher(s, FlusherConfig{FlushSize: 4, Stale: true})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		h := f.Handle()
		defer h.Close()
		for i := 0; i < 3; i++ {
			h.Add("k", 1)
		}
		// Stale mode: reads do not drain, so the store must not see the 3
		// buffered observations yet.
		if got := s.Count("k"); got != 0 {
			t.Fatalf("before size trigger: Count = %v, want 0", got)
		}
		h.Add("k", 1) // 4th observation trips FlushSize
		if got := s.Count("k"); got != 4 {
			t.Fatalf("after size trigger: Count = %v, want 4", got)
		}
		if got := f.Pending(); got != 0 {
			t.Fatalf("Pending = %d after auto-flush", got)
		}
	})
	t.Run("interval", func(t *testing.T) {
		s := New(WithShards(2))
		f, err := NewFlusher(s, FlusherConfig{FlushSize: 1 << 20, FlushInterval: 5 * time.Millisecond, Stale: true})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		h := f.Handle()
		defer h.Close()
		h.Add("k", 1)
		deadline := time.Now().Add(5 * time.Second)
		for s.Count("k") != 1 {
			if time.Now().After(deadline) {
				t.Fatal("interval trigger never flushed the buffered observation")
			}
			time.Sleep(time.Millisecond)
		}
	})
	t.Run("explicit", func(t *testing.T) {
		s := New(WithShards(2))
		f, err := NewFlusher(s, FlusherConfig{FlushSize: 1 << 20, Stale: true})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		h := f.Handle()
		defer h.Close()
		h.Add("k", 2)
		if got := h.Flush(); got != 1 {
			t.Fatalf("Flush applied %d, want 1", got)
		}
		if got := s.Count("k"); got != 1 {
			t.Fatalf("Count = %v, want 1", got)
		}
	})
}

// TestFlusherReadBarrier: with default (non-stale) configuration every read
// path must observe buffered observations — read-your-writes across the
// local buffers — and the drain must bump mutation versions exactly like a
// direct write so solve caches invalidate.
func TestFlusherReadBarrier(t *testing.T) {
	s := New(WithShards(2))
	f, err := NewFlusher(s, FlusherConfig{FlushSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h := f.Handle()
	defer h.Close()

	v0 := s.Version()
	h.Add("barrier.k", 7)
	if got := s.Count("barrier.k"); got != 1 {
		t.Fatalf("barriered Count = %v, want 1 (read did not drain the buffer)", got)
	}
	if v1 := s.Version(); v1 <= v0 {
		t.Fatalf("Version %d -> %d: drain did not bump mutation version", v0, v1)
	}
	kv0, ok := s.KeyVersion("barrier.k")
	if !ok {
		t.Fatal("key missing after drain")
	}
	h.Add("barrier.k", 8)
	// KeyVersion is itself barriered: reading it drains and re-stamps.
	if kv1, _ := s.KeyVersion("barrier.k"); kv1 <= kv0 {
		t.Fatalf("KeyVersion %d -> %d: drain did not bump key version", kv0, kv1)
	}
	if got := f.Stats().Drains; got == 0 {
		t.Error("Stats().Drains = 0, want > 0 after barriered reads")
	}
}

// TestFlusherStaleReads: the opt-in bounded-staleness mode must skip read
// barriers (reads see only flushed state) while Snapshot still drains —
// staleness bounds visibility, never durability.
func TestFlusherStaleReads(t *testing.T) {
	s := New(WithShards(2))
	f, err := NewFlusher(s, FlusherConfig{FlushSize: 1 << 20, Stale: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h := f.Handle()
	defer h.Close()

	h.Add("stale.k", 5)
	if got := s.Count("stale.k"); got != 0 {
		t.Fatalf("stale Count = %v, want 0 (read must not drain)", got)
	}
	if got := f.Pending(); got != 1 {
		t.Fatalf("Pending = %d, want 1", got)
	}

	// Snapshot drains even in stale mode: restoring it elsewhere must
	// surface the buffered observation.
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r := New(WithShards(2))
	if err := r.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := r.Count("stale.k"); got != 1 {
		t.Fatalf("restored Count = %v, want 1 (snapshot dropped a buffered observation)", got)
	}
}

// TestSnapshotNeverDropsBufferedObservations is the regression pin for the
// snapshot-with-pending-buffers bug class: a snapshot+restore cycle taken
// at any moment must never lose observations that ingest had already
// buffered, in either staleness mode.
func TestSnapshotNeverDropsBufferedObservations(t *testing.T) {
	for _, stale := range []bool{false, true} {
		t.Run(fmt.Sprintf("stale=%v", stale), func(t *testing.T) {
			s := New(WithShards(4), WithWindow(time.Second, 8), WithClock(func() time.Time { return time.Unix(1_700_000_000, 0) }))
			f, err := NewFlusher(s, FlusherConfig{FlushSize: 1 << 20, Stale: stale})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			h := f.Handle()
			defer h.Close()
			const n = 137
			for i := 0; i < n; i++ {
				h.AddAt(fmt.Sprintf("snap.k%d", i%5), float64(i%7), time.Unix(1_700_000_000-int64(i%12), 0))
			}
			var buf bytes.Buffer
			if err := s.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			r := New(WithShards(4), WithWindow(time.Second, 8), WithClock(func() time.Time { return time.Unix(1_700_000_000, 0) }))
			if err := r.Restore(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
			if got := r.TotalCount(); got != n {
				t.Fatalf("restored TotalCount = %v, want %d (snapshot dropped buffered observations)", got, n)
			}
		})
	}
}

// TestFlusherMutationOrdering: Delete and Reset drain pending buffers
// first, so observations buffered before the mutation die with it instead
// of resurrecting the key afterwards.
func TestFlusherMutationOrdering(t *testing.T) {
	s := New(WithShards(2))
	f, err := NewFlusher(s, FlusherConfig{FlushSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h := f.Handle()
	defer h.Close()

	h.Add("mut.k", 1)
	if !s.Delete("mut.k") {
		t.Fatal("Delete did not find the buffered-then-drained key")
	}
	if _, ok := s.Summary("mut.k"); ok {
		t.Fatal("key resurrected after Delete")
	}

	h.Add("mut.k", 2)
	s.Reset()
	if got := s.TotalCount(); got != 0 {
		t.Fatalf("TotalCount = %v after Reset, want 0", got)
	}
	if got := f.Pending(); got != 0 {
		t.Fatalf("Pending = %d after Reset, want 0", got)
	}
}

// TestFlusherSingleAttachment: a store accepts one flusher at a time;
// closing it frees the slot.
func TestFlusherSingleAttachment(t *testing.T) {
	s := New(WithShards(2))
	f, err := NewFlusher(s, FlusherConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFlusher(s, FlusherConfig{}); err == nil {
		t.Fatal("second flusher attached to the same store")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f2, err := NewFlusher(s, FlusherConfig{})
	if err != nil {
		t.Fatalf("attach after Close: %v", err)
	}
	f2.Close()
}

// TestLocalDiscard: a discarded handle drops its buffered observations
// without touching the store, and stays reusable.
func TestLocalDiscard(t *testing.T) {
	s := New(WithShards(2), WithWindow(time.Second, 4), WithClock(func() time.Time { return time.Unix(1_700_000_000, 0) }))
	f, err := NewFlusher(s, FlusherConfig{FlushSize: 1 << 20, Stale: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h := f.Handle()
	defer h.Close()

	h.AddAt("d.k", 3, time.Unix(1_700_000_000, 0))
	h.Discard()
	if got := h.Len(); got != 0 {
		t.Fatalf("Len = %d after Discard", got)
	}
	h.Flush()
	if got := s.TotalCount(); got != 0 {
		t.Fatalf("TotalCount = %v, want 0 (discarded observation reached the store)", got)
	}
	// The handle must still work after a discard.
	h.AddAt("d.k", 4, time.Unix(1_700_000_000, 0))
	h.Flush()
	if got := s.Count("d.k"); got != 1 {
		t.Fatalf("Count = %v, want 1", got)
	}
}

// TestAbsorbBatch: the request-scoped validation seam — a Batch absorbed
// into a handle reaches the store on flush, and a Discarded batch never
// touches the handle.
func TestAbsorbBatch(t *testing.T) {
	s := New(WithShards(2))
	f, err := NewFlusher(s, FlusherConfig{FlushSize: 1 << 20, Stale: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h := f.Handle()
	defer h.Close()

	b := s.NewBatch()
	b.Add("ab.k", 1)
	b.Add("ab.k2", 2)
	if got := h.AbsorbBatch(b); got != 2 {
		t.Fatalf("AbsorbBatch = %d, want 2", got)
	}
	if got := b.Len(); got != 0 {
		t.Fatalf("batch Len = %d after absorb, want 0", got)
	}
	bad := s.NewBatch()
	bad.Add("ab.k3", 3)
	bad.Discard()
	if got := h.AbsorbBatch(bad); got != 0 {
		t.Fatalf("AbsorbBatch of discarded batch = %d, want 0", got)
	}
	h.Flush()
	if got := s.TotalCount(); got != 2 {
		t.Fatalf("TotalCount = %v, want 2", got)
	}
	if _, ok := s.Summary("ab.k3"); ok {
		t.Fatal("discarded observation reached the store")
	}
}

// TestFlushDoesNotResurrectDeletedKeys is the regression pin for phantom
// key resurrection: a handle retains reset-to-empty accumulators across
// flushes for reuse, and a later flush must skip them — otherwise a flush
// touching only other keys re-creates entries for keys Delete()d since the
// last flush, as empty phantoms visible to Summary/Len/Keys.
func TestFlushDoesNotResurrectDeletedKeys(t *testing.T) {
	s := New(WithShards(2))
	f, err := NewFlusher(s, FlusherConfig{FlushSize: 1 << 20, Stale: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h := f.Handle()
	defer h.Close()

	h.Add("res.k", 1)
	h.Add("res.other", 1)
	h.Flush()
	if !s.Delete("res.k") {
		t.Fatal("Delete did not find the flushed key")
	}

	h.Add("res.other", 2)
	h.Flush()
	if _, ok := s.Summary("res.k"); ok {
		t.Fatal("deleted key resurrected by a flush with no new observations for it")
	}
	if got := s.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
}

// TestFlushOnlyReversionsTouchedKeys: a flush must re-version exactly the
// keys that received new observations since the last flush. Re-stamping
// every retained key would spuriously invalidate solve-cache entries keyed
// on untouched keys' versions.
func TestFlushOnlyReversionsTouchedKeys(t *testing.T) {
	s := New(WithShards(2))
	f, err := NewFlusher(s, FlusherConfig{FlushSize: 1 << 20, Stale: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h := f.Handle()
	defer h.Close()

	h.Add("ver.a", 1)
	h.Add("ver.b", 1)
	h.Flush()
	va0, ok := s.KeyVersion("ver.a")
	if !ok {
		t.Fatal("ver.a missing after flush")
	}
	vb0, ok := s.KeyVersion("ver.b")
	if !ok {
		t.Fatal("ver.b missing after flush")
	}

	h.Add("ver.a", 2)
	h.Flush()
	if va1, _ := s.KeyVersion("ver.a"); va1 <= va0 {
		t.Errorf("KeyVersion(ver.a) %d -> %d: touched key not re-versioned", va0, va1)
	}
	if vb1, _ := s.KeyVersion("ver.b"); vb1 != vb0 {
		t.Errorf("KeyVersion(ver.b) %d -> %d: untouched key re-versioned by flush", vb0, vb1)
	}
}

// TestFallbackBufferedStampsAtAdd: on backends without ExactMerge the
// buffered path falls back to a Batch, which stamps zero timestamps at
// flush — the Local must resolve "now" at Add instead, so a long-buffered
// observation keeps its true arrival pane (the documented contract shared
// with the exact-merge path).
func TestFallbackBufferedStampsAtAdd(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	now := t0
	s := New(WithShards(2), WithBackend(sketch.Merge12Backend(64)),
		WithWindow(time.Second, 16), WithClock(func() time.Time { return now }))
	f, err := NewFlusher(s, FlusherConfig{FlushSize: 1 << 20, Stale: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h := f.Handle()
	defer h.Close()

	h.Add("fb.k", 1) // zero timestamp: must stamp at the Add instant, t0
	now = t0.Add(5 * time.Second)
	h.Flush()

	ps, err := s.Panes("fb.k")
	if err != nil {
		t.Fatal(err)
	}
	landed := int64(-1)
	for i, p := range ps.Panes {
		if p.Count() > 0 {
			landed = ps.Start + int64(i)
		}
	}
	if want := t0.Unix(); landed != want {
		t.Fatalf("observation landed in pane %d, want %d (stamped at flush, not Add)", landed, want)
	}
}

// TestHandleAfterClose: a request racing the Flusher's Close may still ask
// for a handle; it must get a working, unregistered one — no panic — and
// the handle's own Close must still flush its observations into the store.
func TestHandleAfterClose(t *testing.T) {
	s := New(WithShards(2))
	f, err := NewFlusher(s, FlusherConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	h := f.Handle()
	h.Add("late.k", 1)
	h.Close()
	if got := s.Count("late.k"); got != 1 {
		t.Fatalf("Count = %v, want 1 (post-Close handle lost its observation)", got)
	}
	if got := f.Stats().Handles; got != 0 {
		t.Fatalf("Stats().Handles = %d, want 0 (post-Close handle leaked a registration)", got)
	}
}

// BenchmarkBackendIngestParallel measures multi-goroutine ingest throughput
// on the moments backend: the direct striped path (per-observation work
// under stripe locks) against the thread-local buffered path (local O(k)
// accumulation, one merge per touched key per flush). The buffered path is
// the multi-core saturation story — on an N-core box it should scale
// near-linearly where the direct path serializes on stripes. obs/s is the
// headline metric.
func BenchmarkBackendIngestParallel(b *testing.B) {
	const numKeys = 256
	keys := make([]string, numKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench.key%d", i)
	}
	for _, mode := range []string{"direct", "buffered"} {
		for _, g := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", mode, g), func(b *testing.B) {
				s := New(WithShards(16))
				var f *Flusher
				if mode == "buffered" {
					var err error
					f, err = NewFlusher(s, FlusherConfig{FlushSize: 4096})
					if err != nil {
						b.Fatal(err)
					}
				}
				per := (b.N + g - 1) / g
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < g; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						base := w * per
						if mode == "buffered" {
							h := f.Handle()
							for i := 0; i < per; i++ {
								j := base + i
								h.Add(keys[j&(numKeys-1)], float64(j%997))
							}
							h.Close()
							return
						}
						batch := s.NewBatch()
						for i := 0; i < per; i++ {
							j := base + i
							batch.Add(keys[j&(numKeys-1)], float64(j%997))
							if batch.Len() == 1024 {
								batch.Flush()
							}
						}
						batch.Flush()
					}(w)
				}
				wg.Wait()
				b.StopTimer()
				b.ReportMetric(float64(g*per)/b.Elapsed().Seconds(), "obs/s")
				if f != nil {
					f.Close()
				}
				if got, want := s.TotalCount(), float64(g*per); got != want {
					b.Fatalf("TotalCount = %v, want %v", got, want)
				}
			})
		}
	}
}

// sanity guard for exactValue: all magnitudes stay ≤ 8 so order-10 power
// sums are exact at the observation counts above.
func TestExactValueRange(t *testing.T) {
	for i := 0; i < 1000; i++ {
		if v := exactValue(i); math.Abs(v) > 8 || v != math.Trunc(v) {
			t.Fatalf("exactValue(%d) = %v outside the exact-arithmetic envelope", i, v)
		}
	}
}

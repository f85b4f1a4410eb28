package shard

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sketch"
)

// marshalOf marshals a summary through the store's backend codec, failing
// the test on error — the byte-level equality primitive for the wait-free
// equivalence suites.
func marshalOf(t *testing.T, s *Store, sum sketch.Serving) []byte {
	t.Helper()
	b, err := s.backend.Marshal(sum)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// lockedMoments is the twin suites' locked reference: a moments store that
// publishes nothing, so every read takes the stripe locks — the path
// non-moments backends serve from.
func lockedMoments() Option { return func(c *storeConfig) { c.locked = true } }

// assertReadEquivalence asserts every timeless read API of a (wait-free)
// and b (locked twin) answers byte-identically: same keys, same counts,
// same versions, same marshal bytes for summaries, matches and rollups.
// compareVersions is dropped after a Restore: re-stamping walks each
// stripe's map in iteration order, so twin stores assign different (but
// individually still monotonic) versions to the same keys.
func assertReadEquivalence(t *testing.T, label string, a, b *Store, compareVersions bool) {
	t.Helper()
	if got, want := a.Len(), b.Len(); got != want {
		t.Fatalf("%s: Len = %d, locked twin = %d", label, got, want)
	}
	if got, want := a.TotalCount(), b.TotalCount(); got != want {
		t.Fatalf("%s: TotalCount = %v, locked twin = %v", label, got, want)
	}
	keysA, keysB := a.Keys(""), b.Keys("")
	if len(keysA) != len(keysB) {
		t.Fatalf("%s: Keys len %d, locked twin %d", label, len(keysA), len(keysB))
	}
	for i := range keysA {
		if keysA[i] != keysB[i] {
			t.Fatalf("%s: Keys[%d] = %q, locked twin %q", label, i, keysA[i], keysB[i])
		}
	}
	for _, k := range keysA {
		sa, oka := a.Summary(k)
		sb, okb := b.Summary(k)
		if oka != okb {
			t.Fatalf("%s: Summary(%q) ok=%v, locked twin %v", label, k, oka, okb)
		}
		if !bytes.Equal(marshalOf(t, a, sa), marshalOf(t, b, sb)) {
			t.Fatalf("%s: Summary(%q) bytes differ from locked twin", label, k)
		}
		if ca, cb := a.Count(k), b.Count(k); ca != cb {
			t.Fatalf("%s: Count(%q) = %v, locked twin = %v", label, k, ca, cb)
		}
		va, oka := a.KeyVersion(k)
		vb, okb := b.KeyVersion(k)
		if oka != okb || (compareVersions && va != vb) {
			t.Fatalf("%s: KeyVersion(%q) = (%d,%v), locked twin (%d,%v)", label, k, va, oka, vb, okb)
		}
	}
	for _, prefix := range []string{"", "svc.", "svc.a", "other.", "absent."} {
		ma, mb := a.Match(prefix), b.Match(prefix)
		if len(ma) != len(mb) {
			t.Fatalf("%s: Match(%q) len %d, locked twin %d", label, prefix, len(ma), len(mb))
		}
		for i := range ma {
			if ma[i].Key != mb[i].Key {
				t.Fatalf("%s: Match(%q)[%d] key %q, locked twin %q", label, prefix, i, ma[i].Key, mb[i].Key)
			}
			if !bytes.Equal(marshalOf(t, a, ma[i].Summary), marshalOf(t, b, mb[i].Summary)) {
				t.Fatalf("%s: Match(%q)[%d] bytes differ from locked twin", label, prefix, i)
			}
		}
		ra, na, err := a.MergePrefixContext(context.Background(), prefix)
		if err != nil {
			t.Fatal(err)
		}
		rb, nb, err := b.MergePrefixContext(context.Background(), prefix)
		if err != nil {
			t.Fatal(err)
		}
		if na != nb {
			t.Fatalf("%s: MergePrefix(%q) merged %d, locked twin %d", label, prefix, na, nb)
		}
		if !bytes.Equal(marshalOf(t, a, ra), marshalOf(t, b, rb)) {
			t.Fatalf("%s: MergePrefix(%q) bytes differ from locked twin", label, prefix)
		}
	}
}

// applyTwin drives one seeded mutation op against both stores identically:
// direct adds, batch flushes, deletes and resets — every state the wait-free
// store passes through, the locked twin passes through too, in the same
// order, so byte-identical reads are the exact bar.
func applyTwin(rng *rand.Rand, a, b *Store, ba, bb *Batch, keys []string) {
	k := keys[rng.Intn(len(keys))]
	x := float64(rng.Intn(1000)) / 7.0
	switch p := rng.Float64(); {
	case p < 0.60:
		a.Add(k, x)
		b.Add(k, x)
	case p < 0.85:
		ba.Add(k, x)
		bb.Add(k, x)
		if rng.Float64() < 0.3 {
			ba.Flush()
			bb.Flush()
		}
	case p < 0.95:
		a.Delete(k)
		b.Delete(k)
	default:
		a.Reset()
		b.Reset()
	}
}

// TestWaitFreeEquivalence is the core determinism suite: a wait-free store
// and a locked twin (lockedMoments) fed an identical seeded op stream must answer
// every read API byte-identically at every checkpoint, through a snapshot/
// restore round-trip, and after further mutation past the restore.
func TestWaitFreeEquivalence(t *testing.T) {
	seed := *propSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("seed: %d (replay with -shard.seed=%d)", seed, seed)
	rng := rand.New(rand.NewSource(seed))

	keys := []string{"svc.a", "svc.b", "svc.api.get", "svc.api.put", "other.x", "other.y"}
	a := New(WithShards(4))
	b := New(WithShards(4), lockedMoments())
	if !a.ReadStats().WaitFree {
		t.Fatal("moments store should serve wait-free reads by default")
	}
	ba, bb := a.NewBatch(), b.NewBatch()

	for round := 0; round < 40; round++ {
		for op := 0; op < 25; op++ {
			applyTwin(rng, a, b, ba, bb, keys)
		}
		ba.Flush()
		bb.Flush()
		assertReadEquivalence(t, fmt.Sprintf("round %d", round), a, b, true)
	}
	// The suite compares against a store that is really locked: the
	// locked reference never published through all of the above.
	if st := b.ReadStats(); st.WaitFree || st.Publishes != 0 {
		t.Fatalf("locked reference store published: %+v", st)
	}

	// Snapshot the wait-free store, restore into both fresh twins: restored
	// entries must be published (reads work) and byte-identical again.
	var snap bytes.Buffer
	if err := a.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	a2 := New(WithShards(4))
	b2 := New(WithShards(4), lockedMoments())
	if err := a2.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := b2.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	assertReadEquivalence(t, "after restore", a2, b2, false)
	if got, want := a2.Len(), a.Len(); got != want {
		t.Fatalf("restored Len = %d, source = %d", got, want)
	}
	// Restore over a non-empty store: gauges and the published index must
	// track the replacement, not accumulate on top of the old contents.
	if err := a.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	assertReadEquivalence(t, "after in-place restore", a, b, false)

	// Keep mutating past the restore: publication must have resumed on the
	// restored entries' re-stamped versions.
	ba2, bb2 := a2.NewBatch(), b2.NewBatch()
	for op := 0; op < 200; op++ {
		applyTwin(rng, a2, b2, ba2, bb2, keys)
	}
	ba2.Flush()
	bb2.Flush()
	assertReadEquivalence(t, "after restore + mutation", a2, b2, false)
}

// TestWaitFreeEquivalenceWindowed runs the twin-store equivalence over a
// windowed store: the timeless reads stay byte-identical while pane rings
// advance underneath, and the locked windowed reads (Retained) agree too.
func TestWaitFreeEquivalenceWindowed(t *testing.T) {
	seed := *propSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("seed: %d (replay with -shard.seed=%d)", seed, seed)
	rng := rand.New(rand.NewSource(seed))

	base := time.Unix(1_700_000_000, 0)
	var tick atomic.Int64
	clock := func() time.Time { return base.Add(time.Duration(tick.Load()) * time.Second) }
	a := New(WithShards(4), WithWindow(10*time.Second, 6), WithClock(clock))
	b := New(WithShards(4), WithWindow(10*time.Second, 6), WithClock(clock), lockedMoments())

	keys := []string{"svc.a", "svc.b", "other.x"}
	ba, bb := a.NewBatch(), b.NewBatch()
	for round := 0; round < 30; round++ {
		for op := 0; op < 20; op++ {
			applyTwin(rng, a, b, ba, bb, keys)
		}
		ba.Flush()
		bb.Flush()
		tick.Add(int64(rng.Intn(8)))
		assertReadEquivalence(t, fmt.Sprintf("windowed round %d", round), a, b, true)
		for _, k := range a.Keys("") {
			ra, errA := a.Retained(k)
			rb, errB := b.Retained(k)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("round %d: Retained(%q) err %v, locked twin %v", round, k, errA, errB)
			}
			if errA == nil && !bytes.Equal(marshalOf(t, a, ra), marshalOf(t, b, rb)) {
				t.Fatalf("round %d: Retained(%q) bytes differ from locked twin", round, k)
			}
		}
	}

	// Windowed snapshot round-trip preserves equivalence.
	var snap bytes.Buffer
	if err := a.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	a2 := New(WithShards(4), WithWindow(10*time.Second, 6), WithClock(clock))
	b2 := New(WithShards(4), WithWindow(10*time.Second, 6), WithClock(clock), lockedMoments())
	if err := a2.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := b2.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	assertReadEquivalence(t, "windowed after restore", a2, b2, false)
}

// TestGaugesMatchAudit cross-checks the lock-free Len/TotalCount gauges
// against the locked full sweep after a seeded mix of every mutation kind —
// direct, batch flushes, delete, reset and restore. All deltas are
// integral, so the match is exact, not approximate.
func TestGaugesMatchAudit(t *testing.T) {
	seed := *propSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("seed: %d (replay with -shard.seed=%d)", seed, seed)
	rng := rand.New(rand.NewSource(seed))

	for _, locked := range []bool{false, true} {
		name := "waitfree"
		opts := []Option{WithShards(4)}
		if locked {
			name = "locked"
			opts = append(opts, lockedMoments())
		}
		t.Run(name, func(t *testing.T) {
			s := New(opts...)
			batch := s.NewBatch()
			keys := []string{"g.a", "g.b", "g.c", "g.d", "g.e"}

			checkpoint := func(stage string) {
				t.Helper()
				wantKeys, wantObs := s.AuditCounts()
				if got := s.Len(); got != wantKeys {
					t.Fatalf("%s: Len gauge = %d, audit sweep = %d", stage, got, wantKeys)
				}
				if got := s.TotalCount(); got != wantObs {
					t.Fatalf("%s: TotalCount gauge = %v, audit sweep = %v", stage, got, wantObs)
				}
			}

			for i := 0; i < 1500; i++ {
				k := keys[rng.Intn(len(keys))]
				switch p := rng.Float64(); {
				case p < 0.40:
					s.Add(k, rng.Float64())
				case p < 0.85:
					batch.Add(k, rng.Float64())
					if rng.Float64() < 0.4 {
						batch.Flush()
					}
				case p < 0.95:
					s.Delete(k)
				default:
					s.Reset()
				}
				if i%250 == 249 {
					batch.Flush()
					checkpoint(fmt.Sprintf("op %d", i))
				}
			}
			batch.Flush()
			checkpoint("final")

			var snap bytes.Buffer
			if err := s.Snapshot(&snap); err != nil {
				t.Fatal(err)
			}
			if err := s.Restore(bytes.NewReader(snap.Bytes())); err != nil {
				t.Fatal(err)
			}
			checkpoint("after in-place restore")

			s2 := New(opts...)
			s2.Add("pre.existing", 1)
			if err := s2.Restore(bytes.NewReader(snap.Bytes())); err != nil {
				t.Fatal(err)
			}
			wantKeys, wantObs := s2.AuditCounts()
			if got := s2.Len(); got != wantKeys {
				t.Fatalf("restore-over-nonempty: Len gauge = %d, audit = %d", got, wantKeys)
			}
			if got := s2.TotalCount(); got != wantObs {
				t.Fatalf("restore-over-nonempty: TotalCount gauge = %v, audit = %v", got, wantObs)
			}
		})
	}
}

// TestPublishedInvariant walks every stripe after a seeded op mix and
// asserts the publication protocol's structural invariant: every entry
// reachable from the published index has a non-nil snapshot whose version
// matches the live entry and whose bytes equal the live sketch — i.e. a
// (nil, true) lookup is impossible by construction, and published state
// never lags a committed write.
func TestPublishedInvariant(t *testing.T) {
	seed := *propSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("seed: %d (replay with -shard.seed=%d)", seed, seed)
	rng := rand.New(rand.NewSource(seed))

	s := New(WithShards(4))
	a := New(WithShards(4), lockedMoments())
	ba, bb := s.NewBatch(), a.NewBatch()
	keys := []string{"inv.a", "inv.b", "inv.c", "inv.d"}
	for op := 0; op < 2000; op++ {
		applyTwin(rng, s, a, ba, bb, keys)
	}
	ba.Flush()

	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		ix := st.index.Load()
		if ix == nil {
			if len(st.entries) != 0 {
				st.mu.Unlock()
				t.Fatalf("stripe %d: %d entries but no published index", i, len(st.entries))
			}
			st.mu.Unlock()
			continue
		}
		if len(ix.keys) != len(st.entries) {
			st.mu.Unlock()
			t.Fatalf("stripe %d: published index has %d keys, map has %d", i, len(ix.keys), len(st.entries))
		}
		for j, k := range ix.keys {
			e := st.entries[k]
			if e == nil || ix.entries[j] != e {
				st.mu.Unlock()
				t.Fatalf("stripe %d: published index entry %q does not match the map", i, k)
			}
			p := e.pub.Load()
			if p == nil {
				st.mu.Unlock()
				t.Fatalf("stripe %d: indexed entry %q has no published snapshot", i, k)
			}
			if p.version != e.version {
				st.mu.Unlock()
				t.Fatalf("stripe %d: %q published version %d != live version %d", i, k, p.version, e.version)
			}
			pb, err := s.backend.Marshal(p.serving(s.backend))
			if err != nil {
				st.mu.Unlock()
				t.Fatal(err)
			}
			eb, err := s.backend.Marshal(e.all)
			if err != nil {
				st.mu.Unlock()
				t.Fatal(err)
			}
			if !bytes.Equal(pb, eb) {
				st.mu.Unlock()
				t.Fatalf("stripe %d: %q published bytes differ from live sketch", i, k)
			}
		}
		st.mu.Unlock()
	}
}

// TestMergePrefixDeterministicOrder is the satellite-2 regression: repeated
// rollups over the published sorted indexes must be byte-identical to each
// other and to the locked path's sorted-scan order — the floating-point
// merge order is part of the store's contract.
func TestMergePrefixDeterministicOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := New(WithShards(8))
	b := New(WithShards(8), lockedMoments())
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("svc.%02d", rng.Intn(40))
		x := rng.NormFloat64()*100 + 50
		a.Add(k, x)
		b.Add(k, x)
	}
	first, n1, err := a.MergePrefix("svc.")
	if err != nil {
		t.Fatal(err)
	}
	want := marshalOf(t, a, first)
	for rep := 0; rep < 10; rep++ {
		got, n, err := a.MergePrefix("svc.")
		if err != nil {
			t.Fatal(err)
		}
		if n != n1 || !bytes.Equal(marshalOf(t, a, got), want) {
			t.Fatalf("repeat %d: wait-free rollup not byte-stable", rep)
		}
	}
	locked, n2, err := b.MergePrefix("svc.")
	if err != nil {
		t.Fatal(err)
	}
	if n2 != n1 || !bytes.Equal(marshalOf(t, b, locked), want) {
		t.Fatal("wait-free rollup differs from the locked merge order")
	}
}

// TestReadStatsCounters pins the /v1/stats read-path accounting: wait-free
// stores serve timeless reads from published snapshots, locked stores from
// the stripe locks, and windowed reads stay locked everywhere.
func TestReadStatsCounters(t *testing.T) {
	s := New(WithShards(2))
	s.Add("c.a", 1)
	s.Add("c.b", 2)
	_, _ = s.Summary("c.a")
	_ = s.Count("c.b")
	_, _, _ = s.MergePrefix("c.")
	_ = s.Keys("")
	st := s.ReadStats()
	if !st.WaitFree {
		t.Fatal("expected wait-free store")
	}
	if st.PublishedReads < 4 {
		t.Fatalf("PublishedReads = %d, want >= 4", st.PublishedReads)
	}
	if st.LockedReads != 0 {
		t.Fatalf("LockedReads = %d on a wait-free store's timeless reads", st.LockedReads)
	}
	if st.Publishes == 0 || st.IndexRebuilds == 0 {
		t.Fatalf("expected publish activity, got %+v", st)
	}

	l := New(WithShards(2), lockedMoments())
	l.Add("c.a", 1)
	_, _ = l.Summary("c.a")
	_, _, _ = l.MergePrefix("c.")
	lst := l.ReadStats()
	if lst.WaitFree || lst.PublishedReads != 0 || lst.LockedReads < 2 {
		t.Fatalf("locked store counters off: %+v", lst)
	}
	if lst.Publishes != 0 {
		t.Fatalf("locked store must not publish entry snapshots: %+v", lst)
	}
	// Every store publishes its key index, so Keys never locks.
	if got := l.Keys(""); len(got) != 1 || lst.IndexRebuilds == 0 {
		t.Fatalf("locked store Keys = %v with %d index rebuilds", got, lst.IndexRebuilds)
	}
	if st := l.ReadStats(); st.PublishedReads != 1 || st.LockedReads != lst.LockedReads {
		t.Fatalf("locked store Keys should count as one published read: %+v", st)
	}

	// Non-moments backends never publish.
	td := New(WithShards(2), WithBackend(sketch.TDigestBackend(50)))
	if td.ReadStats().WaitFree {
		t.Fatal("tdigest store must serve locked reads")
	}

	// Windowed reads are locked on every store.
	w := New(WithShards(2), WithWindow(time.Second, 4))
	w.Add("w.a", 1)
	if _, err := w.Retained("w.a"); err != nil {
		t.Fatal(err)
	}
	if w.ReadStats().LockedReads == 0 {
		t.Fatal("windowed read should count as a locked read")
	}
}

// TestReadWhileFlushByteIdentical is the -race stress suite: readers race
// batch flushes on a wait-free store and every observed summary must be
// byte-identical to a state of the sequential oracle — a prefix of the
// add stream — with per-reader monotonic counts and key versions. Values
// are all 1.0, so every moment accumulation is exact and any partition
// order the flushes commit in produces the oracle's exact bytes;
// non-associative rounding is covered by the quiescent equivalence suites.
func TestReadWhileFlushByteIdentical(t *testing.T) {
	const n = 3000
	s := New(WithShards(2))

	// Oracle: marshal bytes after each prefix of i adds of 1.0.
	oracle := make([][]byte, n+1)
	ref := s.backend.New()
	for i := 0; i <= n; i++ {
		b, err := s.backend.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		oracle[i] = b
		if i < n {
			ref.Add(1.0)
		}
	}

	const key = "race.k"
	var wg sync.WaitGroup
	stop := make(chan struct{})
	readerErr := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastCount float64
			var lastVer uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				sum, ok := s.Summary(key)
				if !ok {
					continue
				}
				c := sum.Count()
				if c < lastCount {
					readerErr <- fmt.Errorf("reader %d: Count regressed %v -> %v", r, lastCount, c)
					return
				}
				lastCount = c
				i := int(c)
				if i < 0 || i > n {
					readerErr <- fmt.Errorf("reader %d: Count %v outside the issued range", r, c)
					return
				}
				got, err := s.backend.Marshal(sum)
				if err != nil {
					readerErr <- err
					return
				}
				if !bytes.Equal(got, oracle[i]) {
					readerErr <- fmt.Errorf("reader %d: summary at count %d not byte-identical to the oracle prefix", r, i)
					return
				}
				if v, ok := s.KeyVersion(key); ok {
					if v < lastVer {
						readerErr <- fmt.Errorf("reader %d: KeyVersion regressed %d -> %d", r, lastVer, v)
						return
					}
					lastVer = v
				}
			}
		}(r)
	}

	b := s.NewBatch()
	for i := 0; i < n; i++ {
		b.Add(key, 1.0)
		if b.Len() == 11 || i%97 == 0 {
			b.Flush()
		}
		select {
		case err := <-readerErr:
			t.Fatal(err)
		default:
		}
	}
	b.Flush()
	close(stop)
	wg.Wait()
	select {
	case err := <-readerErr:
		t.Fatal(err)
	default:
	}
	if got := s.Count(key); got != n {
		t.Fatalf("final Count = %v, want %d", got, n)
	}
}

package shard

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sketch"
)

// assertIndexMatchesMap checks every stripe's published index against the
// full build it replaced: the stripe map's keys, sorted, each paired with
// the map's own entry pointer. It runs under each stripe's lock, where the
// index is the live key set.
func assertIndexMatchesMap(t *testing.T, label string, s *Store) {
	t.Helper()
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		want := make([]string, 0, len(st.entries))
		for k := range st.entries {
			want = append(want, k)
		}
		sort.Strings(want)
		var keys []string
		var entries []*entry
		if ix := st.index.Load(); ix != nil {
			keys, entries = ix.keys, ix.entries
		}
		var bad string
		switch {
		case len(keys) != len(want):
			bad = fmt.Sprintf("index has %d keys, map has %d", len(keys), len(want))
		case len(entries) != len(keys):
			bad = fmt.Sprintf("index has %d keys but %d entries", len(keys), len(entries))
		case len(st.added) != 0 || len(st.removed) != 0 || st.rebase:
			bad = "index changes left pending after unlock"
		default:
			for j, k := range want {
				if keys[j] != k {
					bad = fmt.Sprintf("index[%d] = %q, sorted map key %q", j, keys[j], k)
					break
				}
				if entries[j] != st.entries[k] {
					bad = fmt.Sprintf("index[%d] (%q) entry is not the map's", j, k)
					break
				}
			}
		}
		st.mu.Unlock()
		if bad != "" {
			t.Fatalf("%s: stripe %d: %s", label, i, bad)
		}
	}
}

// TestIndexUpkeepMatchesFullSort drives random interleavings of every
// key-set mutation — direct adds, batch flushes of new and repeated keys,
// deletes, resets and restores (of the current state and of an older one) —
// through a two-stripe store, so each stripe's index goes through long
// chains of merges, and checks after every operation that the merged index
// equals a full sort of the stripe's map, while a reader walks the
// published indexes concurrently.
func TestIndexUpkeepMatchesFullSort(t *testing.T) {
	seed := *propSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("seed: %d (replay with -shard.seed=%d)", seed, seed)
	rng := rand.New(rand.NewSource(seed))

	// Keys that are prefixes of each other, share long prefixes, or carry
	// bytes above ASCII, so adjacent index positions compare closely.
	var pool []string
	for _, root := range []string{"", "a", "a.", "a.b", "svc\xff", "\xff"} {
		for i := 0; i < 40; i++ {
			pool = append(pool, fmt.Sprintf("%s%d", root, i))
		}
		pool = append(pool, root+"x")
	}

	s := New(WithShards(2))
	batch := s.NewBatch()

	// A reader walks the published indexes wait-free throughout: every
	// index it loads must be sorted and duplicate-free.
	stop := make(chan struct{})
	readerErr := make(chan error, 1)
	go func() {
		readerErr <- func() error {
			for {
				select {
				case <-stop:
					return nil
				default:
				}
				for i := range s.stripes {
					keys, _ := s.stripes[i].keyRange("")
					for j := 1; j < len(keys); j++ {
						if keys[j-1] >= keys[j] {
							return fmt.Errorf("stripe %d: published index out of order at %d: %q, %q", i, j, keys[j-1], keys[j])
						}
					}
				}
				if _, _, err := s.MergePrefix("a."); err != nil {
					return err
				}
			}
		}()
	}()
	defer func() {
		close(stop)
		if err := <-readerErr; err != nil {
			t.Error(err)
		}
	}()

	var older []byte
	for op := 0; op < 3000; op++ {
		key := pool[rng.Intn(len(pool))]
		var what string
		switch p := rng.Float64(); {
		case p < 0.30:
			what = "add"
			s.Add(key, rng.NormFloat64())
		case p < 0.75:
			what = "flush"
			for n := rng.Intn(40); n >= 0; n-- {
				k := pool[rng.Intn(len(pool))]
				batch.Add(k, rng.NormFloat64())
				if rng.Intn(4) == 0 {
					batch.Add(k, rng.NormFloat64()) // repeated key in one flush
				}
			}
			batch.Flush()
		case p < 0.92:
			what = "delete"
			s.Delete(key)
		case p < 0.95:
			what = "reset"
			s.Reset()
		default:
			what = "restore"
			var buf bytes.Buffer
			if err := s.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			from := buf.Bytes()
			if older != nil && rng.Intn(2) == 0 {
				from = older
			}
			older = buf.Bytes()
			if err := s.Restore(bytes.NewReader(from)); err != nil {
				t.Fatal(err)
			}
		}
		assertIndexMatchesMap(t, fmt.Sprintf("op %d (%s)", op, what), s)
	}
	if keys, _ := s.AuditCounts(); keys != s.Len() {
		t.Fatalf("AuditCounts keys = %d, Len = %d", keys, s.Len())
	}
}

// TestIndexRebuildsPerKeySetChange pins what index_rebuilds counts: one
// republish per stripe per critical section that changed the key set —
// not one per new key, and none for writes to existing keys.
func TestIndexRebuildsPerKeySetChange(t *testing.T) {
	s := New(WithShards(1))
	rebuilds := func() uint64 { return s.ReadStats().IndexRebuilds }
	b := s.NewBatch()
	for i := 0; i < 10; i++ {
		b.Add(fmt.Sprintf("k%d", i), 1)
	}
	b.Flush()
	if got := rebuilds(); got != 1 {
		t.Fatalf("flush creating 10 keys: %d rebuilds, want 1", got)
	}
	s.Add("k3", 2)
	b.Add("k4", 2)
	b.Flush()
	if got := rebuilds(); got != 1 {
		t.Fatalf("writes to existing keys: %d rebuilds, want 1", got)
	}
	s.Delete("k5")
	s.Delete("absent")
	s.Add("new", 1)
	if got := rebuilds(); got != 3 {
		t.Fatalf("delete + absent delete + new key: %d rebuilds, want 3", got)
	}
	s.Reset()
	if got := rebuilds(); got != 4 {
		t.Fatalf("reset: %d rebuilds, want 4", got)
	}
}

// TestPrefixRangeBinarySearch checks prefixRange's binary-searched upper
// bound on the prefixes whose range ends are easy to get wrong.
func TestPrefixRangeBinarySearch(t *testing.T) {
	ix := &stripeIndex{keys: []string{
		"a", "a.b", "a.b.c", "a.bc", "a\xff", "a\xff\x00", "a\xff\xff", "b", "b.a", "c\xff",
	}}
	for _, tc := range []struct {
		prefix string
		lo, hi int
	}{
		{"", 0, 10},         // empty prefix: everything
		{"a.bc", 3, 4},      // an exact key that prefixes nothing else
		{"a.b", 1, 4},       // a prefix of a prefix: a.b, a.b.c and a.bc
		{"a.b.", 2, 3},      // the inner prefix alone
		{"a\xff", 4, 7},     // a \xff-suffixed prefix: its successor is not a string
		{"c\xff", 9, 10},    // the same at the index's end
		{"a.c", 4, 4},       // matches nothing, lands mid-index
		{"zz", 10, 10},      // matches nothing, past the end
		{"\x00", 0, 0},      // matches nothing, before the start
		{"b.a.long", 9, 9},  // longer than every key it would match
		{"a.b.c.d.e", 3, 3}, // longer than an indexed key it extends
		{"a\xff\xff\xff", 7, 7},
	} {
		lo, hi := ix.prefixRange(tc.prefix)
		if lo != tc.lo || hi != tc.hi {
			t.Errorf("prefixRange(%q) = [%d,%d), want [%d,%d)", tc.prefix, lo, hi, tc.lo, tc.hi)
		}
	}
	empty := &stripeIndex{}
	if lo, hi := empty.prefixRange("a"); lo != 0 || hi != 0 {
		t.Errorf("empty index: prefixRange = [%d,%d)", lo, hi)
	}
}

// TestFlatPublishMatchesServingFold is the differential test for the flat
// published record: at every order, a wait-free MergePrefix (which folds
// the published moment vectors through core.(*Sketch).Merge) must marshal
// to the same bytes as a left fold, through the Serving interface and in
// the store's merge order, of Match's clones, starting from backend.New()
// — the path it replaced.
// Values are negative, zero and positive, so LogCount < Count.
func TestFlatPublishMatchesServingFold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 2, core.DefaultK, core.MaxK} {
		s := New(WithShards(4), WithBackend(sketch.MomentsBackend(k)))
		b := s.NewBatch()
		for i := 0; i < 3000; i++ {
			key := fmt.Sprintf("svc%d.h%02d", rng.Intn(4), rng.Intn(30))
			var x float64
			switch rng.Intn(3) {
			case 0:
				x = -rng.ExpFloat64() * 10
			case 1:
				x = 0
			default:
				x = rng.ExpFloat64() * 10
			}
			if i%3 == 0 {
				s.Add(key, x)
			} else {
				b.Add(key, x)
			}
		}
		b.Flush()
		for _, prefix := range []string{"", "svc1", "svc2.h1", "svc3.h07", "absent"} {
			label := fmt.Sprintf("k=%d prefix %q", k, prefix)
			got, n, err := s.MergePrefix(prefix)
			if err != nil {
				t.Fatal(err)
			}
			matched := s.Match(prefix)
			want := s.backend.New()
			for _, m := range matched {
				if err := want.Merge(m.Summary); err != nil {
					t.Fatal(err)
				}
			}
			if n != len(matched) {
				t.Fatalf("%s: MergePrefix merged %d, Match returned %d", label, n, len(matched))
			}
			if !bytes.Equal(marshalOf(t, s, got), marshalOf(t, s, want)) {
				t.Fatalf("%s: flat fold differs from the Serving fold", label)
			}
			if raw := sketch.RawMoments(got); prefix == "" && !(raw.LogCount < raw.Count) {
				t.Fatalf("%s: LogCount %v not below Count %v", label, raw.LogCount, raw.Count)
			}
		}
	}
}

// TestSteadyFlushAllocsPerKey pins the publish cost: a Flush that touches
// m existing keys allocates at most two objects per key (the flat record
// and its power sums) plus a constant, where a Serving clone chain cost
// six.
func TestSteadyFlushAllocsPerKey(t *testing.T) {
	const m = 64
	s := New(WithShards(4))
	keys := make([]string, m)
	for i := range keys {
		keys[i] = fmt.Sprintf("alloc.%02d", i)
		s.Add(keys[i], 1)
	}
	b := s.NewBatch()
	x := 0.0
	allocs := testing.AllocsPerRun(20, func() {
		for _, k := range keys {
			x++
			b.Add(k, x)
			b.Add(k, -x) // a repeated key publishes once
		}
		b.Flush()
	})
	if max := float64(2*m + 4); allocs > max {
		t.Fatalf("steady Flush of %d keys: %v allocs, want ≤ %v", m, allocs, max)
	}
}

// BenchmarkBatchZipf commits 1000-observation batches of Zipf(1.1) keys
// drawn from 20,480 svcNN.rX.azY.hZZ paths into a 16-stripe store: the
// shape of momentsbench's ingest workload, where (unlike
// BenchmarkBatchIngest's 256 keys) commits keep creating keys and each
// batch publishes hundreds of distinct ones. One op is one batch.
//
//   - cold: every pass over the 512-body pool starts from a fresh store, so
//     each op's commit creates the keys it first sees (about 3,200 per
//     pass) and republishes indexes.
//   - steady: the store already holds every key of the pool, so commits
//     only add and publish.
func BenchmarkBatchZipf(b *testing.B) {
	const (
		svcs, regions, azs, hosts = 32, 8, 4, 20
		bodies, perBody           = 512, 1000
	)
	keys := make([]string, 0, svcs*regions*azs*hosts)
	for s := 0; s < svcs; s++ {
		for r := 0; r < regions; r++ {
			for a := 0; a < azs; a++ {
				for h := 0; h < hosts; h++ {
					keys = append(keys, fmt.Sprintf("svc%02d.r%d.az%d.h%02d", s, r, a, h))
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(17))
	perm := rng.Perm(len(keys))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(keys)-1))
	type obs struct {
		key int32
		val float64
	}
	pool := make([][]obs, bodies)
	for i := range pool {
		pool[i] = make([]obs, perBody)
		for j := range pool[i] {
			pool[i][j] = obs{key: int32(perm[zipf.Uint64()]), val: rng.ExpFloat64() * 100}
		}
	}
	commit := func(batch *Batch, body []obs) {
		for _, o := range body {
			batch.Add(keys[o.key], o.val)
		}
		batch.Flush()
	}
	run := func(b *testing.B, cold bool) {
		s := New(WithShards(16))
		batch := s.NewBatch()
		if !cold {
			for _, body := range pool {
				commit(batch, body)
			}
		}
		base, rebuilds := s.ReadStats().IndexRebuilds, uint64(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if cold && i > 0 && i%bodies == 0 {
				b.StopTimer()
				rebuilds += s.ReadStats().IndexRebuilds - base
				s, base = New(WithShards(16)), 0
				batch = s.NewBatch()
				b.StartTimer()
			}
			commit(batch, pool[i%bodies])
		}
		b.StopTimer()
		rebuilds += s.ReadStats().IndexRebuilds - base
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perBody), "ns/obs")
		b.ReportMetric(float64(rebuilds)/float64(b.N), "rebuilds/batch")
	}
	b.Run("cold", func(b *testing.B) { run(b, true) })
	b.Run("steady", func(b *testing.B) { run(b, false) })
}

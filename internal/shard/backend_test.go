package shard

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sketch"
)

// nonMomentsBackends are the serving baselines the store must handle end to
// end (t-digest is fully deterministic; merge12 and sampling are seeded
// per-instance, so their oracles compare against the exact sample instead
// of a twin summary).
func nonMomentsBackends() []sketch.Backend {
	return []sketch.Backend{
		sketch.Merge12Backend(64),
		sketch.TDigestBackend(100),
		sketch.SamplingBackend(1024),
	}
}

// TestBackendStoreMatchesSample: a store on each non-moments backend must
// answer Quantile/MergePrefix near the exact sample quantiles, with exact
// counts.
func TestBackendStoreMatchesSample(t *testing.T) {
	for _, b := range nonMomentsBackends() {
		t.Run(b.Name, func(t *testing.T) {
			s := New(WithShards(4), WithBackend(b))
			if got := s.Backend().Fingerprint(); got != b.Fingerprint() {
				t.Fatalf("Backend() = %s, want %s", got, b.Fingerprint())
			}
			rng := rand.New(rand.NewPCG(21, 22))
			n := 4000
			perKey := map[string][]float64{}
			var all []float64
			for i := 0; i < n; i++ {
				key := fmt.Sprintf("svc.k%d", i%4)
				v := math.Exp(rng.NormFloat64())
				s.Add(key, v)
				perKey[key] = append(perKey[key], v)
				all = append(all, v)
			}
			if got := s.TotalCount(); got != float64(n) {
				t.Fatalf("TotalCount = %v, want %d", got, n)
			}
			for key, data := range perKey {
				sort.Float64s(data)
				if got := s.Count(key); got != float64(len(data)) {
					t.Errorf("Count(%s) = %v, want %d", key, got, len(data))
				}
				for _, phi := range []float64{0.1, 0.5, 0.9, 0.99} {
					q := quantileOf(t, s, key, phi)
					if r := rankOf(data, q); math.Abs(r-phi) > 0.06 {
						t.Errorf("%s q(%v) = %v has sample rank %v", key, phi, q, r)
					}
				}
			}
			merged, merges, err := s.MergePrefix("svc.")
			if err != nil || merges != 4 {
				t.Fatalf("MergePrefix: %d merges, err %v", merges, err)
			}
			if merged.Count() != float64(n) {
				t.Errorf("merged count %v, want %d", merged.Count(), n)
			}
			sort.Float64s(all)
			for _, phi := range []float64{0.5, 0.95} {
				q := merged.Quantile(phi)
				if r := rankOf(all, q); math.Abs(r-phi) > 0.06 {
					t.Errorf("rollup q(%v) = %v has sample rank %v", phi, q, r)
				}
			}
			// The moments view is unavailable by construction.
			if _, ok := s.Sketch("svc.k0"); ok {
				t.Error("Sketch() produced a moments view on a non-moments backend")
			}
		})
	}
}

// TestTDigestStoreMatchesReferenceExactly: the t-digest is deterministic,
// so a single-key store fed sequentially must answer byte-for-byte like the
// internal/sketch reference implementation fed the same stream.
func TestTDigestStoreMatchesReferenceExactly(t *testing.T) {
	b := sketch.TDigestBackend(100)
	s := New(WithShards(1), WithBackend(b))
	ref := sketch.NewTDigest(100)
	rng := rand.New(rand.NewPCG(33, 34))
	for i := 0; i < 5000; i++ {
		v := rng.NormFloat64()*3 + 100
		s.Add("k", v)
		ref.Add(v)
	}
	for _, phi := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.99, 1} {
		got := quantileOf(t, s, "k", phi)
		if want := ref.Quantile(phi); got != want {
			t.Errorf("q(%v) = %v, reference %v", phi, got, want)
		}
	}
}

// TestBackendSnapshotV3RoundTrip: ingest → snapshot (v3, backend-tagged) →
// restore must reproduce every key exactly — quantile answers included,
// since the codecs serialize complete summary state.
func TestBackendSnapshotV3RoundTrip(t *testing.T) {
	for _, b := range nonMomentsBackends() {
		t.Run(b.Name, func(t *testing.T) {
			s := New(WithShards(4), WithBackend(b))
			rng := rand.New(rand.NewPCG(51, 52))
			for i := 0; i < 30; i++ {
				key := fmt.Sprintf("svc%d.host%d", i%3, i%5)
				for j := 0; j < 80; j++ {
					s.Add(key, math.Exp(rng.NormFloat64()))
				}
			}
			var buf bytes.Buffer
			if err := s.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			r := New(WithShards(8), WithBackend(b)) // stripe count may differ
			r.Add("stale", 1)                       // Restore must replace, not merge
			if err := r.Restore(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
			if _, ok := r.Summary("stale"); ok {
				t.Error("Restore kept pre-existing key")
			}
			if r.Len() != s.Len() || r.TotalCount() != s.TotalCount() {
				t.Fatalf("restored %d keys / %v obs, want %d / %v", r.Len(), r.TotalCount(), s.Len(), s.TotalCount())
			}
			for _, key := range s.Keys("") {
				want, _ := s.Summary(key)
				got, ok := r.Summary(key)
				if !ok {
					t.Fatalf("key %q missing after restore", key)
				}
				if got.Count() != want.Count() {
					t.Errorf("key %q: count %v, want %v", key, got.Count(), want.Count())
				}
				for _, phi := range []float64{0.1, 0.5, 0.9} {
					if g, w := got.Quantile(phi), want.Quantile(phi); g != w {
						t.Errorf("key %q: q(%v) = %v, want %v after round trip", key, phi, g, w)
					}
				}
			}
		})
	}
}

// TestWindowedBackendStore: pane rings on a backend without Sub must expire
// by exact re-merge — the retained summary always equals a re-merge of the
// live panes (exact counts; identical quantiles, since both sides merge the
// same pane summaries).
func TestWindowedBackendStore(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	b := sketch.TDigestBackend(100)
	s := New(WithShards(2), WithBackend(b), WithWindow(time.Second, 6), WithClock(clock.now))
	rng := rand.New(rand.NewPCG(61, 62))

	for step := 0; step < 20; step++ {
		for i := 0; i < 40; i++ {
			s.Add("svc.lat", 10+rng.ExpFloat64()*20)
		}
		ps, err := s.Panes("svc.lat")
		if err != nil {
			t.Fatal(err)
		}
		retained, err := s.Retained("svc.lat")
		if err != nil {
			t.Fatal(err)
		}
		var wantCount float64
		for _, p := range ps.Panes {
			wantCount += p.Count()
		}
		if retained.Count() != wantCount {
			t.Fatalf("step %d: retained count %v, want %v (re-merge fallback drifted)", step, retained.Count(), wantCount)
		}
		if _, ok := ps.MomentsPanes(); ok {
			t.Fatal("MomentsPanes claimed a moments view on tdigest panes")
		}
		clock.advance(time.Second)
	}

	// Windowed snapshot (v3 + pane records) round trip.
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r := New(WithShards(2), WithBackend(b), WithWindow(time.Second, 6), WithClock(clock.now))
	if err := r.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	orig, err := s.Panes("svc.lat")
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Panes("svc.lat")
	if err != nil {
		t.Fatal(err)
	}
	if got.Start != orig.Start {
		t.Fatalf("restored series starts at %d, want %d", got.Start, orig.Start)
	}
	for i := range orig.Panes {
		if got.Panes[i].Count() != orig.Panes[i].Count() {
			t.Errorf("pane %d: count %v, want %v", i, got.Panes[i].Count(), orig.Panes[i].Count())
		}
		if g, w := got.Panes[i].Quantile(0.5), orig.Panes[i].Quantile(0.5); g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Errorf("pane %d: median %v, want %v", i, g, w)
		}
	}
}

// TestSnapshotBackendMismatch: every cross-backend restore — v3 into a
// differently backed store, legacy v1 or v3 moments into a non-moments
// store, non-moments v3 into a moments store — must fail with a clear error and leave the target
// untouched.
func TestSnapshotBackendMismatch(t *testing.T) {
	td := New(WithShards(2), WithBackend(sketch.TDigestBackend(100)))
	td.Add("k", 1)
	var v3 bytes.Buffer
	if err := td.Snapshot(&v3); err != nil {
		t.Fatal(err)
	}

	m12 := New(WithShards(2), WithBackend(sketch.Merge12Backend(64)))
	m12.Add("keep", 5)
	if err := m12.Restore(bytes.NewReader(v3.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "does not match store backend") {
		t.Errorf("tdigest snapshot into merge12 store: %v", err)
	}
	if got := m12.Count("keep"); got != 1 {
		t.Errorf("failed restore clobbered the store: Count(keep) = %v", got)
	}

	// Same family, different parameter: still a mismatch.
	td200 := New(WithShards(2), WithBackend(sketch.TDigestBackend(200)))
	if err := td200.Restore(bytes.NewReader(v3.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "does not match store backend") {
		t.Errorf("tdigest(c=100) snapshot into tdigest(c=200) store: %v", err)
	}

	// Moments v3 into a non-moments store.
	m := New(WithShards(2))
	m.Add("k", 1)
	if err := td.Restore(bytes.NewReader(snapshotBytes(t, m))); err == nil ||
		!strings.Contains(err.Error(), "does not match store backend") {
		t.Errorf("moments snapshot into tdigest store: %v", err)
	}

	// tdigest v3 into a moments store.
	if err := m.Restore(bytes.NewReader(v3.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "does not match store backend") {
		t.Errorf("tdigest v3 snapshot into moments store: %v", err)
	}
}

// TestBackendConcurrentIngestMatchesOracle is the -race stress of a
// non-moments backend: concurrent writers and rollup/snapshot readers on a
// Merge12 store, with the final state pinned against a single-threaded
// oracle — counts and key sets exactly, quantiles to sample-rank tolerance.
func TestBackendConcurrentIngestMatchesOracle(t *testing.T) {
	const (
		writers   = 8
		perWriter = 2000
		keys      = 11
	)
	s := New(WithShards(16), WithBackend(sketch.Merge12Backend(64)))

	streams := make([][]Observation, writers)
	for wr := range streams {
		rng := rand.New(rand.NewPCG(uint64(wr), 7))
		obs := make([]Observation, perWriter)
		for i := range obs {
			obs[i] = Observation{
				Key:   fmt.Sprintf("grp%d.key%d", (wr+i)%3, rng.IntN(keys)),
				Value: math.Exp(rng.NormFloat64()),
			}
		}
		streams[wr] = obs
	}

	var wg sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(obs []Observation) {
			defer wg.Done()
			if len(obs)%2 == 0 {
				b := s.NewBatch()
				for i, o := range obs {
					b.Add(o.Key, o.Value)
					if i%113 == 0 {
						b.Flush()
					}
				}
				b.Flush()
			} else {
				for _, o := range obs {
					s.Add(o.Key, o.Value)
				}
			}
		}(streams[wr])
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for rd := 0; rd < 4; rd++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if sum, _, err := s.MergePrefix("grp1."); err != nil {
					t.Error(err)
					return
				} else if !sum.IsEmpty() {
					_ = sum.Quantile(0.5)
				}
				if sum, ok := s.Summary("grp0.key0"); ok {
					_ = sum.Quantile(0.9)
				}
				var sink bytes.Buffer
				if err := s.Snapshot(&sink); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()

	// Single-threaded oracle over the union of all streams.
	values := make(map[string][]float64)
	total := 0
	for _, obs := range streams {
		for _, o := range obs {
			values[o.Key] = append(values[o.Key], o.Value)
			total++
		}
	}
	if got := s.TotalCount(); got != float64(total) {
		t.Errorf("TotalCount = %v, want %d", got, total)
	}
	if got := s.Len(); got != len(values) {
		t.Errorf("Len = %d, want %d", got, len(values))
	}
	for key, data := range values {
		if got := s.Count(key); got != float64(len(data)) {
			t.Errorf("Count(%s) = %v, want %d", key, got, len(data))
		}
	}
	for _, key := range []string{"grp0.key0", "grp1.key1", "grp2.key2"} {
		data := values[key]
		if len(data) == 0 {
			continue
		}
		sort.Float64s(data)
		for _, phi := range []float64{0.5, 0.95} {
			got := quantileOf(t, s, key, phi)
			if r := rankOf(data, got); math.Abs(r-phi) > 0.08 {
				t.Errorf("key %s phi=%v: estimate %v has sample rank %v", key, phi, got, r)
			}
		}
	}

	// The stressed store must still snapshot/restore cleanly.
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r := New(WithShards(4), WithBackend(sketch.Merge12Backend(64)))
	if err := r.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if r.TotalCount() != s.TotalCount() || r.Len() != s.Len() {
		t.Errorf("restore after stress: %d keys / %v obs, want %d / %v",
			r.Len(), r.TotalCount(), s.Len(), s.TotalCount())
	}
}

// BenchmarkBackendIngest compares batched ingest throughput across serving
// backends — the §6.1 update-cost comparison as a store-level benchmark
// (moments: O(k) vector update; merge12: buffered compactions; tdigest:
// buffered centroid merges).
func BenchmarkBackendIngest(b *testing.B) {
	for _, bk := range []sketch.Backend{
		sketch.MomentsBackend(10),
		sketch.Merge12Backend(64),
		sketch.TDigestBackend(100),
	} {
		b.Run(bk.Name, func(b *testing.B) {
			s := New(WithShards(16), WithBackend(bk))
			keys := make([]string, 256)
			for i := range keys {
				keys[i] = fmt.Sprintf("bench.key%d", i)
			}
			batch := s.NewBatch()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch.Add(keys[i&255], float64(i%997))
				if batch.Len() == 1024 {
					batch.Flush()
				}
			}
			batch.Flush()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "obs/s")
		})
	}
}

// TestExplicitMomentsBackendOrder: an explicitly supplied moments backend
// must drive the store's order, so snapshot headers and the sketches in
// them agree (a mismatch would write snapshots that can never restore).
func TestExplicitMomentsBackendOrder(t *testing.T) {
	s := New(WithShards(2), WithBackend(sketch.MomentsBackend(15)))
	if s.Order() != 15 {
		t.Fatalf("Order() = %d, want 15 (from the explicit moments backend)", s.Order())
	}
	s.Add("k", 1)
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r := New(WithShards(2), WithBackend(sketch.MomentsBackend(15)))
	if err := r.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("round trip at explicit order: %v", err)
	}
	if got, ok := r.Sketch("k"); !ok || got.K != 15 || got.Count != 1 {
		t.Fatalf("restored sketch: ok=%v %+v", ok, got)
	}
}

// TestMergePrefixContextCancelGeneric mirrors the moments cancellation
// contract on a non-moments backend.
func TestMergePrefixContextCancelGeneric(t *testing.T) {
	s := New(WithShards(4), WithBackend(sketch.SamplingBackend(64)))
	for i := 0; i < 32; i++ {
		s.Add(fmt.Sprintf("svc.k%d", i), float64(i))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.MergePrefixContext(ctx, "svc."); err == nil {
		t.Error("canceled context accepted")
	}
}

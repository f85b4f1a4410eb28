package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"testing"

	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/sketch"
)

func TestContextHelpers(t *testing.T) {
	s := New(WithShards(8))
	for i := 0; i < 64; i++ {
		s.Add(fmt.Sprintf("svc.key%d", i), float64(i))
	}

	// Background context behaves exactly like the context-free methods.
	one := func(string) string { return "" }
	got, err := s.MergeGroups(context.Background(), "svc.", one)
	if err != nil || len(got) != 1 || got[0].Keys != 64 {
		t.Fatalf("MergeGroups = %+v, err %v", got, err)
	}
	merged, merges, err := s.MergePrefixContext(context.Background(), "svc.")
	if err != nil || merges != 64 || merged.Count() != 64 {
		t.Fatalf("MergePrefixContext = %d merges (count %v), err %v", merges, merged.Count(), err)
	}

	// A canceled context aborts both scans with ctx.Err().
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.MergeGroups(ctx, "svc.", one); !errors.Is(err, context.Canceled) {
		t.Errorf("MergeGroups on canceled ctx: err = %v", err)
	}
	if _, _, err := s.MergePrefixContext(ctx, "svc."); !errors.Is(err, context.Canceled) {
		t.Errorf("MergePrefixContext on canceled ctx: err = %v", err)
	}
}

// TestMergePrefixDeterministic: repeated rollups of a quiescent store must
// be bit-identical — keys merge in sorted order within each stripe, not
// map iteration order. Query layers rely on this for byte-identical
// repeated responses.
func TestMergePrefixDeterministic(t *testing.T) {
	s := New(WithShards(4))
	rng := rand.New(rand.NewPCG(11, 12))
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("d.key%d", i)
		for j := 0; j < 20; j++ {
			s.Add(key, math.Exp(rng.NormFloat64()*3))
		}
	}
	firstSum, merges, err := s.MergePrefix("d.")
	if err != nil || merges != 200 {
		t.Fatalf("MergePrefix: merges %d, err %v", merges, err)
	}
	first := rawOf(t, firstSum)
	for round := 0; round < 5; round++ {
		againSum, _, err := s.MergePrefix("d.")
		if err != nil {
			t.Fatal(err)
		}
		again := rawOf(t, againSum)
		for i := range first.Pow {
			if again.Pow[i] != first.Pow[i] || again.LogPow[i] != first.LogPow[i] {
				t.Fatalf("round %d: power sums differ at order %d: %v vs %v",
					round, i+1, again.Pow[i], first.Pow[i])
			}
		}
	}
}

func TestAddAndSketch(t *testing.T) {
	s := New(WithShards(4), WithBackend(sketch.MomentsBackend(6)))
	if s.Order() != 6 {
		t.Fatalf("Order() = %d, want 6", s.Order())
	}
	if s.NumShards() != 4 {
		t.Fatalf("NumShards() = %d, want 4", s.NumShards())
	}
	for i := 0; i < 100; i++ {
		s.Add("a", float64(i))
		if i%2 == 0 {
			s.Add("b", float64(i))
		}
	}
	sk, ok := s.Sketch("a")
	if !ok {
		t.Fatal("key a missing")
	}
	if sk.Count != 100 || sk.Min != 0 || sk.Max != 99 {
		t.Errorf("sketch a: count=%v min=%v max=%v", sk.Count, sk.Min, sk.Max)
	}
	// The returned sketch is a clone: mutating it must not affect the store.
	sk.Add(1e9)
	if got := s.Count("a"); got != 100 {
		t.Errorf("clone mutation leaked into store: count=%v", got)
	}
	if got := s.Count("b"); got != 50 {
		t.Errorf("Count(b) = %v, want 50", got)
	}
	if got := s.Count("nope"); got != 0 {
		t.Errorf("Count(nope) = %v, want 0", got)
	}
	if got := s.Len(); got != 2 {
		t.Errorf("Len() = %d, want 2", got)
	}
	if got := s.TotalCount(); got != 150 {
		t.Errorf("TotalCount() = %v, want 150", got)
	}
}

func TestShardCountRoundsToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{1, 1}, {3, 4}, {8, 8}, {100, 128}} {
		s := New(WithShards(tc.in))
		if s.NumShards() != tc.want {
			t.Errorf("WithShards(%d): %d stripes, want %d", tc.in, s.NumShards(), tc.want)
		}
	}
}

func TestBatchFlush(t *testing.T) {
	s := New(WithShards(8))
	b := s.NewBatch()
	for i := 0; i < 1000; i++ {
		b.Add(fmt.Sprintf("key%d", i%17), float64(i))
	}
	if b.Len() != 1000 {
		t.Fatalf("Len() = %d, want 1000", b.Len())
	}
	if n := b.Flush(); n != 1000 {
		t.Fatalf("Flush() = %d, want 1000", n)
	}
	if b.Len() != 0 {
		t.Fatalf("Len() after flush = %d, want 0", b.Len())
	}
	if got := s.TotalCount(); got != 1000 {
		t.Errorf("TotalCount() = %v, want 1000", got)
	}
	if got := s.Len(); got != 17 {
		t.Errorf("Len() = %d, want 17", got)
	}
	// A reused batch must not re-apply old observations.
	b.Add("key0", 1)
	b.Flush()
	if got := s.TotalCount(); got != 1001 {
		t.Errorf("TotalCount() after reuse = %v, want 1001", got)
	}
}

func TestBatchDiscard(t *testing.T) {
	s := New(WithShards(8))
	b := s.NewBatch()
	for i := 0; i < 100; i++ {
		b.Add(fmt.Sprintf("key%d", i), float64(i))
	}
	b.Discard()
	if b.Len() != 0 {
		t.Errorf("Len() after discard = %d, want 0", b.Len())
	}
	if got := s.TotalCount(); got != 0 {
		t.Errorf("discarded observations reached the store: %v", got)
	}
	// The batch stays usable and must not resurrect discarded entries.
	b.Add("live", 1)
	if n := b.Flush(); n != 1 {
		t.Errorf("Flush() after discard = %d, want 1", n)
	}
	if got := s.TotalCount(); got != 1 {
		t.Errorf("TotalCount() = %v, want 1", got)
	}
	if got := s.Len(); got != 1 {
		t.Errorf("Len() = %d, want 1", got)
	}
}

func TestKeysAndMatch(t *testing.T) {
	s := New(WithShards(4))
	for _, k := range []string{"us.web", "us.api", "eu.web", "eu.api"} {
		s.Add(k, 1)
	}
	got := s.Keys("us.")
	want := []string{"us.api", "us.web"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Keys(us.) = %v, want %v", got, want)
	}
	all := s.Keys("")
	if len(all) != 4 || !sort.StringsAreSorted(all) {
		t.Errorf("Keys(\"\") = %v, want 4 sorted keys", all)
	}
	// Match walks the store's key order — stripes in order, keys ascending
	// within each — not the global sort Keys returns.
	m := s.Match("eu.")
	wantM := []string{"eu.api", "eu.web"}
	if fnv64a(wantM[0])&s.mask > fnv64a(wantM[1])&s.mask {
		wantM[0], wantM[1] = wantM[1], wantM[0]
	}
	if len(m) != 2 || m[0].Key != wantM[0] || m[1].Key != wantM[1] {
		t.Errorf("Match(eu.) keys = %v, want %v", m, wantM)
	}
}

func TestMergePrefix(t *testing.T) {
	s := New(WithShards(8))
	for i := 0; i < 50; i++ {
		s.Add("us.web", float64(i))
		s.Add("us.api", float64(i+50))
		s.Add("eu.web", 1e6)
	}
	mergedSum, merges, err := s.MergePrefix("us.")
	if err != nil {
		t.Fatal(err)
	}
	if merges != 2 {
		t.Errorf("merges = %d, want 2", merges)
	}
	merged := rawOf(t, mergedSum)
	if merged.Count != 100 || merged.Min != 0 || merged.Max != 99 {
		t.Errorf("merged: count=%v min=%v max=%v", merged.Count, merged.Min, merged.Max)
	}
	_, zero, err := s.MergePrefix("asia.")
	if err != nil || zero != 0 {
		t.Errorf("MergePrefix(asia.) = %d merges, err %v", zero, err)
	}
}

// quantileOf answers phi from a clone of the key's summary with the
// backend's own estimator; serving-grade estimates belong to internal/query.
func quantileOf(t *testing.T, s *Store, key string, phi float64) float64 {
	t.Helper()
	sum, ok := s.Summary(key)
	if !ok {
		t.Fatalf("Summary(%q): no such key", key)
	}
	return sum.Quantile(phi)
}

func TestQuantileAgainstSample(t *testing.T) {
	s := New(WithShards(8))
	rng := rand.New(rand.NewPCG(1, 2))
	n := 20000
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Exp(rng.NormFloat64())
		s.Add("latency", data[i])
	}
	sort.Float64s(data)
	for _, phi := range []float64{0.1, 0.5, 0.9, 0.99} {
		got := quantileOf(t, s, "latency", phi)
		if r := rankOf(data, got); math.Abs(r-phi) > 0.05 {
			t.Errorf("phi=%v: estimate %v has sample rank %v", phi, got, r)
		}
	}
	if _, ok := s.Summary("missing"); ok {
		t.Error("Summary on missing key: ok = true")
	}
}

func TestThreshold(t *testing.T) {
	s := New(WithShards(8))
	for i := 1; i <= 1000; i++ {
		s.Add("lat", float64(i))
	}
	raw, ok := s.Sketch("lat")
	if !ok {
		t.Fatal("Sketch(lat): no such key")
	}
	above, err := cascade.Threshold(raw, 2000, 0.99, cascade.Full(), nil)
	if err != nil || above {
		t.Errorf("Threshold(2000) = %v, %v; want false", above, err)
	}
	above, err = cascade.Threshold(raw, 0.5, 0.99, cascade.Full(), nil)
	if err != nil || !above {
		t.Errorf("Threshold(0.5) = %v, %v; want true", above, err)
	}
}

func TestDeleteAndReset(t *testing.T) {
	s := New(WithShards(4))
	s.Add("a", 1)
	s.Add("b", 2)
	s.Add("b", 3)
	if !s.Delete("b") {
		t.Error("Delete(b) = false, want true")
	}
	if s.Delete("b") {
		t.Error("second Delete(b) = true, want false")
	}
	if got := s.TotalCount(); got != 1 {
		t.Errorf("TotalCount() after delete = %v, want 1", got)
	}
	s.Reset()
	if s.Len() != 0 || s.TotalCount() != 0 {
		t.Errorf("after Reset: Len=%d TotalCount=%v", s.Len(), s.TotalCount())
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := New(WithShards(8), WithBackend(sketch.MomentsBackend(7)))
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("svc%d.host%d", i%5, i%8)
		for j := 0; j < 30; j++ {
			s.Add(key, math.Exp(rng.NormFloat64()))
		}
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	r := New(WithShards(2), WithBackend(sketch.MomentsBackend(7))) // different stripe count is fine
	r.Add("stale", 99)                                             // Restore must replace, not merge
	if err := r.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Sketch("stale"); ok {
		t.Error("Restore kept pre-existing key")
	}
	if r.Len() != s.Len() {
		t.Fatalf("restored %d keys, want %d", r.Len(), s.Len())
	}
	if r.TotalCount() != s.TotalCount() {
		t.Errorf("restored TotalCount %v, want %v", r.TotalCount(), s.TotalCount())
	}
	for _, key := range s.Keys("") {
		a, _ := s.Sketch(key)
		b, ok := r.Sketch(key)
		if !ok {
			t.Fatalf("key %q missing after restore", key)
		}
		if a.Count != b.Count || a.Min != b.Min || a.Max != b.Max {
			t.Errorf("key %q: header mismatch after round trip", key)
		}
		for i := range a.Pow {
			if a.Pow[i] != b.Pow[i] || a.LogPow[i] != b.LogPow[i] {
				t.Errorf("key %q: power sums differ at %d", key, i)
			}
		}
	}
}

func TestRestoreRejectsBadInput(t *testing.T) {
	s := New(WithBackend(sketch.MomentsBackend(10)))
	if err := s.Restore(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("bad magic accepted")
	}
	other := New(WithBackend(sketch.MomentsBackend(5)))
	other.Add("a", 1)
	var buf bytes.Buffer
	if err := other.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("order mismatch accepted")
	}
	// Truncated stream (mid-trailer).
	good := New(WithBackend(sketch.MomentsBackend(10)))
	good.Add("a", 1)
	buf.Reset()
	if err := good.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(bytes.NewReader(buf.Bytes()[:buf.Len()-3])); err == nil {
		t.Error("truncated snapshot accepted")
	}
	// Truncated exactly at a record boundary: the whole trailer (10-byte
	// end marker + 1-byte count) is gone, leaving an integral set of
	// records — only the trailer makes this detectable.
	if err := s.Restore(bytes.NewReader(buf.Bytes()[:buf.Len()-11])); err == nil {
		t.Error("record-boundary truncation accepted")
	}
	// A failed restore must leave existing contents untouched.
	s.Reset()
	s.Add("keep", 5)
	if err := s.Restore(bytes.NewReader(buf.Bytes()[:buf.Len()-11])); err == nil {
		t.Fatal("expected error")
	}
	if got := s.Count("keep"); got != 1 {
		t.Errorf("failed restore clobbered the store: Count(keep) = %v, want 1", got)
	}
}

// TestConcurrentIngestMatchesOracle is the -race stress test: many
// goroutines hammer the store through Add and batched inserts while readers
// run rollups and quantiles; the final per-key state must match a
// single-threaded oracle exactly on counts/min/max, to floating-point
// reassociation tolerance on power sums, and to estimator tolerance on
// quantiles.
func TestConcurrentIngestMatchesOracle(t *testing.T) {
	const (
		writers   = 8
		perWriter = 4000
		keys      = 23
	)
	s := New(WithShards(16))

	// Deterministic per-writer observation streams.
	streams := make([][]Observation, writers)
	for wr := range streams {
		rng := rand.New(rand.NewPCG(uint64(wr), 99))
		obs := make([]Observation, perWriter)
		for i := range obs {
			obs[i] = Observation{
				Key:   fmt.Sprintf("grp%d.key%d", (wr+i)%4, rng.IntN(keys)),
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
			if len(obs)%2 == 0 { // half the writers use batches
				b := s.NewBatch()
				for i, o := range obs {
					b.Add(o.Key, o.Value)
					if i%137 == 0 {
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
	// Concurrent readers: rollups, quantiles and snapshots must be safe
	// (and internally consistent) during ingest.
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
				if sk, _, err := s.MergePrefix("grp1."); err != nil {
					t.Error(err)
					return
				} else if !sk.IsEmpty() {
					_ = sk.Quantile(0.5)
				}
				s.Len()
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
	oracle := make(map[string]*core.Sketch)
	values := make(map[string][]float64)
	total := 0
	for _, obs := range streams {
		for _, o := range obs {
			sk, ok := oracle[o.Key]
			if !ok {
				sk = core.New(s.Order())
				oracle[o.Key] = sk
			}
			sk.Add(o.Value)
			values[o.Key] = append(values[o.Key], o.Value)
			total++
		}
	}

	if got := s.TotalCount(); got != float64(total) {
		t.Errorf("TotalCount() = %v, want %d", got, total)
	}
	if got := s.Len(); got != len(oracle) {
		t.Errorf("Len() = %d, want %d", got, len(oracle))
	}
	for key, want := range oracle {
		got, ok := s.Sketch(key)
		if !ok {
			t.Fatalf("key %q missing", key)
		}
		if got.Count != want.Count || got.Min != want.Min || got.Max != want.Max {
			t.Errorf("key %q: count/min/max = %v/%v/%v, want %v/%v/%v",
				key, got.Count, got.Min, got.Max, want.Count, want.Min, want.Max)
		}
		// Power sums may differ only by floating-point reassociation.
		for i := range want.Pow {
			if rel := relErr(got.Pow[i], want.Pow[i]); rel > 1e-9 {
				t.Errorf("key %q: Pow[%d] off by %v", key, i, rel)
			}
		}
	}
	// Quantiles against the exact sample, within estimator rank tolerance.
	for _, key := range []string{"grp0.key0", "grp1.key1", "grp2.key2"} {
		data := values[key]
		if len(data) == 0 {
			continue
		}
		sort.Float64s(data)
		for _, phi := range []float64{0.5, 0.99} {
			got := quantileOf(t, s, key, phi)
			if r := rankOf(data, got); math.Abs(r-phi) > 0.05 {
				t.Errorf("key %q phi=%v: estimate %v has sample rank %v", key, phi, got, r)
			}
		}
	}
}

func relErr(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// rankOf returns the fraction of sorted sample values ≤ x.
func rankOf(sorted []float64, x float64) float64 {
	return float64(sort.SearchFloat64s(sorted, x)) / float64(len(sorted))
}

func BenchmarkStoreAdd(b *testing.B) {
	s := New()
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench.key%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(keys[i&255], float64(i))
	}
}

func BenchmarkStoreAddParallel(b *testing.B) {
	s := New()
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench.key%d", i)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			s.Add(keys[i&255], float64(i))
			i++
		}
	})
}

func BenchmarkBatchIngest(b *testing.B) {
	s := New()
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench.key%d", i)
	}
	batch := s.NewBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Add(keys[i&255], float64(i))
		if batch.Len() == 1024 {
			batch.Flush()
		}
	}
	batch.Flush()
}

func BenchmarkMergePrefix(b *testing.B) {
	s := New()
	for i := 0; i < 1000; i++ {
		s.Add(fmt.Sprintf("svc.key%d", i), float64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.MergePrefix("svc."); err != nil {
			b.Fatal(err)
		}
	}
}

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
// arithmetic every power sum is order-independent, so concurrent batched
// ingest — whatever interleaving of flushes it takes — must land on
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
			t.Errorf("key %s: batched moments %+v != oracle %+v", key, g, w)
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
				t.Errorf("key %s: batched pane series differ from oracle", key)
			}
		}
		gr, gerr := got.Retained(key)
		wr, werr := want.Retained(key)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("key %s: Retained err %v vs oracle %v", key, gerr, werr)
		}
		if gerr == nil && !reflect.DeepEqual(sketch.RawMoments(gr), sketch.RawMoments(wr)) {
			t.Errorf("key %s: batched retained differs from oracle", key)
		}
	}
}

// TestBufferedIngestOracle: N goroutines ingesting through their own
// batches must land on byte-identical per-key moments to a single-threaded
// oracle ingesting the same observations directly — the no-lost-no-
// duplicated-no-corrupted pin for the batched path. Runs under -race in CI.
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
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			b := s.NewBatch()
			for i := 0; i < perG; i++ {
				j := g*perG + i
				b.Add(keys[j%numKeys], exactValue(j))
				if b.Len() == 256 {
					b.Flush()
				}
			}
			b.Flush()
		}(g)
	}
	wg.Wait()

	oracle := New(WithShards(8))
	for j := 0; j < goroutines*perG; j++ {
		oracle.Add(keys[j%numKeys], exactValue(j))
	}
	requireSameMoments(t, s, oracle, keys)
}

// TestBufferedIngestOracleWindowed is the windowed variant: timestamped
// batched ingest across pane boundaries — including future timestamps that
// clamp to the current pane and ancient ones that only reach the all-time
// sketch — with a mid-stream Snapshot/Restore cycle racing the writers.
// Pane series, retained summaries and all-time sketches must all match the
// oracle byte-for-byte after the final flush.
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
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			b := s.NewBatch()
			for i := 0; i < perG; i++ {
				j := g*perG + i
				b.AddAt(keys[j%numKeys], exactValue(j), at(j))
				if b.Len() == 128 {
					b.Flush()
				}
			}
			b.Flush()
		}(g)
	}

	// Mid-stream snapshot: must decode cleanly, hold no more than was ever
	// ingested, and leave the writers unperturbed.
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

	oracle := New(WithShards(8), WithWindow(time.Second, retention), WithClock(clock))
	for j := 0; j < goroutines*perG; j++ {
		oracle.AddAt(keys[j%numKeys], exactValue(j), at(j))
	}
	requireSameMoments(t, s, oracle, keys)
}

// TestFlushOnlyReversionsTouchedKeys: a batch flush republishes exactly
// the keys it carries observations for, once each however many
// observations it carries for them. Republishing any other key would copy
// its moment vector for nothing.
func TestFlushOnlyReversionsTouchedKeys(t *testing.T) {
	s := New(WithShards(2))
	b := s.NewBatch()

	b.Add("ver.a", 1)
	b.Add("ver.b", 1)
	b.Flush()
	pb, ok := s.lookupPublished("ver.b")
	if !ok || pb == nil {
		t.Fatal("ver.b unpublished after flush")
	}
	before := s.ReadStats().Publishes

	b.Add("ver.a", 2)
	b.Add("ver.a", 3)
	b.Flush()
	if got := s.ReadStats().Publishes - before; got != 1 {
		t.Errorf("flush touching one key published %d entry snapshots, want 1", got)
	}
	if p, _ := s.lookupPublished("ver.b"); p != pb {
		t.Error("flush republished the untouched key ver.b")
	}
	if got := s.Count("ver.a"); got != 3 {
		t.Errorf("Count(ver.a) = %v after the second flush, want 3", got)
	}
}

// TestHandleAfterClose pins the deprecated Flusher adapter: before and after
// Close its handles are working batches bound to its store.
func TestHandleAfterClose(t *testing.T) {
	s := New(WithShards(2))
	f, err := NewFlusher(s, FlusherConfig{})
	if err != nil {
		t.Fatal(err)
	}
	h := f.Handle()
	h.Add("late.k", 1)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	h.Flush()
	late := f.Handle()
	late.Add("late.k", 2)
	late.Flush()
	if got := s.Count("late.k"); got != 2 {
		t.Fatalf("Count = %v, want 2 (a handle lost its observation)", got)
	}
}

// BenchmarkBackendIngestParallel measures multi-goroutine batched ingest
// throughput on the moments backend: per-observation work under stripe
// locks, one lock acquisition per touched stripe per flush. obs/s is the
// headline metric.
func BenchmarkBackendIngestParallel(b *testing.B) {
	const numKeys = 256
	keys := make([]string, numKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench.key%d", i)
	}
	for _, g := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			s := New(WithShards(16))
			per := (b.N + g - 1) / g
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					base := w * per
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
			if got, want := s.TotalCount(), float64(g*per); got != want {
				b.Fatalf("TotalCount = %v, want %v", got, want)
			}
		})
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

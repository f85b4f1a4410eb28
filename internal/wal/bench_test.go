package wal

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/shard"
	"repro/internal/sketch"
)

// BenchmarkBackendIngestWAL measures the durability tax: the store-level
// BenchmarkBackendIngest workload (moments backend, batched commits) with
// and without a write-ahead journal attached. The serial points are
// honest about physics — a lone committer waits out a real fsync per
// batch — while the parallel-32 points show group commit amortizing that
// fsync across committers, which is the deployment shape (one goroutine
// per ingest request). The CI gate compares wal=on to wal=off at
// parallel-32.
func BenchmarkBackendIngestWAL(b *testing.B) {
	// Mirror momentsd's startup bump: on a GOMAXPROCS=1 runtime an fsync
	// syscall holds the only P hostage until sysmon retakes it, so disk
	// and compute strictly alternate. Both arms run with the bump so the
	// comparison stays apples to apples.
	if runtime.GOMAXPROCS(0) == 1 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	for _, wal := range []bool{false, true} {
		name := "wal=off"
		if wal {
			name = "wal=on"
		}
		b.Run(name, func(b *testing.B) {
			b.Run("serial", func(b *testing.B) {
				s := newBenchStore(b, wal)
				keys := benchKeys()
				batch := s.NewBatch()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					batch.Add(keys[i&255], float64(i%997))
					if batch.Len() == 1024 {
						if _, err := batch.Commit(); err != nil {
							b.Fatal(err)
						}
					}
				}
				if _, err := batch.Commit(); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "obs/s")
			})
			b.Run("parallel-32", func(b *testing.B) {
				s := newBenchStore(b, wal)
				keys := benchKeys()
				var seq atomic.Uint64
				b.ReportAllocs()
				b.SetParallelism(32)
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					batch := s.NewBatch()
					for pb.Next() {
						i := seq.Add(1)
						batch.Add(keys[i&255], float64(i%997))
						if batch.Len() == 1024 {
							if _, err := batch.Commit(); err != nil {
								b.Fatal(err)
							}
						}
					}
					if _, err := batch.Commit(); err != nil {
						b.Fatal(err)
					}
				})
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "obs/s")
			})
		})
	}
}

func newBenchStore(b *testing.B, withWAL bool) *shard.Store {
	b.Helper()
	s := shard.New(shard.WithShards(16), shard.WithBackend(sketch.MomentsBackend(10)))
	if withWAL {
		l, err := Open(Options{
			Dir:         b.TempDir(),
			Stripes:     4,
			Fingerprint: s.Backend().Fingerprint(),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { l.Close() })
		s.SetJournal(l)
	}
	return s
}

func benchKeys() []string {
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench.key%d", i)
	}
	return keys
}

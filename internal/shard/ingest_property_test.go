package shard

import (
	"flag"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// -shard.seed pins the property tests' randomness for reproducing a
// reported failure; 0 (the default) draws a fresh seed and logs it.
var propSeed = flag.Int64("shard.seed", 0, "seed for the shard property tests (0 = random, logged)")

// TestBufferedIngestLinearizability is the linearizability property test of
// the write path: one mutator goroutine applies a seeded random
// interleaving of batch Add, batch Flush, direct Store.Add, Delete and Reset
// while reader goroutines continuously query. A batch add becomes visible
// at its Flush, not before, and survives a Delete or Reset issued while it
// was pending. Every per-key count a reader observes must equal the count
// after some prefix of the mutator's already-issued operations — no lost
// observations, no duplicates, no states that never existed. The seed is
// logged so any failure replays with -shard.seed.
func TestBufferedIngestLinearizability(t *testing.T) {
	seed := *propSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("seed: %d (replay with -shard.seed=%d)", seed, seed)
	rng := rand.New(rand.NewSource(seed))

	keys := []string{"prop.a", "prop.b", "prop.c"}
	const ops = 4000

	s := New(WithShards(4))

	// The model: counts[i][k] is key k's expected visible count after the
	// first i mutator operations have been applied. The mutator publishes
	// row i and bumps applied BEFORE performing operation i, so at applied
	// == i the performed prefix is i-1 or i operations — a reader
	// bracketing its query with [lo, hi] loads of applied must observe the
	// state after some prefix j ∈ [lo-1, hi]: the lower bound because op lo
	// may not have run yet, the upper because an op's effect can only be
	// visible after its row was published.
	counts := make([][len("abc")]float64, ops+1)
	var applied atomic.Int64

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Readers: each query brackets its read with the applied counter and
	// asserts the observed count matches the model at some prefix inside
	// the bracket.
	readerErr := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ki := i % len(keys)
				lo := applied.Load()
				got := s.Count(keys[ki])
				hi := applied.Load()
				ok := false
				for j := max(lo-1, 0); j <= hi; j++ {
					if counts[j][ki] == got {
						ok = true
						break
					}
				}
				if !ok {
					readerErr <- fmt.Errorf("reader %d: Count(%s) = %v matches no model state in ops [%d,%d]",
						r, keys[ki], got, lo, hi)
					return
				}
			}
		}(r)
	}

	// The single mutator: random batch Add/Flush, direct Add, Delete and
	// Reset, maintaining the model as each operation is issued. pending
	// counts the batch's unflushed adds per key.
	b := s.NewBatch()
	cur, pending := [3]float64{}, [3]float64{}
	for i := 1; i <= ops; i++ {
		ki := rng.Intn(len(keys))
		p := rng.Float64()
		// Publish the post-op model row, then perform the op (see the
		// ordering comment on counts above).
		next := cur
		switch {
		case p < 0.55:
			// A batch add changes nothing visible until the flush.
		case p < 0.70:
			next[ki]++
		case p < 0.85:
			for k := range next {
				next[k] += pending[k]
			}
		case p < 0.98:
			next[ki] = 0
		default:
			next = [3]float64{}
		}
		counts[i] = next
		applied.Store(int64(i))
		switch {
		case p < 0.55:
			b.Add(keys[ki], float64(rng.Intn(5)))
			pending[ki]++
		case p < 0.70:
			s.Add(keys[ki], float64(rng.Intn(5)))
		case p < 0.85:
			b.Flush()
			pending = [3]float64{}
		case p < 0.98: // Delete: the batch's pending adds survive it
			s.Delete(keys[ki])
		default: // Reset: likewise
			s.Reset()
		}
		cur = next
		select {
		case err := <-readerErr:
			t.Fatal(err)
		default:
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-readerErr:
		t.Fatal(err)
	default:
	}

	// Final flush: the store must agree with the model exactly.
	b.Flush()
	for ki, key := range keys {
		if want := cur[ki] + pending[ki]; s.Count(key) != want {
			t.Errorf("final Count(%s) = %v, want %v", key, s.Count(key), want)
		}
	}
}

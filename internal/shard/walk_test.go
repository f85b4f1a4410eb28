package shard

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sketch"
)

// TestGroupedFoldWhileFlush is the -race stress suite for the grouped fold:
// readers run MergeGroups while a writer flushes batches across every
// stripe, and each observed group must be a state its keys passed through.
// Values are all 1.0, so a group's bytes are a function of its count alone:
// they must equal the oracle's bytes for that count, the count must lie
// between what was committed before the walk began and what was issued
// before it ended, and per reader each group's count and key total never
// go back. Labels come back sorted.
func TestGroupedFoldWhileFlush(t *testing.T) {
	const (
		groups  = 4
		perKey  = 40
		keysPer = 16
		n       = groups * keysPer * perKey
	)
	s := New(WithShards(4))

	// Oracle: marshal bytes after each count of adds of 1.0.
	oracle := make([][]byte, n+1)
	ref := s.backend.New()
	for i := 0; i <= n; i++ {
		b, err := s.backend.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		oracle[i] = b
		ref.Add(1.0)
	}

	// committed[g] rises after a flush lands, issued[g] before it starts.
	var committed, issued [groups]atomic.Int64
	label := func(key string) string { return key[:strings.IndexByte(key, '.')] }
	var wg sync.WaitGroup
	stop := make(chan struct{})
	readerErr := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastCount [groups]float64
			var lastKeys [groups]int
			for {
				select {
				case <-stop:
					return
				default:
				}
				var lo [groups]int64
				for g := range lo {
					lo[g] = committed[g].Load()
				}
				got, err := s.MergeGroups(context.Background(), "", label)
				if err != nil {
					readerErr <- err
					return
				}
				for i, grp := range got {
					var g int
					if _, err := fmt.Sscanf(grp.Label, "g%d", &g); err != nil || g < 0 || g >= groups {
						readerErr <- fmt.Errorf("reader %d: unexpected label %q", r, grp.Label)
						return
					}
					if i > 0 && got[i-1].Label >= grp.Label {
						readerErr <- fmt.Errorf("reader %d: labels out of order: %q before %q", r, got[i-1].Label, grp.Label)
						return
					}
					c := grp.Summary.Count()
					if hi := issued[g].Load(); c < float64(lo[g]) || c > float64(hi) {
						readerErr <- fmt.Errorf("reader %d: group %q count %v outside [%d, %d]", r, grp.Label, c, lo[g], hi)
						return
					}
					if c < lastCount[g] || grp.Keys < lastKeys[g] || grp.Keys > keysPer {
						readerErr <- fmt.Errorf("reader %d: group %q went from (%v, %d keys) to (%v, %d keys)",
							r, grp.Label, lastCount[g], lastKeys[g], c, grp.Keys)
						return
					}
					lastCount[g], lastKeys[g] = c, grp.Keys
					b, err := s.backend.Marshal(grp.Summary)
					if err != nil {
						readerErr <- err
						return
					}
					if !bytes.Equal(b, oracle[int(c)]) {
						readerErr <- fmt.Errorf("reader %d: group %q at count %v not byte-identical to the oracle", r, grp.Label, c)
						return
					}
				}
			}
		}(r)
	}

	b := s.NewBatch()
	var pending [groups]int64
	flush := func() {
		for g := range pending {
			issued[g].Add(pending[g])
		}
		b.Flush()
		for g := range pending {
			committed[g].Add(pending[g])
			pending[g] = 0
		}
	}
	for i := 0; i < n; i++ {
		g, k := i%groups, (i/groups)%keysPer
		b.Add(fmt.Sprintf("g%d.k%02d", g, k), 1.0)
		pending[g]++
		if b.Len() == 13 || i%101 == 0 {
			flush()
		}
		select {
		case err := <-readerErr:
			t.Fatal(err)
		default:
		}
	}
	flush()
	close(stop)
	wg.Wait()
	select {
	case err := <-readerErr:
		t.Fatal(err)
	default:
	}
	final, err := s.MergeGroups(context.Background(), "", label)
	if err != nil || len(final) != groups {
		t.Fatalf("final MergeGroups = %d groups, err %v", len(final), err)
	}
	for _, grp := range final {
		if grp.Keys != keysPer || grp.Summary.Count() != n/groups {
			t.Fatalf("final group %q: %d keys, count %v", grp.Label, grp.Keys, grp.Summary.Count())
		}
	}
}

// TestRandomizedRollupIsDeterministic: on the randomized backends a prefix
// rollup is a function of the data too. Two back-to-back MergePrefix calls
// on an unchanged store — with other summaries built in between — marshal
// to the same bytes: every new summary starts from the same PRNG state, and
// only its own operations advance it.
func TestRandomizedRollupIsDeterministic(t *testing.T) {
	for _, b := range []sketch.Backend{
		sketch.Merge12Backend(sketch.DefaultMerge12K),
		sketch.SamplingBackend(16),
	} {
		t.Run(b.Name, func(t *testing.T) {
			s := New(WithShards(4), WithBackend(b))
			batch := s.NewBatch()
			for i := 0; i < 4000; i++ {
				batch.Add(fmt.Sprintf("p.k%02d", i%40), float64(i*7919%4001)/4001)
			}
			batch.Flush()
			rollup := func() []byte {
				sum, keys, err := s.MergePrefix("p.")
				if err != nil || keys != 40 {
					t.Fatalf("MergePrefix: %d keys, err %v", keys, err)
				}
				out, err := b.Marshal(sum)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			first := rollup()
			for i := 0; i < 3; i++ {
				b.New().Add(1) // summaries built elsewhere must not shift the next fold
			}
			if second := rollup(); !bytes.Equal(first, second) {
				t.Fatal("two MergePrefix calls on an unchanged store marshal to different bytes")
			}
		})
	}
}

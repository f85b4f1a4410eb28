package shard

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/sketch"
)

// goldenClock is a fixed wall-clock instant for windowed snapshot tests.
var goldenClock = time.Unix(1_700_000_000, 0)

// TestSnapshotRestoreSnapshotByteIdentical: records come in key-index
// order, so the same store state always gives the same bytes — a snapshot
// restored into a store of the same shape snapshots back to itself.
func TestSnapshotRestoreSnapshotByteIdentical(t *testing.T) {
	clock := func() time.Time { return goldenClock }
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"moments", []Option{WithShards(4)}},
		{"moments-windowed", []Option{WithShards(4), WithWindow(time.Second, 8), WithClock(clock)}},
		{"tdigest", []Option{WithShards(4), WithBackend(sketch.TDigestBackend(100))}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(tc.opts...)
			rng := rand.New(rand.NewPCG(5, 8))
			for i := 0; i < 2000; i++ {
				at := goldenClock.Add(-time.Duration(rng.IntN(12)) * time.Second)
				s.AddAt(fmt.Sprintf("svc.k%02d", rng.IntN(60)), math.Exp(rng.NormFloat64()), at)
			}
			first := snapshotBytes(t, s)
			if first[len(snapMagic)] != snapVersion {
				t.Fatalf("snapshot version %d, want %d", first[len(snapMagic)], snapVersion)
			}
			r := New(tc.opts...)
			if err := r.Restore(bytes.NewReader(first)); err != nil {
				t.Fatal(err)
			}
			if second := snapshotBytes(t, r); !bytes.Equal(first, second) {
				t.Fatal("snapshot → restore → snapshot changed the bytes")
			}
		})
	}
}

package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/sketch"
)

// readGolden returns a checked-in file from testdata.
func readGolden(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The legacy goldens: the last output of the retired v1/v2 moments
// writers. snapshot-v1.golden comes from a timeless order-10 store;
// snapshot-v2.golden from an order-10 store with 1 s panes and retention 8
// whose clock stood at goldenClock.
var goldenClock = time.Unix(1_700_000_000, 0)

func goldenV2Store() *Store {
	return New(WithShards(2), WithWindow(time.Second, 8), WithClock(func() time.Time { return goldenClock }))
}

// TestRestoreLegacySnapshots pins the v1/v2 readers against the legacy
// goldens. snapshot-golden.json records, per key, the Summary, Panes and
// Retained bytes that the v1/v2 reader restored each file to when the
// writers still existed; restoring must reproduce every one of them, and
// the restored store must re-snapshot as v3 that restores to the same
// values again.
func TestRestoreLegacySnapshots(t *testing.T) {
	var goldens []struct {
		File      string        `json:"file"`
		ClockUnix int64         `json:"clock_unix"`
		PaneWidth time.Duration `json:"pane_width"`
		Keys      map[string]struct {
			Summary    []byte   `json:"summary"`
			PanesStart int64    `json:"panes_start"`
			Panes      [][]byte `json:"panes"`
			Retained   []byte   `json:"retained"`
		} `json:"keys"`
	}
	if err := json.Unmarshal(readGolden(t, "snapshot-golden.json"), &goldens); err != nil {
		t.Fatal(err)
	}
	if len(goldens) != 2 {
		t.Fatalf("%d goldens recorded, want the v1 and the v2 file", len(goldens))
	}
	for _, g := range goldens {
		t.Run(g.File, func(t *testing.T) {
			windowed := g.PaneWidth > 0
			newStore := func() *Store {
				if windowed {
					if g.ClockUnix != goldenClock.Unix() {
						t.Fatalf("golden clock %d, want %d", g.ClockUnix, goldenClock.Unix())
					}
					return goldenV2Store()
				}
				return New(WithShards(2))
			}
			check := func(label string, s *Store) {
				t.Helper()
				want := make([]string, 0, len(g.Keys))
				for k := range g.Keys {
					want = append(want, k)
				}
				slices.Sort(want)
				if got := s.Keys(""); !slices.Equal(got, want) {
					t.Fatalf("%s: keys %v, want %v", label, got, want)
				}
				for k, gk := range g.Keys {
					sum, _ := s.Summary(k)
					if !bytes.Equal(marshalOf(t, s, sum), gk.Summary) {
						t.Errorf("%s: Summary(%s) differs from the recorded value", label, k)
					}
					if !windowed {
						continue
					}
					ps, err := s.Panes(k)
					if err != nil {
						t.Fatal(err)
					}
					if ps.Start != gk.PanesStart || len(ps.Panes) != len(gk.Panes) {
						t.Fatalf("%s: Panes(%s) covers %d panes from %d, want %d from %d",
							label, k, len(ps.Panes), ps.Start, len(gk.Panes), gk.PanesStart)
					}
					for i, p := range ps.Panes {
						if !bytes.Equal(marshalOf(t, s, p), gk.Panes[i]) {
							t.Errorf("%s: Panes(%s)[%d] differs from the recorded value", label, k, i)
						}
					}
					ret, err := s.Retained(k)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(marshalOf(t, s, ret), gk.Retained) {
						t.Errorf("%s: Retained(%s) differs from the recorded value", label, k)
					}
				}
			}

			s := newStore()
			if err := s.Restore(bytes.NewReader(readGolden(t, g.File))); err != nil {
				t.Fatal(err)
			}
			check("restored", s)
			v3 := snapshotBytes(t, s)
			if v3[len(snapMagic)] != snapVersionV3 {
				t.Fatalf("restored store re-snapshots as version %d, want %d", v3[len(snapMagic)], snapVersionV3)
			}
			r := newStore()
			if err := r.Restore(bytes.NewReader(v3)); err != nil {
				t.Fatal(err)
			}
			check("re-snapshotted", r)
		})
	}
}

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
			if first[len(snapMagic)] != snapVersionV3 {
				t.Fatalf("snapshot version %d, want %d", first[len(snapMagic)], snapVersionV3)
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

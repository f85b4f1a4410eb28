package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/shard"
)

const testFP = "moments:k=10"

// openTest opens a log, in a fresh temp directory unless opts names one,
// stamped with the test fingerprint.
func openTest(t *testing.T, opts Options) *Log {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	if opts.Fingerprint == "" {
		opts.Fingerprint = testFP
	}
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// obsBatch builds a deterministic batch of n observations seeded by tag.
func obsBatch(tag, n int) []shard.Observation {
	obs := make([]shard.Observation, n)
	for i := range obs {
		obs[i] = shard.Observation{
			Key:   fmt.Sprintf("key.%d.%d", tag, i%7),
			Value: float64(tag*1000 + i),
			At:    time.Unix(0, int64(tag*1_000_000+i)),
		}
	}
	return obs
}

// mustAppend appends and releases, failing the test on error.
func mustAppend(t *testing.T, l *Log, obs []shard.Observation) {
	t.Helper()
	release, err := l.Append(obs)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	release()
}

// replayAll replays dir and returns every applied observation.
func replayAll(t *testing.T, dir string, cuts []uint64) ([]shard.Observation, *ReplayStats) {
	t.Helper()
	var got []shard.Observation
	rs, err := Replay(dir, testFP, cuts, func(obs []shard.Observation) error {
		got = append(got, append([]shard.Observation(nil), obs...)...)
		return nil
	}, t.Logf)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got, rs
}

// sortObs orders observations deterministically for multiset comparison
// (replay order across stripes is unspecified; the store's merges are
// commutative).
func sortObs(obs []shard.Observation) {
	sort.Slice(obs, func(i, j int) bool {
		if obs[i].Key != obs[j].Key {
			return obs[i].Key < obs[j].Key
		}
		if obs[i].Value != obs[j].Value {
			return obs[i].Value < obs[j].Value
		}
		return obs[i].At.Before(obs[j].At)
	})
}

func sameObs(t *testing.T, got, want []shard.Observation) {
	t.Helper()
	sortObs(got)
	sortObs(want)
	if len(got) != len(want) {
		t.Fatalf("recovered %d observations, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key || got[i].Value != want[i].Value || !got[i].At.Equal(want[i].At) {
			t.Fatalf("observation %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir, Stripes: 3})
	var want []shard.Observation
	for tag := 0; tag < 10; tag++ {
		obs := obsBatch(tag, 17)
		want = append(want, obs...)
		mustAppend(t, l, obs)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, rs := replayAll(t, dir, nil)
	sameObs(t, got, want)
	if rs.TornSegments != 0 {
		t.Errorf("TornSegments = %d, want 0", rs.TornSegments)
	}
	if rs.Records != 10 || rs.Observations != 170 {
		t.Errorf("replay stats: %d records / %d obs, want 10 / 170", rs.Records, rs.Observations)
	}
}

// A record is one batch: replay must deliver exactly the appended batch
// boundaries, never a partial batch.
func TestReplayPreservesBatchAtomicity(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir, Stripes: 1})
	sizes := []int{1, 5, 42}
	for tag, n := range sizes {
		mustAppend(t, l, obsBatch(tag, n))
	}
	l.Close()
	var gotSizes []int
	_, err := Replay(dir, testFP, nil, func(obs []shard.Observation) error {
		gotSizes = append(gotSizes, len(obs))
		return nil
	}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotSizes) != len(sizes) {
		t.Fatalf("replayed %d records, want %d", len(gotSizes), len(sizes))
	}
	for i, n := range sizes {
		if gotSizes[i] != n {
			t.Errorf("record %d carried %d observations, want %d", i, gotSizes[i], n)
		}
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	// Segments only a few records big force rotation on nearly every
	// append.
	l := openTest(t, Options{Dir: dir, Stripes: 2, SegmentSize: 256})
	var want []shard.Observation
	for tag := 0; tag < 20; tag++ {
		obs := obsBatch(tag, 5)
		want = append(want, obs...)
		mustAppend(t, l, obs)
	}
	l.Close()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) <= 2 {
		t.Fatalf("expected rotation to leave more than 2 segments, found %d", len(entries))
	}
	got, _ := replayAll(t, dir, nil)
	sameObs(t, got, want)
}

func TestCheckpointTruncatesAndCutsCoverApplied(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir, Stripes: 2})
	pre := obsBatch(1, 30)
	mustAppend(t, l, pre)

	var cuts []uint64
	err := l.Checkpoint(func(c []uint64) error {
		cuts = append([]uint64(nil), c...)
		return nil
	})
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if len(cuts) != 2 {
		t.Fatalf("cuts = %v, want one per stripe", cuts)
	}
	// Every pre-checkpoint segment is deleted.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("segments left after checkpoint: %v", entries)
	}

	// Post-checkpoint appends land in fresh segments above the cut, so a
	// replay honoring the watermark recovers exactly them.
	post := obsBatch(2, 25)
	mustAppend(t, l, post)
	l.Close()
	got, rs := replayAll(t, dir, cuts)
	sameObs(t, got, post)
	if rs.SkippedSegments != 0 {
		t.Errorf("SkippedSegments = %d, want 0 (covered segments were deleted)", rs.SkippedSegments)
	}

	st := l.Stats()
	if st.Checkpoints != 1 {
		t.Errorf("Checkpoints = %d, want 1", st.Checkpoints)
	}
	if st.TruncatedSegments == 0 {
		t.Error("TruncatedSegments = 0, want > 0")
	}
}

// The clean-shutdown sequence-reuse regression: a checkpoint that covers
// everything leaves an empty directory, so a fresh Open would restart
// numbering at 1 — inside the persisted watermark's cuts — and a later
// replay honoring that watermark would silently skip acknowledged
// records. Options.SeqFloor (the same cuts momentsd reads back from the
// snapshot) must push new segments strictly above the watermark.
func TestReopenAfterFullTruncationNumbersAboveWatermark(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir, Stripes: 2})
	mustAppend(t, l, obsBatch(1, 30))
	var cuts []uint64
	if err := l.Checkpoint(func(c []uint64) error {
		cuts = append([]uint64(nil), c...)
		return nil
	}); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	l.Close()
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("directory not empty after covering checkpoint: %v, %v", entries, err)
	}

	// The boot after the clean shutdown: empty dir, watermark cuts loaded
	// from the snapshot. New records must survive a replay under those
	// same cuts.
	l2 := openTest(t, Options{Dir: dir, Stripes: 2, SeqFloor: cuts})
	post := obsBatch(2, 25)
	mustAppend(t, l2, post)
	l2.Close()
	for _, e := range mustReadDir(t, dir) {
		_, seq, ok := parseSegName(e.Name())
		if !ok {
			continue
		}
		if stripe, _, _ := parseSegName(e.Name()); seq <= cuts[stripe] {
			t.Errorf("segment %s numbered at or below watermark cut %d", e.Name(), cuts[stripe])
		}
	}
	got, rs := replayAll(t, dir, cuts)
	sameObs(t, got, post)
	if rs.SkippedSegments != 0 {
		t.Errorf("SkippedSegments = %d, want 0 — acked records skipped as snapshot-covered", rs.SkippedSegments)
	}
}

func mustReadDir(t *testing.T, dir string) []os.DirEntry {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

// Cuts also gate replay when truncation did not happen (e.g. the process
// died between the snapshot rename and the unlinks): covered segments are
// skipped, not re-applied.
func TestReplaySkipsSegmentsAtOrBelowCut(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir, Stripes: 1})
	mustAppend(t, l, obsBatch(1, 10))
	l.Close()

	// Reopen: new segments get fresh sequence numbers past the old ones.
	l2 := openTest(t, Options{Dir: dir, Stripes: 1})
	post := obsBatch(2, 10)
	mustAppend(t, l2, post)
	l2.Close()

	got, rs := replayAll(t, dir, []uint64{1})
	sameObs(t, got, post)
	if rs.SkippedSegments != 1 {
		t.Errorf("SkippedSegments = %d, want 1", rs.SkippedSegments)
	}
}

func TestCheckpointSaveErrorKeepsSegments(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir, Stripes: 2})
	want := obsBatch(1, 20)
	mustAppend(t, l, want)

	boom := errors.New("save failed")
	if err := l.Checkpoint(func([]uint64) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Checkpoint error = %v, want %v", err, boom)
	}
	if st := l.Stats(); st.Checkpoints != 0 || st.TruncatedSegments != 0 {
		t.Errorf("failed checkpoint counted: %+v", st)
	}

	// The log still works, and nothing was truncated: a full replay sees
	// both the old and the new batches.
	more := obsBatch(2, 5)
	mustAppend(t, l, more)
	l.Close()
	got, _ := replayAll(t, dir, nil)
	sameObs(t, got, append(want, more...))
}

func TestConcurrentAppendsAllRecovered(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir, Stripes: 4, SegmentSize: 4096})
	const goroutines = 8
	const batches = 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				release, err := l.Append(obsBatch(g*1000+i, 3))
				if err != nil {
					t.Errorf("Append: %v", err)
					return
				}
				release()
			}
		}(g)
	}
	wg.Wait()
	l.Close()
	got, _ := replayAll(t, dir, nil)
	if len(got) != goroutines*batches*3 {
		t.Fatalf("recovered %d observations, want %d", len(got), goroutines*batches*3)
	}
	st := l.Stats()
	if st.Appends != goroutines*batches {
		t.Errorf("Appends = %d, want %d", st.Appends, goroutines*batches)
	}
	// Group commit must coalesce: strictly fewer fsyncs than appends would
	// be flaky to assert under arbitrary scheduling, but the counter must
	// at least be populated.
	if st.Syncs == 0 {
		t.Error("Syncs = 0, want > 0")
	}
}

// Appends concurrent with a checkpoint either land before the cut (then
// they are truncated away and must be in the snapshot's cut) or after
// (then they replay). None may be lost or duplicated.
func TestCheckpointConcurrentWithAppends(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir, Stripes: 2})
	const total = 200
	var wg sync.WaitGroup
	wg.Add(1)
	applied := make(chan int, total)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			release, err := l.Append(obsBatch(i, 1))
			if err != nil {
				t.Errorf("Append: %v", err)
				return
			}
			// The record is durable and (by calling release after noting
			// it) "applied": the checkpoint guard guarantees a checkpoint
			// cannot cut between the append and this send.
			applied <- i
			release()
		}
		close(applied)
	}()

	var cuts []uint64
	var inSnapshot int
	for i := 0; i < 5; i++ {
		time.Sleep(2 * time.Millisecond)
		err := l.Checkpoint(func(c []uint64) error {
			cuts = append([]uint64(nil), c...)
			// Everything applied so far is what the "snapshot" holds.
			inSnapshot = len(applied)
			return nil
		})
		if err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
	}
	wg.Wait()
	l.Close()
	got, _ := replayAll(t, dir, cuts)
	if inSnapshot+len(got) < total {
		t.Fatalf("snapshot holds %d, replay recovers %d; %d observations lost",
			inSnapshot, len(got), total-inSnapshot-len(got))
	}
}

func TestOpenFailsOnUnwritableDir(t *testing.T) {
	dir := t.TempDir()
	// A regular file where the directory should be: MkdirAll fails
	// regardless of permission bits (which root ignores).
	path := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: path, Fingerprint: testFP}); err == nil {
		t.Fatal("Open succeeded on a path occupied by a regular file")
	}
}

func TestStatsShape(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir, Stripes: 2})
	mustAppend(t, l, obsBatch(1, 4))
	l.NoteReplay(&ReplayStats{Records: 7})
	st := l.Stats()
	if st.Dir != dir || st.Stripes != 2 {
		t.Errorf("stats identity fields: %+v", st)
	}
	if st.Appends != 1 || st.AppendedObs != 4 {
		t.Errorf("append counters: %+v", st)
	}
	if st.Segments != 2 {
		t.Errorf("Segments = %d, want 2", st.Segments)
	}
	if st.ActiveBytes == 0 {
		t.Error("ActiveBytes = 0, want header+record bytes")
	}
	if st.Replay == nil || st.Replay.Records != 7 {
		t.Errorf("Replay = %+v, want the noted stats", st.Replay)
	}
}

func TestWatermarkRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	// Arbitrary "snapshot" prefix: the watermark reader only looks at the
	// tail.
	if _, err := f.Write([]byte("MDSS pretend snapshot payload")); err != nil {
		t.Fatal(err)
	}
	want := []uint64{3, 0, 12345678901}
	if err := AppendWatermark(f, want); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWatermark(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("ReadWatermark = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ReadWatermark = %v, want %v", got, want)
		}
	}
}

// Snapshots without a footer — pre-WAL files, or arbitrary short files —
// must yield nil cuts (replay everything), never an error or garbage.
func TestWatermarkAbsentOrInvalid(t *testing.T) {
	dir := t.TempDir()
	cases := map[string][]byte{
		"empty":        {},
		"short":        []byte("abc"),
		"no-footer":    []byte("just a plain snapshot with no watermark at all"),
		"magic-only":   []byte("MWCP"),
		"bad-length":   append([]byte("xxxx\xff\xff\xff\xff"), "MWCP"...),
		"zero-length":  append([]byte("\x00\x00\x00\x00"), "MWCP"...),
		"torn-payload": append([]byte("MW\x00\x00\x00\x0c\x00\x00\x00"), "MWCP"...),
	}
	// A valid footer with one flipped payload byte must fail its CRC.
	f := filepath.Join(dir, "flipped")
	var buf []byte
	{
		w := &sliceWriter{}
		if err := AppendWatermark(w, []uint64{9, 9}); err != nil {
			t.Fatal(err)
		}
		buf = append([]byte("prefix"), w.b...)
		buf[len("prefix")+5] ^= 0x40
	}
	if err := os.WriteFile(f, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	cases["crc-flip"] = buf

	if cuts, err := ReadWatermark(filepath.Join(dir, "missing")); err != nil || cuts != nil {
		t.Errorf("missing file: cuts=%v err=%v, want nil,nil", cuts, err)
	}
	for name, data := range cases {
		path := filepath.Join(dir, "case-"+name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cuts, err := ReadWatermark(path)
		if err != nil {
			t.Errorf("%s: ReadWatermark error %v, want graceful nil", name, err)
		}
		if cuts != nil {
			t.Errorf("%s: ReadWatermark = %v, want nil", name, cuts)
		}
	}
}

type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

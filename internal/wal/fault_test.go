package wal

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/shard"
)

// failingFile wraps a real segment file and fails Write or Sync on
// command — the ENOSPC / dying-disk seam.
type failingFile struct {
	f         segFile
	failWrite *bool
	failSync  *bool
}

var errDiskFull = errors.New("no space left on device")

func (f *failingFile) Write(p []byte) (int, error) {
	if *f.failWrite {
		return 0, errDiskFull
	}
	return f.f.Write(p)
}

func (f *failingFile) Sync() error {
	if *f.failSync {
		return errDiskFull
	}
	return f.f.Sync()
}

func (f *failingFile) Close() error { return f.f.Close() }

// openFailing returns an Options openFile seam whose failures the test
// toggles through the returned pointers.
func openFailing() (open func(string) (segFile, error), failWrite, failSync *bool) {
	failWrite, failSync = new(bool), new(bool)
	open = func(path string) (segFile, error) {
		f, err := openSegFile(path)
		if err != nil {
			return nil, err
		}
		return &failingFile{f: f, failWrite: failWrite, failSync: failSync}, nil
	}
	return open, failWrite, failSync
}

func TestWriteFailureWedgesUnderPolicyFail(t *testing.T) {
	open, failWrite, _ := openFailing()
	l := openTest(t, Options{Dir: t.TempDir(), Stripes: 1, openFile: open})

	mustAppend(t, l, obsBatch(1, 3))

	*failWrite = true
	if _, err := l.Append(obsBatch(2, 3)); !errors.Is(err, errDiskFull) {
		t.Fatalf("Append on full disk = %v, want %v", err, errDiskFull)
	}
	if !l.Wedged() {
		t.Fatal("log not wedged after write failure")
	}
	// The wedge is sticky: even after the disk "recovers", appends keep
	// failing with the typed error until restart.
	*failWrite = false
	if _, err := l.Append(obsBatch(3, 3)); !errors.Is(err, ErrWedged) {
		t.Fatalf("Append after wedge = %v, want ErrWedged", err)
	}
	st := l.Stats()
	if !st.Wedged || st.SyncFailures == 0 {
		t.Errorf("stats after wedge: %+v", st)
	}
}

func TestSyncFailureFailsBlockedAppend(t *testing.T) {
	open, _, failSync := openFailing()
	l := openTest(t, Options{Dir: t.TempDir(), Stripes: 1, openFile: open})
	mustAppend(t, l, obsBatch(1, 3))

	*failSync = true
	if _, err := l.Append(obsBatch(2, 3)); !errors.Is(err, errDiskFull) {
		t.Fatalf("Append with failing fsync = %v, want %v", err, errDiskFull)
	}
	if !l.Wedged() {
		t.Fatal("log not wedged after fsync failure")
	}
}

// tornCopy writes a copy of the segment truncated to n bytes.
func tornCopy(t *testing.T, src, dst string, n int64) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if n > int64(len(data)) {
		n = int64(len(data))
	}
	if err := os.WriteFile(dst, data[:n], 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeSegments appends batches through a 1-stripe log and returns the
// single segment's path plus the observations written.
func writeSegments(t *testing.T, dir string, batches int) (string, []shard.Observation) {
	t.Helper()
	l := openTest(t, Options{Dir: dir, Stripes: 1})
	var want []shard.Observation
	for tag := 0; tag < batches; tag++ {
		obs := obsBatch(tag, 8)
		want = append(want, obs...)
		mustAppend(t, l, obs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("want a single segment, found %d", len(entries))
	}
	return filepath.Join(dir, entries[0].Name()), want
}

// Truncating the segment at every byte boundary — the shape of a torn
// tail after a crash — must never error, never panic, and must recover a
// prefix of whole records.
func TestReplayToleratesTruncationEverywhere(t *testing.T) {
	src, _ := writeSegments(t, t.TempDir(), 3)
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	stride := 1
	if len(data) > 512 {
		stride = len(data) / 512
	}
	prevRecords := uint64(0)
	for n := 0; n < len(data); n += stride {
		dir := t.TempDir()
		tornCopy(t, src, filepath.Join(dir, filepath.Base(src)), int64(n))
		var records uint64
		rs, err := Replay(dir, testFP, nil, func(obs []shard.Observation) error {
			records++
			return nil
		}, nil)
		if err != nil {
			t.Fatalf("truncation at %d: Replay error %v", n, err)
		}
		if records > 3 {
			t.Fatalf("truncation at %d: %d records from a 3-record segment", n, records)
		}
		if records < prevRecords {
			// More bytes can only reveal more whole records.
			t.Fatalf("truncation at %d: recovered %d records, had %d at a shorter prefix", n, records, prevRecords)
		}
		prevRecords = records
		if rs.Records != records {
			t.Fatalf("truncation at %d: stats say %d records, apply saw %d", n, rs.Records, records)
		}
	}
}

// A flipped bit anywhere in a record must stop the segment at that record
// (checksum), keeping every record before it.
func TestReplayStopsAtBitFlip(t *testing.T) {
	dir := t.TempDir()
	src, want := writeSegments(t, dir, 4)
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	// Find the third record's payload start: header, then frames.
	// Flip a byte ~3/4 through the file — inside the last record for this
	// batch pattern — then confirm a strict prefix survives.
	pos := len(data) * 3 / 4
	data[pos] ^= 0x01
	if err := os.WriteFile(src, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var got []shard.Observation
	rs, err := Replay(dir, testFP, nil, func(obs []shard.Observation) error {
		got = append(got, append([]shard.Observation(nil), obs...)...)
		return nil
	}, t.Logf)
	if err != nil {
		t.Fatalf("Replay after bit flip: %v", err)
	}
	if rs.TornSegments != 1 {
		t.Errorf("TornSegments = %d, want 1", rs.TornSegments)
	}
	if len(got) == 0 || len(got) >= len(want) {
		t.Fatalf("recovered %d of %d observations; want a non-empty strict prefix", len(got), len(want))
	}
	sameObs(t, got, want[:len(got)])
}

// A header torn mid-write (fresh segment at the instant of the crash)
// holds no acknowledged data; replay skips it and keeps going.
func TestReplaySkipsTornHeader(t *testing.T) {
	srcDir := t.TempDir()
	src, _ := writeSegments(t, srcDir, 2)
	dir := t.TempDir()
	tornCopy(t, src, filepath.Join(dir, segName(0, 1)), 7) // inside the header
	// A healthy later segment in the same stripe still replays; build it
	// by hand so its header names the stripe/seq its file name claims.
	want := obsBatch(5, 6)
	data := appendHeader(nil, 0, 2, testFP)
	data = appendRecord(data, want)
	if err := os.WriteFile(filepath.Join(dir, segName(0, 2)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, rs := replayAll(t, dir, nil)
	if rs.TornSegments != 1 {
		t.Errorf("TornSegments = %d, want 1", rs.TornSegments)
	}
	sameObs(t, got, want)
}

// The healthy segment copied under a name disagreeing with its header is
// skipped — a defense against mis-filed segments, not data loss.
func TestReplaySkipsHeaderNameMismatch(t *testing.T) {
	src, _ := writeSegments(t, t.TempDir(), 1)
	dir := t.TempDir()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(2, 9)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, rs := replayAll(t, dir, nil)
	if len(got) != 0 || rs.TornSegments != 1 {
		t.Errorf("replayed %d obs, TornSegments = %d; want 0 and 1", len(got), rs.TornSegments)
	}
}

func TestReplayRejectsFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	writeSegments(t, dir, 1)
	_, err := Replay(dir, "tdigest:c=200", nil, func([]shard.Observation) error { return nil }, nil)
	if !errors.Is(err, ErrMismatch) {
		t.Fatalf("Replay across backends = %v, want ErrMismatch", err)
	}
	if err != nil && !strings.Contains(err.Error(), testFP) {
		t.Errorf("mismatch error %q does not name the segment's backend", err)
	}
}

func TestReplayPropagatesApplyError(t *testing.T) {
	dir := t.TempDir()
	writeSegments(t, dir, 2)
	boom := errors.New("apply failed")
	calls := 0
	_, err := Replay(dir, testFP, nil, func([]shard.Observation) error {
		calls++
		return boom
	}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("Replay = %v, want the apply error", err)
	}
	if calls != 1 {
		t.Errorf("apply called %d times after failing, want 1", calls)
	}
}

func TestReplayIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"README", "000-0000000000x1.wal", "snapshot.tmp", "9.wal"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("not a segment"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, rs := replayAll(t, dir, nil)
	if len(got) != 0 || rs.Segments != 0 || rs.TornSegments != 0 {
		t.Errorf("foreign files replayed: %d obs, %+v", len(got), rs)
	}
}

func TestReplayMissingDir(t *testing.T) {
	rs, err := Replay(filepath.Join(t.TempDir(), "never-created"), testFP, nil,
		func([]shard.Observation) error { return nil }, nil)
	if err != nil || rs.Segments != 0 {
		t.Errorf("missing dir: rs=%+v err=%v, want empty stats and nil", rs, err)
	}
}

// Garbage appended after valid records — a torn tail that landed on
// reused disk blocks — must not disturb the valid prefix.
func TestReplayToleratesTrailingGarbage(t *testing.T) {
	dir := t.TempDir()
	src, want := writeSegments(t, dir, 2)
	f, err := os.OpenFile(src, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	garbage := make([]byte, 300)
	for i := range garbage {
		garbage[i] = byte(i*37 + 11)
	}
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, rs := replayAll(t, dir, nil)
	sameObs(t, got, want)
	if rs.TornSegments != 1 {
		t.Errorf("TornSegments = %d, want 1", rs.TornSegments)
	}
}

func TestSegNameRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		stripe int
		seq    uint64
	}{{0, 1}, {3, 42}, {999, 999999999999}} {
		name := segName(tc.stripe, tc.seq)
		stripe, seq, ok := parseSegName(name)
		if !ok || stripe != tc.stripe || seq != tc.seq {
			t.Errorf("parseSegName(%q) = %d,%d,%v", name, stripe, seq, ok)
		}
	}
	for _, bad := range []string{"", "000-000000000001.log", "00a-000000000001.wal", "000_000000000001.wal", fmt.Sprintf("0000-%012d.wal", 1)} {
		if _, _, ok := parseSegName(bad); ok {
			t.Errorf("parseSegName(%q) accepted", bad)
		}
	}
}

// Open writes every stripe's segment header through to its file, so a
// fresh segment holds no bytes that only an append's group commit would
// flush: right after Open, with no sleep, each file decodes as a header.
func TestOpenWritesHeadersToDisk(t *testing.T) {
	dir := t.TempDir()
	openTest(t, Options{Dir: dir, Stripes: 3})
	for stripe := 0; stripe < 3; stripe++ {
		f, err := os.Open(filepath.Join(dir, segName(stripe, 1)))
		if err != nil {
			t.Fatal(err)
		}
		hdr, err := readHeader(bufio.NewReader(f))
		f.Close()
		if err != nil {
			t.Fatalf("stripe %d: segment header not on disk after Open: %v", stripe, err)
		}
		if hdr.stripe != stripe || hdr.seq != 1 || hdr.fingerprint != testFP {
			t.Errorf("stripe %d: header %+v", stripe, hdr)
		}
	}
}

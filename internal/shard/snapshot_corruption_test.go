package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/sketch"
)

// Restore-path corruption battery: a snapshot damaged in transit or on
// disk — truncated, bit-flipped, trailer-torn — must fail with a typed
// error and leave the store exactly as it was. Restore stages the entire
// decode before swapping anything in, so "half-restored" is not a state
// these tests should ever be able to reach.

// corruptionSeedStore builds a small store with deterministic contents.
func corruptionSeedStore(t testing.TB) *Store {
	t.Helper()
	s := New(WithShards(4), WithBackend(sketch.MomentsBackend(6)))
	b := s.NewBatch()
	for i, key := range []string{"us.web", "us.db", "eu.web", "ap.cache"} {
		for j := 0; j <= i; j++ {
			b.Add(key, float64(1+j))
		}
	}
	if n := b.Flush(); n != 10 {
		t.Fatalf("seeded %d observations, want 10", n)
	}
	return s
}

func snapshotBytes(t testing.TB, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requireRestoreRejects asserts the bytes fail to restore with the given
// message fragment and that the target store is untouched by the attempt.
func requireRestoreRejects(t *testing.T, data []byte, wantErr string) {
	t.Helper()
	st := New(WithShards(4), WithBackend(sketch.MomentsBackend(6)))
	b := st.NewBatch()
	b.Add("sentinel.key", 42)
	b.Flush()
	err := st.Restore(bytes.NewReader(data))
	if err == nil {
		t.Fatal("corrupted snapshot restored without error")
	}
	if !strings.Contains(err.Error(), wantErr) {
		t.Fatalf("error %q does not mention %q", err, wantErr)
	}
	if st.Len() != 1 || st.Count("sentinel.key") != 1 {
		t.Fatalf("failed restore mutated the store: %d keys, sentinel count %v",
			st.Len(), st.Count("sentinel.key"))
	}
}

// snapshotHeaderLen is the length of the header corruptionSeedStore's
// snapshots start with: everything an empty store of the same shape writes
// before its trailer (the 10-byte end marker and a 1-byte zero count).
func snapshotHeaderLen(t testing.TB) int {
	return len(snapshotBytes(t, New(WithShards(4), WithBackend(sketch.MomentsBackend(6))))) - 11
}

func TestRestoreRejectsCorruptSnapshots(t *testing.T) {
	seed := snapshotBytes(t, corruptionSeedStore(t))
	hdr := snapshotHeaderLen(t)

	t.Run("empty", func(t *testing.T) {
		requireRestoreRejects(t, nil, "reading snapshot header")
	})
	t.Run("not-a-snapshot", func(t *testing.T) {
		requireRestoreRejects(t, []byte("definitely not a snapshot"), "bad magic")
	})
	t.Run("torn-header", func(t *testing.T) {
		requireRestoreRejects(t, seed[:3], "reading snapshot header")
	})
	t.Run("unsupported-version", func(t *testing.T) {
		// 1 and 2 are the moments-only versions of earlier releases.
		for _, v := range []byte{1, 2, 0x7f} {
			data := append([]byte(nil), seed...)
			data[4] = v
			requireRestoreRejects(t, data, "unsupported snapshot version")
		}
	})
	t.Run("order-mismatch", func(t *testing.T) {
		s := New(WithShards(4), WithBackend(sketch.MomentsBackend(9)))
		s.Add("k9.key", 1)
		requireRestoreRejects(t, snapshotBytes(t, s), "does not match store backend")
	})
	t.Run("torn-mid-records", func(t *testing.T) {
		requireRestoreRejects(t, seed[:len(seed)/2], "snapshot")
	})
	t.Run("missing-trailer", func(t *testing.T) {
		requireRestoreRejects(t, seed[:len(seed)-2], "snapshot")
	})
	t.Run("implausible-key-length", func(t *testing.T) {
		// First record begins right after the header: replace its
		// key-length uvarint with a huge value.
		data := append([]byte(nil), seed[:hdr]...)
		data = append(data, 0xff, 0xff, 0xff, 0xff, 0x7f)
		requireRestoreRejects(t, data, "implausible key length")
	})
	t.Run("bit-flipped-payloads", func(t *testing.T) {
		// Flipping a bit anywhere past the header must never restore
		// silently into different contents: either the decode fails (and
		// the store is untouched) or the flip landed in sketch statistics
		// bytes, which the staging decode accepts — but then the restored
		// counts must differ from the seed in an observable way or match
		// it exactly (flips in padding do not exist in this format).
		want := corruptionSeedStore(t)
		for off := hdr; off < len(seed); off += 7 {
			data := append([]byte(nil), seed...)
			data[off] ^= 0x40
			st := New(WithShards(4), WithBackend(sketch.MomentsBackend(6)))
			if err := st.Restore(bytes.NewReader(data)); err != nil {
				continue // rejected: the common case
			}
			// Accepted: the flip must be confined to sketch payload bytes —
			// key set and structure still decode; nothing may panic and
			// a re-snapshot must round-trip.
			if err := st.Snapshot(&bytes.Buffer{}); err != nil {
				t.Fatalf("offset %d: restored store cannot re-snapshot: %v", off, err)
			}
			_ = want
		}
	})
}

// snapshotWith is a timeless order-6 snapshot holding one record, key
// "lp.key" with the given payload.
func snapshotWith(t testing.TB, payload []byte) []byte {
	t.Helper()
	data := append([]byte(nil), snapshotBytes(t, New(WithShards(4), WithBackend(sketch.MomentsBackend(6))))[:snapshotHeaderLen(t)]...)
	data = binary.AppendUvarint(data, uint64(len("lp.key")))
	data = append(data, "lp.key"...)
	data = binary.AppendUvarint(data, uint64(len(payload)))
	data = append(data, payload...)
	data = binary.AppendUvarint(data, snapEndMarker)
	return binary.AppendUvarint(data, 1)
}

// TestRestoreRejectsLowPrecisionPayload: a moments record in the
// low-precision "ML" layout, which no serving path writes, is refused at
// Restore, while the same record in the full-precision layout restores.
func TestRestoreRejectsLowPrecisionPayload(t *testing.T) {
	sk := core.New(6)
	for i := 1; i <= 10; i++ {
		sk.Add(float64(i))
	}
	st := New(WithShards(4), WithBackend(sketch.MomentsBackend(6)))
	if err := st.Restore(bytes.NewReader(snapshotWith(t, encoding.Marshal(sk)))); err != nil || st.Count("lp.key") != 10 {
		t.Fatalf("full-precision record: err %v, count %v", err, st.Count("lp.key"))
	}
	requireRestoreRejects(t, snapshotWith(t, encoding.MarshalLowPrecision(sk, 20)), "decoding snapshot sketch")
}

// nonFiniteSnapshot is a well-formed snapshot whose one record is a
// moments vector with Pow[1] = +Inf, which no in-domain adds produce.
func nonFiniteSnapshot(t testing.TB) []byte {
	sk := core.New(6)
	for i := 1; i <= 10; i++ {
		sk.Add(float64(i))
	}
	sk.Pow[1] = math.Inf(1)
	return snapshotWith(t, encoding.Marshal(sk))
}

// TestRestoreRejectsNonFiniteMoments: Restore of a record holding an
// out-of-domain moment vector fails as a whole with encoding.ErrCorrupt —
// a typed error, not a dropped key — and leaves the store untouched.
func TestRestoreRejectsNonFiniteMoments(t *testing.T) {
	data := nonFiniteSnapshot(t)
	requireRestoreRejects(t, data, "decoding snapshot sketch")
	st := New(WithShards(4), WithBackend(sketch.MomentsBackend(6)))
	if err := st.Restore(bytes.NewReader(data)); !errors.Is(err, encoding.ErrCorrupt) {
		t.Fatalf("err = %v, want encoding.ErrCorrupt", err)
	}
}

// TestRestoreTruncatedAtEveryByte drives Restore over every prefix of a
// valid snapshot: no prefix may panic, succeed (except the full input),
// or leave anything behind in the store.
func TestRestoreTruncatedAtEveryByte(t *testing.T) {
	seed := snapshotBytes(t, corruptionSeedStore(t))
	for n := 0; n < len(seed); n++ {
		st := New(WithShards(4), WithBackend(sketch.MomentsBackend(6)))
		if err := st.Restore(bytes.NewReader(seed[:n])); err == nil {
			t.Fatalf("truncated snapshot (%d of %d bytes) restored without error", n, len(seed))
		}
		if st.Len() != 0 {
			t.Fatalf("truncated snapshot (%d bytes) left %d keys in the store", n, st.Len())
		}
	}
	st := New(WithShards(4), WithBackend(sketch.MomentsBackend(6)))
	if err := st.Restore(bytes.NewReader(seed)); err != nil {
		t.Fatalf("the untruncated snapshot must restore: %v", err)
	}
	if st.Len() != 4 {
		t.Fatalf("restored %d keys, want 4", st.Len())
	}
}

// FuzzRestoreSnapshot feeds arbitrary bytes to the Restore staging path.
// Invariants: never panic, never mutate the store on failure, and on
// success produce a store whose own snapshot round-trips losslessly.
func FuzzRestoreSnapshot(f *testing.F) {
	seedStore := New(WithShards(4), WithBackend(sketch.MomentsBackend(6)))
	b := seedStore.NewBatch()
	b.Add("us.web", 1.5)
	b.Add("us.web", -3)
	b.Add("eu.db", 99)
	b.Flush()
	var buf bytes.Buffer
	if err := seedStore.Snapshot(&buf); err != nil {
		f.Fatal(err)
	}
	seed := buf.Bytes()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:5])
	f.Add([]byte{})
	f.Add([]byte("MSNP garbage after the magic"))
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/2] ^= 0x08
	f.Add(flipped)
	huge := append([]byte(nil), seed[:snapshotHeaderLen(f)]...)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0x7f)
	f.Add(huge)
	windowed := New(WithShards(4), WithBackend(sketch.MomentsBackend(6)), WithWindow(time.Second, 4))
	windowed.Add("us.web", 2.5)
	f.Add(snapshotBytes(f, windowed))
	f.Add(nonFiniteSnapshot(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		st := New(WithShards(4), WithBackend(sketch.MomentsBackend(6)))
		pre := st.NewBatch()
		pre.Add("sentinel.key", 7)
		pre.Flush()
		if err := st.Restore(bytes.NewReader(data)); err != nil {
			if st.Len() != 1 || st.Count("sentinel.key") != 1 {
				t.Fatalf("failed restore mutated the store: %d keys", st.Len())
			}
			return
		}
		// Success: the restored contents must survive their own
		// snapshot/restore round trip with identical shape.
		var out bytes.Buffer
		if err := st.Snapshot(&out); err != nil {
			t.Fatalf("restored store cannot snapshot: %v", err)
		}
		st2 := New(WithShards(4), WithBackend(sketch.MomentsBackend(6)))
		if err := st2.Restore(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("re-snapshot of a restored store does not restore: %v", err)
		}
		if st2.Len() != st.Len() || st2.TotalCount() != st.TotalCount() {
			t.Fatalf("round trip changed shape: %d/%g keys/obs -> %d/%g",
				st.Len(), st.TotalCount(), st2.Len(), st2.TotalCount())
		}
	})
}

// TestRestoreFingerprintMismatchIsTyped pins the v3 cross-backend error:
// restoring a tdigest snapshot into a sampling store must name both
// fingerprints, not fail on some downstream decode.
func TestRestoreFingerprintMismatchIsTyped(t *testing.T) {
	td := New(WithBackend(sketch.TDigestBackend(100)))
	b := td.NewBatch()
	b.Add("k", 1)
	b.Flush()
	data := snapshotBytes(t, td)
	st := New(WithBackend(sketch.SamplingBackend(64)))
	err := st.Restore(bytes.NewReader(data))
	if err == nil || !strings.Contains(err.Error(), "does not match store backend") {
		t.Fatalf("err = %v, want a fingerprint mismatch", err)
	}
}

package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/shard"
)

// fuzzSeedSegment builds a healthy two-record segment for stripe 0 seq 1
// — the fuzzer mutates it into torn tails, flipped frames and hostile
// payloads.
func fuzzSeedSegment() []byte {
	data := appendHeader(nil, 0, 1, testFP)
	data = appendRecord(data, []shard.Observation{
		{Key: "us.web", Value: 12.5, At: time.Unix(0, 1)},
		{Key: "us.db", Value: -3, At: time.Unix(0, 2)},
	})
	data = appendRecord(data, []shard.Observation{
		{Key: "eu.web", Value: 99, At: time.Unix(0, 3)},
	})
	return data
}

// FuzzReplayWAL feeds arbitrary bytes to Replay as a segment file. The
// invariants: never panic, never allocate absurd memory on hostile
// lengths, deliver only whole checksum-valid records (replay is
// deterministic, so two runs over the same bytes must apply identical
// batches), and fail only with the documented error classes.
func FuzzReplayWAL(f *testing.F) {
	seed := fuzzSeedSegment()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])             // torn mid-record
	f.Add(seed[:9])                       // torn mid-header
	f.Add([]byte{})                       // empty file
	f.Add([]byte("not a segment at all")) // garbage
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)-3] ^= 0x10
	f.Add(flipped) // checksum mismatch in the last record
	version := append([]byte(nil), seed...)
	version[4] = 99
	f.Add(version) // unsupported version
	foreign := appendHeader(nil, 0, 1, "tdigest:c=200")
	f.Add(appendRecord(foreign, []shard.Observation{{Key: "k", Value: 1}})) // fingerprint mismatch

	f.Fuzz(func(t *testing.T, data []byte) {
		run := func() ([][]shard.Observation, *ReplayStats, error) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, segName(0, 1)), data, 0o644); err != nil {
				t.Fatal(err)
			}
			var applied [][]shard.Observation
			rs, err := Replay(dir, testFP, nil, func(obs []shard.Observation) error {
				applied = append(applied, append([]shard.Observation(nil), obs...))
				return nil
			}, nil)
			return applied, rs, err
		}
		applied, rs, err := run()
		if err != nil {
			// The only fatal classes on a pristine read path are the typed
			// mismatch and the version error; corruption must degrade, not
			// fail.
			if len(applied) != 0 {
				t.Fatalf("fatal error %v after applying %d records: replay half-applied", err, len(applied))
			}
			return
		}
		var obsCount uint64
		for _, batch := range applied {
			obsCount += uint64(len(batch))
			for _, o := range batch {
				if len(o.Key) > shard.MaxKeyLen {
					t.Fatalf("replayed key longer than MaxKeyLen: %d", len(o.Key))
				}
			}
		}
		if rs.Records != uint64(len(applied)) || rs.Observations != obsCount {
			t.Fatalf("stats %+v disagree with applied %d records / %d obs", rs, len(applied), obsCount)
		}
		applied2, _, err2 := run()
		if err2 != nil {
			t.Fatalf("second replay failed (%v) after first succeeded", err2)
		}
		if len(applied2) != len(applied) {
			t.Fatalf("replay nondeterministic: %d then %d records", len(applied), len(applied2))
		}
		// Re-encoding the applied batches must reproduce a decodable
		// stream: what replay accepts, the writer could have written.
		for i, batch := range applied {
			enc := appendRecord(nil, batch)
			dec, err := decodePayload(enc[frameSize:], nil)
			if err != nil {
				t.Fatalf("record %d does not round-trip through the encoder: %v", i, err)
			}
			if len(dec) != len(batch) {
				t.Fatalf("record %d round-trips to %d observations, had %d", i, len(dec), len(batch))
			}
		}
	})
}

// FuzzDecodePayload drives the payload decoder directly — the surface a
// checksum collision or hostile segment would reach — against
// decodePayloadRef, the hand-rolled decoder it replaced: both must reach
// the same verdict and, on acceptance, bit-identical observations. The one
// allowed difference is that decodePayload rejects non-finite values.
func FuzzDecodePayload(f *testing.F) {
	valid := appendRecord(nil, []shard.Observation{{Key: "a.b", Value: 1, At: time.Unix(0, 9)}})
	f.Add(valid[frameSize:])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // huge count
	mixed := appendRecord(nil, []shard.Observation{
		{Key: "a", Value: 1, At: time.Unix(0, 5)},
		{Key: "b", Value: -2.5, At: time.Unix(0, 3)},
		{Key: "a", Value: 3, At: time.Unix(0, 1<<40)},
	})
	f.Add(mixed[frameSize:]) // per-observation timestamp deltas
	repeated := appendRecord(nil, []shard.Observation{
		{Key: "us.web", Value: 1}, {Key: "us.db", Value: 2}, {Key: "us.web", Value: 3},
		{Key: "us.db", Value: 4}, {Key: "us.web", Value: 5},
	})
	f.Add(repeated[frameSize:]) // dictionary back-references
	nan := appendRecord(nil, []shard.Observation{{Key: "k", Value: math.NaN()}})
	f.Add(nan[frameSize:])
	f.Fuzz(func(t *testing.T, payload []byte) {
		obs, err := decodePayload(payload, nil)
		ref, refErr := decodePayloadRef(payload, nil)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("decode error %v is not ErrCorrupt", err)
		}
		if err == nil && refErr != nil {
			t.Fatalf("decoder accepts what the reference rejects (%v)", refErr)
		}
		if err != nil && refErr == nil && !hasNonFinite(ref) {
			t.Fatalf("decoder rejects a finite payload the reference accepts: %v", err)
		}
		if err != nil {
			return
		}
		if len(obs) != len(ref) {
			t.Fatalf("decoded %d observations, reference %d", len(obs), len(ref))
		}
		for i := range obs {
			if !identicalObs(obs[i], ref[i]) {
				t.Fatalf("observation %d: %+v, reference %+v", i, obs[i], ref[i])
			}
		}
		// A successful decode must survive an encode/decode round trip
		// semantically (byte-identity would be too strong: the decoder
		// accepts redundant uvarint spellings the encoder never emits).
		enc := appendRecord(nil, obs)
		dec, err := decodePayload(enc[frameSize:], nil)
		if err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		if len(dec) != len(obs) {
			t.Fatalf("round trip changed count: %d -> %d", len(obs), len(dec))
		}
		for i := range obs {
			if !identicalObs(dec[i], obs[i]) {
				t.Fatalf("round trip changed observation %d: %+v -> %+v", i, obs[i], dec[i])
			}
		}
	})
}

// identicalObs compares observations bit for bit.
func identicalObs(a, b shard.Observation) bool {
	return a.Key == b.Key && math.Float64bits(a.Value) == math.Float64bits(b.Value) &&
		a.At.UnixNano() == b.At.UnixNano()
}

func hasNonFinite(obs []shard.Observation) bool {
	for _, o := range obs {
		if math.IsNaN(o.Value) || math.IsInf(o.Value, 0) {
			return true
		}
	}
	return false
}

// TestDecodeRejectsNonFinite: /ingest never admits NaN or ±Inf, so a
// checksum-valid record holding one is corruption — replay stops the
// segment there instead of writing the value into the key's sketch.
func TestDecodeRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rec := appendRecord(nil, []shard.Observation{{Key: "ok", Value: 1}, {Key: "bad", Value: v}})
		if _, err := decodePayload(rec[frameSize:], nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("decoding a record holding %v = %v, want ErrCorrupt", v, err)
		}

		dir := t.TempDir()
		seg := appendHeader(nil, 0, 1, testFP)
		seg = appendRecord(seg, []shard.Observation{{Key: "ok", Value: 1}})
		seg = append(seg, rec...)
		seg = appendRecord(seg, []shard.Observation{{Key: "after", Value: 2}})
		if err := os.WriteFile(filepath.Join(dir, segName(0, 1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		var applied []shard.Observation
		rs, err := Replay(dir, testFP, nil, func(obs []shard.Observation) error {
			applied = append(applied, obs...)
			return nil
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(applied) != 1 || applied[0].Key != "ok" || rs.TornSegments != 1 {
			t.Errorf("replay over a %v record applied %+v (stats %+v), want only the record before it", v, applied, rs)
		}
	}
}

// decodePayloadRef is the record decoder as it stood before decodePayload
// moved onto encoding.Reader, kept verbatim as FuzzDecodePayload's
// differential reference.
func decodePayloadRef(payload []byte, dst []shard.Observation) ([]shard.Observation, error) {
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return dst, fmt.Errorf("%w: bad record count", ErrCorrupt)
	}
	rest := payload[n:]
	if count > uint64(len(rest)/minObsBytes)+1 {
		return dst, fmt.Errorf("%w: implausible record count %d", ErrCorrupt, count)
	}
	if count == 0 {
		if len(rest) != 0 {
			return dst, fmt.Errorf("%w: %d trailing bytes in record", ErrCorrupt, len(rest))
		}
		return dst, nil
	}
	base, n := binary.Varint(rest)
	if n <= 0 {
		return dst, fmt.Errorf("%w: bad base timestamp", ErrCorrupt)
	}
	rest = rest[n:]
	if len(rest) < 1 || rest[0] > 1 {
		return dst, fmt.Errorf("%w: bad uniform-timestamp flag", ErrCorrupt)
	}
	uniform := rest[0] == 1
	rest = rest[1:]
	var dict []string
	for i := uint64(0); i < count; i++ {
		token, n := binary.Uvarint(rest)
		if n <= 0 {
			return dst, fmt.Errorf("%w: bad key token", ErrCorrupt)
		}
		rest = rest[n:]
		var key string
		if token == 0 {
			keyLen, n := binary.Uvarint(rest)
			if n <= 0 {
				return dst, fmt.Errorf("%w: bad key length", ErrCorrupt)
			}
			rest = rest[n:]
			if keyLen > shard.MaxKeyLen || keyLen > uint64(len(rest)) {
				return dst, fmt.Errorf("%w: implausible key length %d", ErrCorrupt, keyLen)
			}
			key = string(rest[:keyLen])
			rest = rest[keyLen:]
			dict = append(dict, key)
		} else {
			if token > uint64(len(dict)) {
				return dst, fmt.Errorf("%w: key token %d beyond dictionary of %d", ErrCorrupt, token, len(dict))
			}
			key = dict[token-1]
		}
		vbits, n := binary.Uvarint(rest)
		if n <= 0 {
			return dst, fmt.Errorf("%w: bad value", ErrCorrupt)
		}
		rest = rest[n:]
		value := math.Float64frombits(bits.ReverseBytes64(vbits))
		delta := int64(0)
		if !uniform {
			delta, n = binary.Varint(rest)
			if n <= 0 {
				return dst, fmt.Errorf("%w: bad timestamp delta", ErrCorrupt)
			}
			rest = rest[n:]
		}
		dst = append(dst, shard.Observation{Key: key, Value: value, At: time.Unix(0, base+delta)})
	}
	if len(rest) != 0 {
		return dst, fmt.Errorf("%w: %d trailing bytes in record", ErrCorrupt, len(rest))
	}
	return dst, nil
}

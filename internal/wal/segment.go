package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/maphash"
	"io"
	"math"
	"math/bits"
	"os"
	"time"

	"repro/internal/encoding"
	"repro/internal/shard"
)

// Segment format constants. See the package comment for the layout.
const (
	segMagic   = "MWAL"
	segVersion = 1
	segSuffix  = ".wal"

	// frameSize is the fixed record frame: u32le payload length, u32le
	// CRC32C of the payload.
	frameSize = 8

	// maxRecordBytes caps one record's payload. A record is one ingest
	// batch; the HTTP body cap (32 MiB of JSON) keeps real batches well
	// under this, so anything larger in a segment is corruption, not data.
	maxRecordBytes = 1 << 26

	// maxFingerprint bounds the backend fingerprint in a segment header,
	// mirroring the snapshot format's cap.
	maxFingerprint = 256

	// minObsBytes is the smallest encodable observation (a one-byte
	// dictionary token and a one-byte value, with the timestamp delta
	// elided in a uniform-timestamp record). Decode uses it to reject
	// implausible observation counts before allocating.
	minObsBytes = 2
)

// castagnoli is the CRC32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt marks a structurally invalid segment header or record.
// Replay treats it as a torn tail — stop the segment, keep serving —
// rather than a startup failure.
var ErrCorrupt = errors.New("wal: corrupt segment data")

// ErrMismatch marks a segment whose header fingerprint does not match the
// store backend. Unlike corruption it is a hard replay error: merging
// observations logged for a differently parameterized backend would
// silently skew every summary.
var ErrMismatch = errors.New("wal: segment backend fingerprint does not match store")

// segFile is the file surface a stripe log writes through. Tests inject
// failing implementations to exercise ENOSPC and fsync-failure paths.
type segFile interface {
	io.Writer
	Sync() error
	Close() error
}

// openSegFile creates a new segment file; failing if it already exists
// (sequence numbers never repeat, so a collision means a bookkeeping bug).
func openSegFile(path string) (segFile, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
}

// segName formats a segment file name: stripe id, then a sortable
// zero-padded sequence number.
func segName(stripe int, seq uint64) string {
	return fmt.Sprintf("%03d-%012d%s", stripe, seq, segSuffix)
}

// parseSegName parses a segment file name; ok is false for foreign files.
func parseSegName(name string) (stripe int, seq uint64, ok bool) {
	if len(name) != 3+1+12+len(segSuffix) || name[3] != '-' || name[len(name)-len(segSuffix):] != segSuffix {
		return 0, 0, false
	}
	for _, c := range name[:3] {
		if c < '0' || c > '9' {
			return 0, 0, false
		}
		stripe = stripe*10 + int(c-'0')
	}
	for _, c := range name[4 : 4+12] {
		if c < '0' || c > '9' {
			return 0, 0, false
		}
		seq = seq*10 + uint64(c-'0')
	}
	return stripe, seq, true
}

// appendHeader appends a segment header for the stripe/seq/fingerprint.
func appendHeader(dst []byte, stripe int, seq uint64, fingerprint string) []byte {
	start := len(dst)
	dst = append(dst, segMagic...)
	dst = append(dst, segVersion)
	dst = binary.AppendUvarint(dst, uint64(stripe))
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(len(fingerprint)))
	dst = append(dst, fingerprint...)
	crc := crc32.Checksum(dst[start+len(segMagic):], castagnoli)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// segHeader is a decoded segment header.
type segHeader struct {
	stripe      int
	seq         uint64
	fingerprint string
	size        int64 // encoded header length in bytes
}

// maxHeaderBytes bounds an encoded segment header: magic, version, two
// maximal uvarints, a two-byte fingerprint length, the longest
// fingerprint and the CRC.
const maxHeaderBytes = len(segMagic) + 1 + 2*binary.MaxVarintLen64 + 2 + maxFingerprint + 4

// readHeader decodes and checks a segment header from br, consuming it.
func readHeader(br *bufio.Reader) (segHeader, error) {
	var h segHeader
	// A short file peeks fewer bytes; the parse below then fails short.
	buf, _ := br.Peek(maxHeaderBytes)
	if len(buf) < len(segMagic) || string(buf[:len(segMagic)]) != segMagic {
		return h, fmt.Errorf("%w: short header or bad magic", ErrCorrupt)
	}
	// Everything after the magic, up to the CRC, is checksummed.
	r := encoding.Reader{Data: buf[len(segMagic):]}
	if version := r.Byte(); r.Err == nil && version != segVersion {
		return h, fmt.Errorf("wal: unsupported segment version %d", version)
	}
	stripe := r.Uvarint()
	seq := r.Uvarint()
	fp := r.Str()
	if r.Err != nil || len(fp) > maxFingerprint || len(r.Data) < 4 {
		return h, fmt.Errorf("%w: short or malformed header", ErrCorrupt)
	}
	body := buf[len(segMagic) : len(buf)-len(r.Data)]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(r.Data) {
		return h, fmt.Errorf("%w: header checksum mismatch", ErrCorrupt)
	}
	size := len(segMagic) + len(body) + 4
	_, _ = br.Discard(size) // cannot fail: Peek returned these bytes
	return segHeader{stripe: int(stripe), seq: seq, fingerprint: fp, size: int64(size)}, nil
}

// dictBits sizes the encoder's key-dictionary table: 1024 slots, far more
// than the distinct keys of an ingest-shaped batch, so probe chains stay
// short at realistic load factors.
const dictBits = 10

// dictTab is the encoder's reusable key dictionary: an open-addressed
// table mapping a key to its record-local dictionary id. Encoding is on
// the ingest critical path — a Go map's insert/grow churn per record
// rivals the store apply itself at batch scale — so the table hashes with
// maphash (runtime AES, a few ns on short keys), probes linearly, and
// confirms with a string compare that in the common case is a
// pointer-equality hit on the very string the batch retained. Epoch
// stamping makes per-record reset free. The table is best-effort: a probe
// chain longer than dictProbes falls back to re-introducing the key
// inline, which costs bytes, never correctness (the decoder assigns ids
// by introduction order and accepts a key introduced twice).
type dictTab struct {
	epoch uint32
	seed  maphash.Seed
	slots [1 << dictBits]dictSlot
}

type dictSlot struct {
	key   string
	id    uint32
	epoch uint32
}

// dictProbes caps the linear probe chain; beyond it the encoder stops
// deduplicating that key.
const dictProbes = 8

// reset invalidates every slot in O(1) by advancing the epoch.
func (t *dictTab) reset() {
	if t.epoch == 0 {
		t.seed = maphash.MakeSeed()
	}
	t.epoch++
	if t.epoch == 0 { // wrapped: stale epochs could false-hit, really clear
		clear(t.slots[:])
		t.epoch = 1
	}
}

// appendRecord appends one framed record holding the batch, using a
// throwaway dictionary table. Hot paths (stripeLog.append) hold a reused
// table and call appendRecordDict directly.
func appendRecord(dst []byte, obs []shard.Observation) []byte {
	return appendRecordDict(dst, obs, new(dictTab))
}

// appendRecordDict appends one framed record holding the batch. The
// payload dictionary-encodes keys (a batch touches few distinct keys many
// times) and delta-encodes timestamps against the record's first
// observation (commit stamps a whole batch with one instant) — on
// ingest-shaped batches that cuts record bytes roughly 3×, which matters
// because sustained WAL throughput is device-bandwidth-bound.
func appendRecordDict(dst []byte, obs []shard.Observation, tab *dictTab) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = binary.AppendUvarint(dst, uint64(len(obs)))
	if len(obs) > 0 {
		// Commit stamps a whole batch with one instant, so encode
		// optimistically as a uniform-timestamp record (one flag bit drops
		// every per-observation delta byte) and redo with deltas in the
		// rare mixed-timestamp batch.
		mark := len(dst)
		out, ok := appendObsPayload(dst, obs, tab, true)
		if !ok {
			out, _ = appendObsPayload(out[:mark], obs, tab, false)
		}
		dst = out
	}
	payload := dst[start+frameSize:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// appendObsPayload appends the post-count record payload: base timestamp,
// uniform flag, then the observations. With uniform true it bails out
// (returning false) at the first observation whose instant differs from
// the base; the caller retries with uniform false.
func appendObsPayload(dst []byte, obs []shard.Observation, tab *dictTab, uniform bool) ([]byte, bool) {
	base := obs[0].At.UnixNano()
	dst = binary.AppendVarint(dst, base)
	if uniform {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	tab.reset()
	const mask = 1<<dictBits - 1
	var nextID uint32
	prevKey, prevID := "", uint32(0)
	for i := range obs {
		o := &obs[i]
		delta := o.At.UnixNano() - base
		if uniform && delta != 0 {
			return dst, false
		}
		var id uint32
		if o.Key == prevKey && prevID != 0 {
			id = prevID
		} else {
			var free *dictSlot
			slot := uint32(maphash.String(tab.seed, o.Key)) & mask
			for probe := uint32(0); probe < dictProbes; probe++ {
				s := &tab.slots[(slot+probe)&mask]
				if s.epoch != tab.epoch {
					free = s
					break
				}
				if s.key == o.Key {
					id = s.id
					break
				}
			}
			if id == 0 {
				// Introduction: it consumes the next decoder-assigned id
				// whether or not a free slot remembers it.
				nextID++
				if free != nil {
					free.key, free.id, free.epoch = o.Key, nextID, tab.epoch
				}
			}
		}
		if id != 0 {
			dst = binary.AppendUvarint(dst, uint64(id))
			prevID = id
		} else {
			dst = append(dst, 0)
			dst = binary.AppendUvarint(dst, uint64(len(o.Key)))
			dst = append(dst, o.Key...)
			prevID = nextID
		}
		prevKey = o.Key
		// Byte-reversed float bits put the (usually zero) low mantissa
		// bytes in the uvarint's high positions: values with few
		// significant digits — counters, millisecond latencies — encode
		// in two or three bytes instead of eight.
		dst = binary.AppendUvarint(dst, bits.ReverseBytes64(math.Float64bits(o.Value)))
		if !uniform {
			dst = binary.AppendVarint(dst, delta)
		}
	}
	return dst, true
}

// decodePayload decodes a record payload into observations (appended to
// dst, which may be nil). It validates every bound before allocating, so
// hostile payloads cannot pin implausible memory, and it rejects trailing
// bytes — a checksum-valid payload that does not decode exactly is
// corruption, not data. So is a NaN or infinite value: ingest never admits
// one, and replaying it would poison the key's sketch.
func decodePayload(payload []byte, dst []shard.Observation) ([]shard.Observation, error) {
	r := encoding.Reader{Data: payload}
	count := r.Uvarint()
	if count > uint64(len(r.Data)/minObsBytes)+1 {
		r.Fail()
	}
	if count > 0 {
		base := r.Varint()
		uniform := r.Byte()
		if uniform > 1 {
			r.Fail()
		}
		var dict []string
		for i := uint64(0); i < count && r.Err == nil; i++ {
			var key string
			if token := r.Uvarint(); token == 0 {
				key = r.Str()
				dict = append(dict, key)
				if len(key) > shard.MaxKeyLen {
					r.Fail()
				}
			} else if token <= uint64(len(dict)) {
				key = dict[token-1]
			} else {
				r.Fail()
			}
			value := math.Float64frombits(bits.ReverseBytes64(r.Uvarint()))
			if math.IsNaN(value) || math.IsInf(value, 0) {
				r.Fail()
			}
			var delta int64
			if uniform == 0 {
				delta = r.Varint()
			}
			dst = append(dst, shard.Observation{Key: key, Value: value, At: time.Unix(0, base+delta)})
		}
	}
	if err := r.Done(); err != nil {
		return dst, fmt.Errorf("%w: undecodable record payload", ErrCorrupt)
	}
	return dst, nil
}

// SyncDir fsyncs a directory, making renames and unlinks within it
// durable. Snapshot saves and segment rotation share it: without the
// directory sync an os.Rename or newly created segment can vanish in a
// crash even though the file's own contents were fsynced.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Watermark footer: momentsd appends it to snapshot files after the
// store's own trailer (which Restore ignores trailing bytes beyond), so
// the snapshot rename atomically commits both the store contents and the
// per-stripe WAL cut the snapshot covers. Layout:
//
//	"MWCP" | uvarint nstripes | nstripes × uvarint cut seq | u32le CRC32C
//	  ... | u32le payload length | "MWCP"
//
// where the payload runs from the leading magic through the CRC. The
// trailing fixed eight bytes let a reader find the footer from the end of
// the file without parsing the snapshot.
const wmMagic = "MWCP"

// maxWatermarkStripes bounds a watermark read; far above any real stripe
// count, it only rejects garbage lengths.
const maxWatermarkStripes = 1 << 16

// AppendWatermark writes a watermark footer recording the per-stripe cut
// sequence numbers to w.
func AppendWatermark(w io.Writer, cuts []uint64) error {
	var buf []byte
	buf = append(buf, wmMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(cuts)))
	for _, c := range cuts {
		buf = binary.AppendUvarint(buf, c)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(buf)))
	buf = append(buf, wmMagic...)
	_, err := w.Write(buf)
	return err
}

// ReadWatermark reads the watermark footer from the snapshot file at
// path. A missing file, or a file without a (valid) footer, returns
// (nil, nil): the caller replays every segment, which can never lose
// data — at worst it re-replays segments an unwatermarked snapshot
// already contains, and only a watermark written atomically with its
// snapshot prevents that.
func ReadWatermark(path string) ([]uint64, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < 8 {
		return nil, nil
	}
	var tail [8]byte
	if _, err := f.ReadAt(tail[:], st.Size()-8); err != nil {
		return nil, err
	}
	if string(tail[4:]) != wmMagic {
		return nil, nil
	}
	payloadLen := int64(binary.LittleEndian.Uint32(tail[:4]))
	if payloadLen < int64(len(wmMagic))+1+4 || payloadLen > st.Size()-8 || payloadLen > 8+10*maxWatermarkStripes {
		return nil, nil
	}
	payload := make([]byte, payloadLen)
	if _, err := f.ReadAt(payload, st.Size()-8-payloadLen); err != nil {
		return nil, err
	}
	if string(payload[:len(wmMagic)]) != wmMagic {
		return nil, nil
	}
	body := payload[:payloadLen-4]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(payload[payloadLen-4:]) {
		return nil, nil
	}
	r := encoding.Reader{Data: body[len(wmMagic):]}
	cuts := make([]uint64, r.Count())
	for i := range cuts {
		cuts[i] = r.Uvarint()
	}
	if r.Done() != nil {
		return nil, nil
	}
	return cuts, nil
}

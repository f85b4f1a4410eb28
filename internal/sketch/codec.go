package sketch

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/encoding"
	"repro/moments"
)

// Envelope tags, one per serializable backend family. The moments sketch's
// own layout (internal/encoding's "MS" magic) is self-describing,
// so moments payloads travel bare — byte-identical to every earlier release
// — and only the other families wrap in internal/encoding's tagged
// envelope.
const (
	tagMoments  byte = 1
	tagMerge12  byte = 2
	tagTDigest  byte = 3
	tagSampling byte = 4
)

// maxCodecItems bounds any single decoded slice length, so a corrupt or
// hostile payload cannot demand an arbitrary allocation before failing.
const maxCodecItems = 1 << 22

// Marshal serializes a serving summary of this backend's family. The
// moments backend emits the bare full-precision moments layout; the other
// families emit their payload wrapped in the tagged envelope.
func (b Backend) Marshal(s Serving) ([]byte, error) {
	switch b.tag {
	case tagMoments:
		m, ok := s.(*MSketch)
		if !ok {
			return nil, ErrTypeMismatch
		}
		return encoding.Marshal(m.S.Raw()), nil
	case tagMerge12:
		m, ok := s.(*Merge12)
		if !ok {
			return nil, ErrTypeMismatch
		}
		return encoding.MarshalEnvelope(tagMerge12, m.appendPayload(nil)), nil
	case tagTDigest:
		t, ok := s.(*TDigest)
		if !ok {
			return nil, ErrTypeMismatch
		}
		return encoding.MarshalEnvelope(tagTDigest, t.appendPayload(nil)), nil
	case tagSampling:
		sa, ok := s.(*Sampling)
		if !ok {
			return nil, ErrTypeMismatch
		}
		return encoding.MarshalEnvelope(tagSampling, sa.appendPayload(nil)), nil
	}
	return nil, fmt.Errorf("sketch: backend %s has no codec", b.Fingerprint())
}

// Unmarshal decodes a summary previously produced by Marshal on the same
// backend family and parameter; a payload of another family or parameter
// is ErrTypeMismatch. Moments accepts only the full-precision bare layout
// Marshal writes — not the low-precision "ML" one, which no serving path
// emits — and only vectors Add and Merge can produce (encoding.Unmarshal);
// other families require the envelope.
func (b Backend) Unmarshal(data []byte) (Serving, error) {
	if b.tag == tagMoments {
		if encoding.IsEnveloped(data) {
			return nil, ErrTypeMismatch
		}
		raw, err := encoding.Unmarshal(data)
		if err != nil {
			return nil, err
		}
		if raw.K != b.param {
			return nil, ErrTypeMismatch
		}
		return &MSketch{S: moments.FromRaw(raw)}, nil
	}
	tag, payload, err := encoding.UnmarshalEnvelope(data)
	if err != nil {
		return nil, err
	}
	if tag != b.tag {
		return nil, ErrTypeMismatch
	}
	switch tag {
	case tagMerge12:
		return unmarshalMerge12(payload, b.param)
	case tagTDigest:
		return unmarshalTDigest(payload, b.param)
	case tagSampling:
		return unmarshalSampling(payload, b.param)
	}
	return nil, fmt.Errorf("sketch: backend %s has no codec", b.Fingerprint())
}

// --- little codec helpers -------------------------------------------------

func appendF64s(buf []byte, vs []float64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vs)))
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// readCount reads a collection length: bounded by the remaining payload
// like every encoding.Reader count, and by maxCodecItems on top.
func readCount(r *encoding.Reader) int {
	n := r.Count()
	if n > maxCodecItems {
		r.Fail()
		return 0
	}
	return n
}

// readF64s reads a length-prefixed float slice, checking the claimed length
// against the remaining payload before allocating, so a tiny hostile record
// cannot demand a large buffer.
func readF64s(r *encoding.Reader) []float64 {
	n := readCount(r)
	if r.Err != nil || n == 0 {
		return nil
	}
	if len(r.Data) < 8*n {
		r.Fail()
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.F64()
	}
	return out
}

// --- Merge12 --------------------------------------------------------------

// payload: k, n, base, levelCount, per level (present flag as length with
// ^0 sentinel for nil), rng.
func (s *Merge12) appendPayload(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(s.k))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.n))
	buf = appendF64s(buf, s.base)
	buf = binary.AppendUvarint(buf, uint64(len(s.levels)))
	for _, lvl := range s.levels {
		if lvl == nil {
			buf = binary.AppendUvarint(buf, 0)
			continue
		}
		buf = appendF64s(buf, lvl)
	}
	buf = binary.AppendUvarint(buf, s.rng)
	return buf
}

func unmarshalMerge12(payload []byte, wantK int) (*Merge12, error) {
	r := &encoding.Reader{Data: payload}
	gotK := r.Uvarint()
	n := r.F64()
	base := readF64s(r)
	numLevels := readCount(r)
	var levels [][]float64
	if numLevels > 0 { // readCount checked that ≥ 1 byte per level remains
		levels = make([][]float64, numLevels)
		for i := range levels {
			levels[i] = readF64s(r)
		}
	}
	rng := r.Uvarint()
	if err := r.Done(); err != nil {
		return nil, err
	}
	// The buffer parameter must match the decoding backend's own: a payload
	// cannot smuggle in a different k — which also bounds the base-buffer
	// allocation to what the operator configured.
	if gotK != uint64(wantK) {
		return nil, ErrTypeMismatch
	}
	k := wantK
	if k < 2 || k%2 == 1 || len(base) > 2*k || n < 0 {
		return nil, encoding.ErrCorrupt
	}
	for _, lvl := range levels {
		if lvl != nil && len(lvl) != k {
			return nil, encoding.ErrCorrupt
		}
	}
	out := NewMerge12(k)
	out.n = n
	out.base = append(out.base, base...)
	out.levels = levels
	out.rng = rng
	return out, nil
}

// --- TDigest --------------------------------------------------------------

// payload: compression, n, min, max, centroid count, (mean, count) pairs.
// The scratch buffer is flushed before encoding, so only centroids travel.
func (t *TDigest) appendPayload(buf []byte) []byte {
	t.compress()
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.compression))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.n))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.min))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.max))
	buf = binary.AppendUvarint(buf, uint64(len(t.cs)))
	for _, c := range t.cs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.mean))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.count))
	}
	return buf
}

func unmarshalTDigest(payload []byte, wantCompression int) (*TDigest, error) {
	r := &encoding.Reader{Data: payload}
	compression := r.F64()
	n := r.F64()
	min, max := r.F64(), r.F64()
	numCs := readCount(r)
	var cs []tdCentroid
	if r.Err == nil && numCs > 0 {
		if len(r.Data) < 16*numCs {
			r.Fail()
		} else {
			cs = make([]tdCentroid, numCs)
			for i := range cs {
				cs[i] = tdCentroid{mean: r.F64(), count: r.F64()}
			}
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	// The compression must match the decoding backend's own: an unbounded
	// payload value would otherwise size the constructor's scratch buffer
	// (and can overflow the int conversion outright).
	if compression != float64(wantCompression) {
		return nil, ErrTypeMismatch
	}
	if !(compression >= 10) || math.IsNaN(n) || n < 0 {
		return nil, encoding.ErrCorrupt
	}
	out := NewTDigest(compression)
	out.n = n
	out.min, out.max = min, max
	out.cs = cs
	return out, nil
}

// --- Sampling -------------------------------------------------------------

// payload: reservoir size, n, items, rng.
func (s *Sampling) appendPayload(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(s.size))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.n))
	buf = appendF64s(buf, s.items)
	buf = binary.AppendUvarint(buf, s.rng)
	return buf
}

func unmarshalSampling(payload []byte, wantSize int) (*Sampling, error) {
	r := &encoding.Reader{Data: payload}
	gotSize := r.Uvarint()
	n := r.F64()
	items := readF64s(r)
	rng := r.Uvarint()
	if err := r.Done(); err != nil {
		return nil, err
	}
	// The reservoir size must match the decoding backend's own, bounding
	// the reservoir allocation to what the operator configured.
	if gotSize != uint64(wantSize) {
		return nil, ErrTypeMismatch
	}
	size := wantSize
	if size < 1 || len(items) > size || math.IsNaN(n) || n < 0 {
		return nil, encoding.ErrCorrupt
	}
	out := NewSampling(size)
	out.n = n
	out.items = append(out.items, items...)
	out.rng = rng
	return out, nil
}

package encoding

import (
	"encoding/binary"
	"math"

	"repro/internal/core"
)

// Low-precision codec (Appendix C): the 2k power sums are stored with a
// reduced mantissa using randomized rounding, while the four header
// statistics (min, max, count, logCount) stay exact. Each reduced value
// occupies 1 sign bit + 11 exponent bits + mantissaBits mantissa bits.
//
// Randomized rounding keeps the quantization unbiased: the mantissa tail is
// rounded up with probability proportional to its value, driven by a
// deterministic hash of the full bit pattern so encoding is reproducible.

// BitsPerValue returns the storage cost per reduced value for a mantissa
// width, matching the x-axis of Fig. 17.
func BitsPerValue(mantissaBits int) int { return 12 + mantissaBits }

// MarshalLowPrecision encodes s keeping only mantissaBits (in [0, 52]) of
// each power sum's significand.
func MarshalLowPrecision(s *core.Sketch, mantissaBits int) []byte {
	if mantissaBits < 0 {
		mantissaBits = 0
	}
	if mantissaBits > 52 {
		mantissaBits = 52
	}
	nVals := 2 * s.K
	bitLen := nVals * (12 + mantissaBits)
	buf := make([]byte, 5+4*8+(bitLen+7)/8)
	binary.LittleEndian.PutUint16(buf[0:], magicLow)
	buf[2] = version
	buf[3] = byte(s.K)
	buf[4] = byte(mantissaBits)
	off := 5
	for _, v := range []float64{s.Min, s.Max, s.Count, s.LogCount} {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
		off += 8
	}
	w := bitWriter{buf: buf[off:]}
	for _, v := range s.Pow {
		w.writeBits(reduce(v, mantissaBits), 12+mantissaBits)
	}
	for _, v := range s.LogPow {
		w.writeBits(reduce(v, mantissaBits), 12+mantissaBits)
	}
	return buf
}

// UnmarshalLowPrecision decodes a sketch produced by MarshalLowPrecision.
// Like Unmarshal it refuses, with ErrCorrupt, a vector no sequence of
// in-domain adds and merges produces (see inDomain).
func UnmarshalLowPrecision(data []byte) (*core.Sketch, error) {
	if len(data) < 5 || binary.LittleEndian.Uint16(data) != magicLow {
		return nil, ErrCorrupt
	}
	k := int(data[3])
	mbits := int(data[4])
	if k < 1 || k > core.MaxK || mbits > 52 {
		return nil, ErrCorrupt
	}
	nVals := 2 * k
	need := 5 + 32 + (nVals*(12+mbits)+7)/8
	if len(data) < need {
		return nil, ErrCorrupt
	}
	s := core.New(k)
	off := 5
	get := func() float64 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		off += 8
		return v
	}
	s.Min = get()
	s.Max = get()
	s.Count = get()
	s.LogCount = get()
	r := bitReader{buf: data[off:]}
	for i := 0; i < k; i++ {
		s.Pow[i] = expand(r.readBits(12+mbits), mbits)
	}
	for i := 0; i < k; i++ {
		s.LogPow[i] = expand(r.readBits(12+mbits), mbits)
	}
	if !inDomain(s) {
		return nil, ErrCorrupt
	}
	return s, nil
}

// reduce packs a float64 into sign(1)+exp(11)+mantissa(mbits) with
// randomized rounding of the dropped mantissa tail.
func reduce(v float64, mbits int) uint64 {
	bits := math.Float64bits(v)
	sign := bits >> 63
	exp := (bits >> 52) & 0x7FF
	man := bits & ((1 << 52) - 1)
	drop := 52 - mbits
	if drop > 0 && exp != 0x7FF { // don't touch Inf/NaN payloads
		tail := man & ((1 << drop) - 1)
		man >>= drop
		// Round up with probability tail / 2^drop using a deterministic
		// hash of the original bits as the uniform source — except where the
		// carry would reach the Inf exponent: the largest finite values
		// round down, so an in-domain sketch always decodes.
		if tail != 0 && !(exp == 0x7FE && man == 1<<mbits-1) {
			r := splitmix64(bits) & ((1 << drop) - 1)
			if r < tail {
				man++
				if man >= 1<<mbits { // mantissa overflow: bump exponent
					man = 0
					exp++
				}
			}
		}
	} else if drop > 0 {
		man >>= drop
	}
	return sign<<(11+uint(mbits)) | exp<<uint(mbits) | man
}

// expand reverses reduce (with zeros in the dropped mantissa bits).
func expand(packed uint64, mbits int) float64 {
	sign := packed >> (11 + uint(mbits))
	exp := (packed >> uint(mbits)) & 0x7FF
	man := packed & ((1 << mbits) - 1)
	return math.Float64frombits(sign<<63 | exp<<52 | man<<(52-uint(mbits)))
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

type bitWriter struct {
	buf []byte
	pos int // bit position
}

func (w *bitWriter) writeBits(v uint64, n int) {
	for i := n - 1; i >= 0; i-- {
		if v>>uint(i)&1 == 1 {
			w.buf[w.pos/8] |= 1 << uint(7-w.pos%8)
		}
		w.pos++
	}
}

type bitReader struct {
	buf []byte
	pos int
}

func (r *bitReader) readBits(n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v <<= 1
		if r.buf[r.pos/8]>>uint(7-r.pos%8)&1 == 1 {
			v |= 1
		}
		r.pos++
	}
	return v
}

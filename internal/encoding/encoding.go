package encoding

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
)

// Format identifiers.
const (
	magicFull = 0x4D53 // "MS"
	magicLow  = 0x4D4C // "ML"
	version   = 1
)

// ErrCorrupt is returned for malformed input.
var ErrCorrupt = errors.New("encoding: corrupt sketch data")

// Marshal encodes a sketch at full precision. The layout is
//
//	magic(2) version(1) k(1) | min max count logCount Pow[0..k) LogPow[0..k)
//
// with all floats little-endian float64: 4 + (2k+4)·8 bytes — 196 bytes at
// the paper's k = 10.
func Marshal(s *core.Sketch) []byte {
	buf := make([]byte, 4+(2*s.K+4)*8)
	binary.LittleEndian.PutUint16(buf[0:], magicFull)
	buf[2] = version
	buf[3] = byte(s.K)
	off := 4
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
		off += 8
	}
	put(s.Min)
	put(s.Max)
	put(s.Count)
	put(s.LogCount)
	for _, v := range s.Pow {
		put(v)
	}
	for _, v := range s.LogPow {
		put(v)
	}
	return buf
}

// Unmarshal decodes a sketch produced by Marshal. A well-formed record
// holding a vector that Add and Merge of values inside core.MaxAbs cannot
// produce (see inDomain) is ErrCorrupt too: every decoded sketch is one the
// estimators and bounds are built for.
func Unmarshal(data []byte) (*core.Sketch, error) {
	if len(data) < 4 || binary.LittleEndian.Uint16(data) != magicFull {
		return nil, ErrCorrupt
	}
	if data[2] != version {
		return nil, fmt.Errorf("encoding: unsupported version %d", data[2])
	}
	k := int(data[3])
	if k < 1 || k > core.MaxK || len(data) != 4+(2*k+4)*8 {
		return nil, ErrCorrupt
	}
	s := core.New(k)
	off := 4
	get := func() float64 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		off += 8
		return v
	}
	s.Min = get()
	s.Max = get()
	s.Count = get()
	s.LogCount = get()
	for i := 0; i < k; i++ {
		s.Pow[i] = get()
	}
	for i := 0; i < k; i++ {
		s.LogPow[i] = get()
	}
	if !inDomain(s) {
		return nil, ErrCorrupt
	}
	return s, nil
}

// inDomain reports whether s is a vector in-domain adds and merges can
// produce: no NaN anywhere, a Count in [0, core.MaxCount], finite LogCount
// and power sums, and finite Min and Max once anything was added (an empty
// sketch keeps Min = +Inf, Max = -Inf).
func inDomain(s *core.Sketch) bool {
	if !(s.Count >= 0 && s.Count <= core.MaxCount) || !finite(s.LogCount) ||
		math.IsNaN(s.Min) || math.IsNaN(s.Max) {
		return false
	}
	if s.Count > 0 && !(finite(s.Min) && finite(s.Max)) {
		return false
	}
	for i := range s.Pow {
		if !finite(s.Pow[i]) || !finite(s.LogPow[i]) {
			return false
		}
	}
	return true
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

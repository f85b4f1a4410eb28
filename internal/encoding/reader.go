package encoding

import (
	"encoding/binary"
	"math"
)

// Reader walks a length-prefixed binary payload — a partials frame, or one
// of internal/sketch's backend-codec payloads — latching the first error.
// Every count is validated against the remaining input before use, so no
// claimed length can drive an allocation larger than the payload itself.
type Reader struct {
	// Data is the unread remainder; Err is the first failure (ErrCorrupt),
	// after which every read returns a zero value.
	Data []byte
	Err  error
}

// Fail latches ErrCorrupt and drops the remaining input.
func (r *Reader) Fail() {
	if r.Err == nil {
		r.Err = ErrCorrupt
	}
	r.Data = nil
}

// Uvarint reads one unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.Data)
	if n <= 0 {
		r.Fail()
		return 0
	}
	r.Data = r.Data[n:]
	return v
}

// Varint reads one signed (zig-zag) varint.
func (r *Reader) Varint() int64 {
	if r.Err != nil {
		return 0
	}
	v, n := binary.Varint(r.Data)
	if n <= 0 {
		r.Fail()
		return 0
	}
	r.Data = r.Data[n:]
	return v
}

// Count reads a collection length, rejecting claims that exceed the
// remaining input (every counted item occupies at least one byte).
func (r *Reader) Count() int {
	v := r.Uvarint()
	if r.Err != nil {
		return 0
	}
	if v > uint64(len(r.Data)) {
		r.Fail()
		return 0
	}
	return int(v)
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.Err != nil {
		return 0
	}
	if len(r.Data) < 1 {
		r.Fail()
		return 0
	}
	b := r.Data[0]
	r.Data = r.Data[1:]
	return b
}

// F64 reads one little-endian IEEE-754 bit pattern.
func (r *Reader) F64() float64 {
	if r.Err != nil {
		return 0
	}
	if len(r.Data) < 8 {
		r.Fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.Data))
	r.Data = r.Data[8:]
	return v
}

// Bytes reads a length-prefixed byte field, copying out of the payload so
// the result does not alias the (possibly pooled) input buffer.
func (r *Reader) Bytes() []byte {
	n := r.Count()
	if r.Err != nil || n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, r.Data[:n])
	r.Data = r.Data[n:]
	return out
}

// Str reads a length-prefixed string field.
func (r *Reader) Str() string {
	n := r.Count()
	if r.Err != nil || n == 0 {
		return ""
	}
	s := string(r.Data[:n])
	r.Data = r.Data[n:]
	return s
}

// Done returns the latched error, or ErrCorrupt when input remains unread.
func (r *Reader) Done() error {
	if r.Err != nil {
		return r.Err
	}
	if len(r.Data) != 0 {
		return ErrCorrupt
	}
	return nil
}

package encoding

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Partials framing: the scatter-gather wire format.
//
// A coordinator fans /v1/query selections out to shard nodes; each node
// answers with per-selection partial aggregates — merged rollup summaries in
// the backend's own codec — framed by this layout so N small vectors cross
// the network instead of raw data (the paper's O(k) mergeability, §1):
//
//	magic(2)="MP" version(1)
//	backend fingerprint: str
//	set count: uvarint
//	per set:
//	  code: str   (empty = success; otherwise a query error code)
//	  message: str
//	  group count: uvarint
//	  per group:
//	    label: str
//	    keys: uvarint
//	    window flag: byte (0/1); if 1: start f64, end f64, panes uvarint
//	    payload: bytes (str framing; a backend-codec summary)
//
// where str is uvarint length + raw bytes, integers are little-endian and
// f64 is an IEEE-754 bit pattern. Every claimed length is checked against
// the remaining input before any allocation, so a truncated or hostile
// payload fails with ErrCorrupt instead of demanding memory it never sent;
// the summary payloads themselves stay opaque here and are re-validated by
// the backend codec (internal/sketch) on decode.
const (
	magicPartials   = 0x504D // "MP"
	versionPartials = 1
)

// PartialGroup is one rollup of a partials response: the group metadata a
// coordinator needs to line partials up across nodes, plus the opaque
// backend-codec payload of the node's merged summary.
type PartialGroup struct {
	// Label is the group's label: a group-by segment value or a window's
	// RFC 3339 start instant (empty for plain key/prefix selections).
	Label string
	// Keys counts the per-key sketches merged into this node's partial.
	Keys uint64
	// HasWindow marks window selections; WindowStart/WindowEnd/WindowPanes
	// then carry the wall-clock span, [start, end) in unix seconds.
	HasWindow   bool
	WindowStart float64
	WindowEnd   float64
	WindowPanes uint64
	// Payload is the node's merged summary in the backend's own codec.
	Payload []byte
}

// PartialSet is one selection's outcome on one node: either an error
// envelope (Code non-empty) or the node's partial groups.
type PartialSet struct {
	// Code and Message carry the selection-level error envelope; an empty
	// Code means success.
	Code    string
	Message string
	Groups  []PartialGroup
}

// MarshalPartials frames a partials response: the serving backend's
// fingerprint plus one PartialSet per requested selection, in request order.
func MarshalPartials(backend string, sets []PartialSet) []byte {
	buf := make([]byte, 3, 64+len(sets)*16)
	binary.LittleEndian.PutUint16(buf[0:], magicPartials)
	buf[2] = versionPartials
	buf = appendPartialsStr(buf, backend)
	buf = binary.AppendUvarint(buf, uint64(len(sets)))
	for i := range sets {
		set := &sets[i]
		buf = appendPartialsStr(buf, set.Code)
		buf = appendPartialsStr(buf, set.Message)
		buf = binary.AppendUvarint(buf, uint64(len(set.Groups)))
		for j := range set.Groups {
			g := &set.Groups[j]
			buf = appendPartialsStr(buf, g.Label)
			buf = binary.AppendUvarint(buf, g.Keys)
			if g.HasWindow {
				buf = append(buf, 1)
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(g.WindowStart))
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(g.WindowEnd))
				buf = binary.AppendUvarint(buf, g.WindowPanes)
			} else {
				buf = append(buf, 0)
			}
			buf = binary.AppendUvarint(buf, uint64(len(g.Payload)))
			buf = append(buf, g.Payload...)
		}
	}
	return buf
}

// UnmarshalPartials decodes a partials response. Any structural defect —
// bad magic, unknown version, a claimed length exceeding the remaining
// input, trailing bytes — returns ErrCorrupt (or an unsupported-version
// error); allocations are bounded by the input size, so a hostile frame can
// neither panic nor balloon memory.
func UnmarshalPartials(data []byte) (backend string, sets []PartialSet, err error) {
	if len(data) < 3 || binary.LittleEndian.Uint16(data) != magicPartials {
		return "", nil, ErrCorrupt
	}
	if data[2] != versionPartials {
		return "", nil, fmt.Errorf("encoding: unsupported partials version %d", data[2])
	}
	r := &Reader{Data: data[3:]}
	backend = r.Str()
	nsets := r.Count()
	if r.Err == nil && nsets > 0 {
		sets = make([]PartialSet, nsets)
		for i := range sets {
			sets[i].Code = r.Str()
			sets[i].Message = r.Str()
			ngroups := r.Count()
			if r.Err != nil || ngroups == 0 {
				continue
			}
			groups := make([]PartialGroup, ngroups)
			for j := range groups {
				g := &groups[j]
				g.Label = r.Str()
				g.Keys = r.Uvarint()
				switch r.Byte() {
				case 0:
				case 1:
					g.HasWindow = true
					g.WindowStart = r.F64()
					g.WindowEnd = r.F64()
					g.WindowPanes = r.Uvarint()
					// A window span is wall-clock seconds: NaN or ±Inf
					// bounds can only come from a hostile frame, and would
					// poison the coordinator's group alignment and sort.
					if math.IsNaN(g.WindowStart) || math.IsInf(g.WindowStart, 0) ||
						math.IsNaN(g.WindowEnd) || math.IsInf(g.WindowEnd, 0) {
						r.Fail()
					}
				default:
					r.Fail()
				}
				g.Payload = r.Bytes()
			}
			sets[i].Groups = groups
		}
	}
	if err := r.Done(); err != nil {
		return "", nil, err
	}
	return backend, sets, nil
}

func appendPartialsStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

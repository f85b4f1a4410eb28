package server

import "strconv"

// NDJSON ingest fast path. parseLine decodes the one line shape that
// producers and the coordinator send — {"key":"…","value":N[,"ts":N]} —
// straight from the scanner's byte view. It is exact by refusal: it accepts
// a line only when encoding/json would decode it into the same
// wireObservation without error, and reports ok=false for everything else,
// which decodeIngest then hands to json.Unmarshal. So accepted input,
// rejected input and error text are those of encoding/json.
//
// Refused, among others: string escapes and non-ASCII bytes anywhere;
// field names other than exactly "key", "value" and "ts" (encoding/json
// also matches them case-insensitively, and ignores unknown ones); a
// repeated field (encoding/json keeps the last); null, strings, objects or
// arrays where a number belongs; a missing key or value; numbers outside
// the JSON grammar (+1, .5, 1., 01, Inf, NaN, 0x1p3); numbers strconv
// cannot represent (1e999); and anything after the closing brace.

// parseLine decodes one whitespace-trimmed NDJSON line. key aliases line.
// Numbers go through strconv.ParseFloat(…, 64), the call encoding/json
// makes for a float64 field, so the bits match. When ok is false the other
// results mean nothing.
func parseLine(line []byte) (key []byte, value, ts float64, hasTS, ok bool) {
	const (
		sawKey = 1 << iota
		sawValue
		sawTS
	)
	var seen int
	i := skipSpace(line, 0)
	if i == len(line) || line[i] != '{' {
		return
	}
	for {
		name, j, fine := plainString(line, skipSpace(line, i+1))
		if !fine {
			return
		}
		i = skipSpace(line, j)
		if i == len(line) || line[i] != ':' {
			return
		}
		i = skipSpace(line, i+1)
		switch string(name) {
		case "key":
			if seen&sawKey != 0 {
				return
			}
			seen |= sawKey
			key, i, fine = plainString(line, i)
		case "value":
			if seen&sawValue != 0 {
				return
			}
			seen |= sawValue
			value, i, fine = number(line, i)
		case "ts":
			if seen&sawTS != 0 {
				return
			}
			seen |= sawTS
			ts, i, fine = number(line, i)
		default:
			return
		}
		if !fine {
			return
		}
		i = skipSpace(line, i)
		if i == len(line) {
			return
		}
		if line[i] == '}' {
			break
		}
		if line[i] != ',' {
			return
		}
	}
	if skipSpace(line, i+1) != len(line) || seen&(sawKey|sawValue) != sawKey|sawValue {
		return
	}
	return key, value, ts, seen&sawTS != 0, true
}

// skipSpace returns the index of the first non-JSON-whitespace byte of b at
// or after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// plainString reads the JSON string starting at b[i] if it is printable
// ASCII without escapes — the strings whose bytes are their value. It
// returns the contents and the index after the closing quote.
func plainString(b []byte, i int) ([]byte, int, bool) {
	if i == len(b) || b[i] != '"' {
		return nil, 0, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, 0, false
		}
	}
	return nil, 0, false
}

// number reads the JSON number starting at b[i] — -?(0|[1-9]\d*)(\.\d+)?
// ([eE][+-]?\d+)? — and parses it as encoding/json does. A range error is a
// refusal: encoding/json reports it, so the fallback must.
func number(b []byte, i int) (float64, int, bool) {
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return 0, 0, false
	}
	if i < len(b) && b[i] == '.' {
		d := digits(b, i+1)
		if d == i+1 {
			return 0, 0, false
		}
		i = d
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		d := digits(b, i)
		if d == i {
			return 0, 0, false
		}
		i = d
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		return 0, 0, false
	}
	return f, i, true
}

// digits returns the index after the run of ASCII digits at b[i:].
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

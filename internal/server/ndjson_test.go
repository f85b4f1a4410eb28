package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/sketch"
)

// FuzzNDJSONLineMatchesJSON holds the NDJSON fast path to encoding/json:
// whenever parseLine accepts a line, json.Unmarshal must decode it without
// error into the same key, the same value bits, the same ts presence and
// the same ts bits. Lines parseLine refuses are out of scope — decodeIngest
// hands them to json.Unmarshal itself.
func FuzzNDJSONLineMatchesJSON(f *testing.F) {
	for _, seed := range []string{
		`{"key":"a","value":-0}`,
		`{"key":"a","value":5e-324}`,
		`{"key":"a","value":1e-400}`,
		`{"key":"a","value":1.7976931348623157e308}`,
		`{"key":"a","value":1e21}`,
		`{"key":"a","value":1e999}`,
		`{"key":"a","value":1,"ts":1700000000.25}`,
		" { \"key\" :\t\"us.web\" , \"value\" : 2.5E-3 ,\r\"ts\" : 17e8 } ",
		`{"ts":1,"value":-12.5,"key":"a"}`,
		`{"key":"a","value":1,"value":2}`,
		`{"key":"a","Value":1}`,
		`{"key":"a","value":null}`,
		`{"key":"a\"b","value":1}`,
		`{"key":"a","value":01}`,
		`{"key":"a","value":.5}`,
		`{"key":"a","value":1}x`,
		`{"key":"","value":1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		key, value, ts, hasTS, ok := parseLine(line)
		if !ok {
			return
		}
		var o wireObservation
		if err := json.Unmarshal(line, &o); err != nil {
			t.Fatalf("fast path accepted %q, encoding/json rejects it: %v", line, err)
		}
		if string(key) != o.Key {
			t.Fatalf("%q: fast key %q, encoding/json %q", line, key, o.Key)
		}
		if o.Value == nil || math.Float64bits(*o.Value) != math.Float64bits(value) {
			t.Fatalf("%q: fast value %v (%#x), encoding/json %v", line, value, math.Float64bits(value), o.Value)
		}
		if hasTS != (o.TS != nil) || (hasTS && math.Float64bits(*o.TS) != math.Float64bits(ts)) {
			t.Fatalf("%q: fast ts %v (present %v), encoding/json %v", line, ts, hasTS, o.TS)
		}
	})
}

// TestParseLineTiers pins which lines take the fast path: the canonical
// shapes a producer or the coordinator sends, and not the ones whose
// meaning only encoding/json can give.
func TestParseLineTiers(t *testing.T) {
	fast := []string{
		`{"key":"us.web.0","value":12.5}`,
		`{"key":"a","value":-0.001,"ts":1700000000.125}`,
		`{"value":1e-07,"key":"a"}`,
		`{"ts":0,"key":"a","value":0}`,
		" {\t\"key\" : \"a\" ,\r\"value\" : 3 } ",
		`{"key":"","value":1}`, // check reports the missing key
	}
	for _, line := range fast {
		if _, _, _, _, ok := parseLine([]byte(line)); !ok {
			t.Errorf("fast path refused %s", line)
		}
	}
	fallback := []string{
		`{"key":"a\"b","value":1}`,      // escape
		`{"key":"caf\u00e9","value":1}`, // escape
		`{"key":"café","value":1}`,      // non-ASCII
		"{\"key\":\"a\tb\",\"value\":1}",
		`{"key":"a","value":null}`,
		`{"key":"a","value":"1"}`,
		`{"key":"a","value":1,"key":"b"}`, // duplicate
		`{"key":"a","value":1,"extra":2}`, // unknown
		`{"Key":"a","value":1}`,           // case variant
		`{"key":"a","value":+1}`,
		`{"key":"a","value":.5}`,
		`{"key":"a","value":1.}`,
		`{"key":"a","value":01}`,
		`{"key":"a","value":Inf}`,
		`{"key":"a","value":0x1p3}`,
		`{"key":"a","value":1e}`,
		`{"key":"a","value":1e999}`, // range error
		`{"key":"a"}`,
		`{"value":1}`,
		`{}`,
		`{"key":"a","value":1,}`,
		`{"key":"a","value":1} {}`,
		`[{"key":"a","value":1}]`,
	}
	for _, line := range fallback {
		if _, _, _, _, ok := parseLine([]byte(line)); ok {
			t.Errorf("fast path accepted %s", line)
		}
	}
}

// TestParseLineAllocatesNothing: the fast path parses from the line's bytes;
// the key string the sink retains is the caller's one allocation.
func TestParseLineAllocatesNothing(t *testing.T) {
	line := []byte(`{"key":"us.web.0","value":-1.2345678901234567e-300,"ts":1700000000.125}`)
	if n := testing.AllocsPerRun(100, func() { parseLine(line) }); n != 0 {
		t.Fatalf("parseLine allocates %v times per line, want 0", n)
	}
}

// nopSink drops every observation.
type nopSink struct{}

func (nopSink) add(string, float64, *float64)              {}
func (nopSink) commit(context.Context) (int, *query.Error) { return 0, nil }
func (nopSink) discard()                                   {}

// TestNDJSONDecodeAllocations bounds the fast path's allocations per
// observation: the retained key, plus a fresh ts where the line has one.
func TestNDJSONDecodeAllocations(t *testing.T) {
	const lines = 200
	var plain, stamped bytes.Buffer
	for i := range lines {
		plain.WriteString(`{"key":"us.web.` + strings.Repeat("x", i%7) + `","value":12.5}` + "\n")
		stamped.WriteString(`{"key":"us.web","value":-3e-5,"ts":1700000000.5}` + "\n")
	}
	for _, c := range []struct {
		name    string
		body    []byte
		perLine float64
	}{{"plain", plain.Bytes(), 1}, {"ts", stamped.Bytes(), 2}} {
		n := testing.AllocsPerRun(20, func() {
			if err := decodeIngest(bytes.NewReader(c.body), true, math.MaxFloat64, nopSink{}); err != nil {
				t.Fatal(err)
			}
		})
		// A handful per request: the scanner, the reused observation.
		if max := c.perLine*lines + 8; n > max {
			t.Errorf("%s: %v allocations for %d lines, want ≤ %v", c.name, n, lines, max)
		}
	}
}

// TestRoutedSinkKeepsEachLinesTS: a coordinator's sink keeps the ts pointer
// it is handed, so the decoder must hand every line a ts of its own, in both
// tiers. Dereferencing only after the whole body is decoded is what catches
// a decoder that reuses one variable.
func TestRoutedSinkKeepsEachLinesTS(t *testing.T) {
	body := `{"key":"a","value":1,"ts":1700000001}` + "\n" +
		`{"key":"b\u0062","value":2,"ts":1700000002}` + "\n" + // escape: json.Unmarshal
		`{"ts":1700000003,"value":3,"key":"c"}` + "\n"
	routed := &routedSink{}
	if err := decodeIngest(strings.NewReader(body), true, math.MaxFloat64, routed); err != nil {
		t.Fatal(err)
	}
	want := []struct {
		key       string
		value, ts float64
	}{{"a", 1, 1700000001}, {"bb", 2, 1700000002}, {"c", 3, 1700000003}}
	if len(routed.obs) != len(want) {
		t.Fatalf("routed %d observations, want %d", len(routed.obs), len(want))
	}
	for i, w := range want {
		o := routed.obs[i]
		if o.Key != w.key || *o.Value != w.value || o.TS == nil || *o.TS != w.ts {
			t.Errorf("observation %d: key %q value %v ts %v, want %+v", i, o.Key, *o.Value, o.TS, w)
		}
	}
}

// TestCoordinatorForwardsNDJSONBitExact runs the coordinator's forwarding
// encoder against a node's /ingest handler: every key — escaped or not —
// and every value and ts must arrive bit for bit, in order, as
// application/x-ndjson, and every line with a plain key must take the
// node's fast path.
func TestCoordinatorForwardsNDJSONBitExact(t *testing.T) {
	keys := []string{
		"us.web.0", `q"uote`, `back\slash`, "line\nbreak", "sep\u2028arator",
		"héllo", "日本", "<tag>&amp;", "\x01ctl\x7f",
	}
	values := []float64{
		math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1e-400, math.MaxFloat64,
		1e21, -1e-7, 1.0 / 3, 12.5,
	}
	tss := []*float64{nil, ptr(1700000000.25), ptr(0), ptr(9e9), ptr(1.5e9 + 1.0/3)}
	var obs []cluster.Observation
	for i, k := range keys {
		for j, v := range values {
			obs = append(obs, cluster.Observation{Key: k, Value: ptr(v), TS: tss[(i+j)%len(tss)]})
		}
	}
	// The longest line a node must take: a MaxKeyLen key escaped byte for byte.
	obs = append(obs, cluster.Observation{Key: strings.Repeat("\x01", shard.MaxKeyLen), Value: ptr(1)})

	capture := &recordingSink{sink: &storeSink{batch: shard.New().NewBatch()}}
	node := newServer()
	node.sinks.New = func() any { return capture }
	var ctype string
	var refused []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctype = r.Header.Get("Content-Type")
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		for _, line := range bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n")) {
			if _, _, _, _, ok := parseLine(line); !ok && len(line) < 200 {
				refused = append(refused, string(line))
			}
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		node.ServeHTTP(w, r)
	}))
	defer srv.Close()
	coord, err := cluster.New(cluster.Config{Nodes: []string{srv.URL}, Backend: sketch.MomentsBackend(10)})
	if err != nil {
		t.Fatal(err)
	}
	n, failed, err := coord.Ingest(t.Context(), obs)
	if err != nil || len(failed) != 0 || n != len(obs) {
		t.Fatalf("Ingest: n=%d failed=%v err=%v", n, failed, err)
	}
	if ctype != "application/x-ndjson" {
		t.Errorf("coordinator forwarded Content-Type %q", ctype)
	}
	if len(capture.seen) != len(obs) {
		t.Fatalf("node decoded %d observations, coordinator sent %d", len(capture.seen), len(obs))
	}
	for i, o := range obs {
		got := capture.seen[i]
		if got.key != o.Key || math.Float64bits(got.value) != math.Float64bits(*o.Value) ||
			(got.ts == nil) != (o.TS == nil) || (o.TS != nil && math.Float64bits(*got.ts) != math.Float64bits(*o.TS)) {
			t.Fatalf("observation %d: sent key %.20q value %v ts %v, node decoded key %.20q value %v ts %v",
				i, o.Key, *o.Value, o.TS, got.key, got.value, got.ts)
		}
	}
	for _, line := range refused {
		if strings.HasPrefix(line, `{"key":"us.web.0"`) {
			t.Errorf("plain-key line missed the node's fast path: %s", line)
		}
	}
}

func ptr(f float64) *float64 { return &f }

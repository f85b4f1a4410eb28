package server

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/shard"
)

// seenObs is one observation as the decoder handed it to a sink.
type seenObs struct {
	key   string
	value float64
	ts    *float64
}

// recordingSink notes every add on its way to the real sink.
type recordingSink struct {
	sink
	seen []seenObs
}

func (r *recordingSink) add(key string, value float64, ts *float64) {
	r.seen = append(r.seen, seenObs{key, value, ts})
	r.sink.add(key, value, ts)
}

// FuzzDecodeNDJSON throws hostile byte streams at decodeIngest — the one
// ingest body decoder, which a shard node and a coordinator both put in
// front of the internet — in both framings (NDJSON, and bare-array /
// enveloped JSON) and through both sinks. The invariants it must hold:
//
//   - never panic, whatever the bytes;
//   - both sinks accept or reject a body identically, and see the same
//     (key, value, ts) sequence; the coordinator's routed observations are
//     that sequence, ts pointer and all;
//   - on error, the store sink discards cleanly and the store stays
//     untouched;
//   - on success, every accepted observation has a non-empty bounded key, a
//     value inside the store backend's ingest domain (finite, |value| ≤
//     core.MaxAbs(k)) and an in-range ts, the flush count matches the
//     store's total, and the store's per-key counts match the sequence.
//
// Seed corpus lives in testdata/fuzz/FuzzDecodeNDJSON; CI runs a short
// fuzz pass on top of the corpus replay that plain `go test` performs.
func FuzzDecodeNDJSON(f *testing.F) {
	f.Add([]byte("{\"key\":\"a\",\"value\":1}\n{\"key\":\"b\",\"value\":2.5}\n"))
	f.Add([]byte("{\"key\":\"a\",\"value\":1,\"ts\":1700000000.25}\n"))
	f.Add([]byte("{\"key\":\"a\"}\n"))                           // missing value
	f.Add([]byte("{\"key\":\"\",\"value\":1}\n"))                // empty key
	f.Add([]byte("{\"key\":\"a\",\"value\":\"12\"}\n"))          // value as string
	f.Add([]byte("{\"key\":\"a\",\"value\":1e999}\n"))           // overflows float64
	f.Add([]byte("{\"key\":\"a\",\"value\":NaN}\n"))             // not JSON at all
	f.Add([]byte("{\"key\":\"a\",\"value\":1,\"ts\":1.7e12}\n")) // ms-unit ts
	f.Add([]byte("{\"key\":\"a\",\"value\":1,\"ts\":-5}\n"))     // negative ts
	f.Add([]byte("{\"key\":\"a\",\"value\":1,\"ts\":9.3e9}\n"))  // ts past the nanosecond horizon
	f.Add([]byte("{\"key\":\"\xff\xfe\",\"value\":1}\n"))        // invalid UTF-8 key
	f.Add([]byte("{\"key\":\"a\",\"value\":1}"))                 // no trailing newline
	f.Add([]byte("\n\n  \n{\"key\":\"a\",\"value\":1}\n\r\n"))   // blank/whitespace lines
	f.Add([]byte("{\"key\":\"a\",\"value\":1}\n{\"key\":\"b\"")) // truncated mid-object
	f.Add([]byte("[{\"key\":\"a\",\"value\":1}]\n"))             // array where a line object belongs
	f.Add([]byte("{\"key\":\"" + strings.Repeat("k", shard.MaxKeyLen+1) + "\",\"value\":1}\n"))
	f.Add([]byte("{\"value\":1,\"key\":\"a\",\"value\":2}\n")) // duplicate field
	f.Add([]byte{0})

	// JSON framings, after the NDJSON seeds so their indices stay put.
	f.Add([]byte("[{\"key\":\"a\",\"value\":1},{\"key\":\"b\",\"value\":2.5,\"ts\":1700000000.25}]"))
	f.Add([]byte("{\"observations\":[{\"key\":\"a\",\"value\":1},{\"key\":\"a\",\"value\":-3}]}"))
	f.Add([]byte("[{\"key\":\"a\",\"value\":1},{\"key\":\"b\"}]"))                  // second element lacks a value
	f.Add([]byte("{\"observations\":[{\"key\":\"a\",\"value\":1,\"ts\":1.7e12}]}")) // ms-unit ts, enveloped
	f.Add([]byte("{\"observations\":null}"))
	f.Add([]byte("  \n\t["))

	// Domain edges, after the framings so earlier indices stay put.
	f.Add([]byte("{\"key\":\"a\",\"value\":1.7976931348623157e308}\n")) // MaxFloat64
	f.Add([]byte("{\"key\":\"a\",\"value\":7e30}\n"))                   // overflows Pow[10]
	f.Add([]byte("{\"key\":\"a\",\"value\":-7e30}\n"))
	f.Add([]byte("{\"key\":\"a\",\"value\":5e-324}\n")) // smallest subnormal

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, ndjson := range []bool{true, false} {
			store := shard.New(shard.WithShards(2))
			maxAbs := ingestDomain(store.Backend())
			node := &recordingSink{sink: &storeSink{batch: store.NewBatch()}}
			routed := &routedSink{}
			coord := &recordingSink{sink: routed}
			err := decodeIngest(bytes.NewReader(data), ndjson, maxAbs, node)
			coordErr := decodeIngest(bytes.NewReader(data), ndjson, maxAbs, coord)
			if (err == nil) != (coordErr == nil) || (err != nil && err.Error() != coordErr.Error()) {
				t.Fatalf("ndjson=%v: node sink got %v, coordinator sink got %v", ndjson, err, coordErr)
			}
			if len(node.seen) != len(coord.seen) || len(routed.obs) != len(coord.seen) {
				t.Fatalf("ndjson=%v: node saw %d observations, coordinator %d, routed %d",
					ndjson, len(node.seen), len(coord.seen), len(routed.obs))
			}
			perKey := map[string]float64{}
			for i, o := range node.seen {
				c, r := coord.seen[i], routed.obs[i]
				if o.key != c.key || o.value != c.value || (o.ts == nil) != (c.ts == nil) || (o.ts != nil && *o.ts != *c.ts) {
					t.Fatalf("ndjson=%v: observation %d differs between sinks: %+v vs %+v", ndjson, i, o, c)
				}
				if r.Key != c.key || *r.Value != c.value || r.TS != c.ts {
					t.Fatalf("ndjson=%v: routed observation %d is %+v, decoder handed over %+v", ndjson, i, r, c)
				}
				if o.key == "" || len(o.key) > shard.MaxKeyLen {
					t.Fatalf("accepted out-of-bounds key %q (len %d)", o.key, len(o.key))
				}
				if !(math.Abs(o.value) <= core.MaxAbs(core.DefaultK)) {
					t.Fatalf("accepted value %v outside the ingest domain", o.value)
				}
				if o.ts != nil && !(*o.ts >= 0 && *o.ts <= maxIngestTS) {
					t.Fatalf("accepted out-of-range ts %v", *o.ts)
				}
				perKey[o.key]++
			}
			if err != nil {
				// A rejected stream must leave no residue once discarded —
				// this mirrors handleIngest's deferred discard.
				node.discard()
				routed.discard()
				if got := store.TotalCount(); got != 0 {
					t.Fatalf("decode error %v but store has %v observations", err, got)
				}
				if len(routed.obs) != 0 {
					t.Fatalf("decode error %v but %d observations stay routed", err, len(routed.obs))
				}
				continue
			}
			n, qerr := node.commit(context.Background())
			if qerr != nil {
				t.Fatal(qerr)
			}
			if got := store.TotalCount(); n != len(node.seen) || got != float64(n) {
				t.Fatalf("decoded %d observations, committed %d, TotalCount = %v", len(node.seen), n, got)
			}
			if keys := store.Keys(""); len(keys) != len(perKey) {
				t.Fatalf("store holds %d keys, decoder emitted %d", len(keys), len(perKey))
			}
			for key, want := range perKey {
				if c := store.Count(key); c != want {
					t.Fatalf("key %q: count %v, decoder emitted %v", key, c, want)
				}
			}
		}
	})
}

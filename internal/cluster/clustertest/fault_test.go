package clustertest

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/sketch"
)

// The fault battery: a node dying mid-query, stalling past the deadline, or
// answering hostile bytes must degrade a scatter-gather answer to the typed
// partial_result envelope naming the unreachable nodes — never to a panic,
// a hang, or a silently wrong merge — and a slow (but alive) node must be
// hedged exactly once.

// keyOwnedBy finds a deterministic key the given node owns.
func keyOwnedBy(t testing.TB, c *Cluster, node int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("owned.%d.%d", node, i)
		if c.Coord.Owner(k) == node {
			return k
		}
	}
	t.Fatal("no key found for node") // 10000 misses at p=3/4 each cannot happen
	return ""
}

// prefixQuery is the battery's canonical read: one prefix rollup with
// quantiles.
func prefixQuery() *query.Request {
	return &query.Request{Queries: []query.Subquery{{
		ID:           "q",
		Select:       query.Selection{Prefix: strp("us.")},
		Aggregations: []query.Aggregation{{Op: query.OpQuantiles}},
	}}}
}

// requirePartialResult asserts the result failed partially, naming exactly
// the given nodes, and returns it.
func requirePartialResult(t *testing.T, resp *query.Response, nodes ...string) *query.Result {
	t.Helper()
	r := &resp.Results[0]
	if r.Error == nil || r.Error.Code != query.CodePartialResult {
		t.Fatalf("error = %+v, want code %s", r.Error, query.CodePartialResult)
	}
	slices.Sort(nodes)
	if !slices.Equal(r.Error.Nodes, nodes) {
		t.Fatalf("unreachable nodes = %v, want %v", r.Error.Nodes, nodes)
	}
	return r
}

func TestKillNodeMidQueryPartialResult(t *testing.T) {
	c := New(t, Config{StoreOpts: []shard.Option{shard.WithBackend(sketch.MomentsBackend(6))}})
	keys := gridKeys([]string{"us", "eu"}, []string{"web", "api"}, 6)
	seedGrid(t, c, keys, 20, nil)

	const victim = 1
	c.Nodes[victim].FaultKill(0)
	victimURL := c.Nodes[victim].HTTP.URL

	// A spanning read still answers from the surviving shards, flagged with
	// the typed envelope naming the dead node.
	resp, qerr := c.Coord.Execute(t.Context(), prefixQuery())
	if qerr != nil {
		t.Fatalf("execute: %v", qerr)
	}
	r := requirePartialResult(t, resp, victimURL)
	if len(r.Groups) != 1 || r.Groups[0].Keys == 0 {
		t.Fatalf("partial answer lost the surviving shards' data: %+v", r.Groups)
	}
	usSurvivors := 0
	for _, k := range keys {
		if len(k) >= 3 && k[:3] == "us." && c.Coord.Owner(k) != victim {
			usSurvivors++
		}
	}
	if r.Groups[0].Keys != usSurvivors {
		t.Fatalf("partial rollup keys = %d: must cover exactly the %d surviving matching keys", r.Groups[0].Keys, usSurvivors)
	}

	// A key owned by the dead node has no surviving replica: the partial
	// envelope comes back with no data at all.
	dead := &query.Request{Queries: []query.Subquery{{
		Select:       query.Selection{Key: keyOwnedBy(t, c, victim)},
		Aggregations: []query.Aggregation{{Op: query.OpQuantiles}},
	}}}
	resp, qerr = c.Coord.Execute(t.Context(), dead)
	if qerr != nil {
		t.Fatalf("execute: %v", qerr)
	}
	r = requirePartialResult(t, resp, victimURL)
	if len(r.Groups) != 0 {
		t.Fatalf("dead-owner key returned groups: %+v", r.Groups)
	}

	// A key owned by a live node is untouched by the fault.
	liveKey := "us.web.3"
	if c.Coord.Owner(liveKey) == victim {
		liveKey = keyOwnedBy(t, c, (victim+1)%len(c.Nodes))
		c.Seed(t, []Obs{{Key: liveKey, Value: 1}})
	}
	live := &query.Request{Queries: []query.Subquery{{
		Select:       query.Selection{Key: liveKey},
		Aggregations: []query.Aggregation{{Op: query.OpQuantiles}},
	}}}
	resp, qerr = c.Coord.Execute(t.Context(), live)
	if qerr != nil {
		t.Fatalf("execute: %v", qerr)
	}
	if r := &resp.Results[0]; r.Error != nil || len(r.Groups) != 1 {
		t.Fatalf("live-owner key degraded: %+v", r)
	}

	if st := c.Coord.Stats(); st.PartialResults < 2 {
		t.Fatalf("PartialResults = %d, want ≥ 2", st.PartialResults)
	}

	// The same failure surfaces over the coordinator's HTTP face: HTTP 200
	// (the batch succeeded), the subquery envelope typed and node-listed.
	body, err := json.Marshal(prefixQuery())
	if err != nil {
		t.Fatal(err)
	}
	httpResp, err := http.Post(c.CoordHTTP.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/query status = %d, want 200", httpResp.StatusCode)
	}
	var wire query.Response
	if err := json.NewDecoder(httpResp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	requirePartialResult(t, &wire, victimURL)
}

func TestStallPastDeadlinePartialResult(t *testing.T) {
	c := New(t, Config{
		StoreOpts: []shard.Option{shard.WithBackend(sketch.MomentsBackend(6))},
		Cluster:   cluster.Config{NodeTimeout: 250 * time.Millisecond},
	})
	keys := gridKeys([]string{"us", "eu"}, []string{"web", "api"}, 6)
	seedGrid(t, c, keys, 20, nil)

	const victim = 2
	c.Nodes[victim].FaultStall(5*time.Second, 0)

	start := time.Now()
	resp, qerr := c.Coord.Execute(t.Context(), prefixQuery())
	elapsed := time.Since(start)
	if qerr != nil {
		t.Fatalf("execute: %v", qerr)
	}
	r := requirePartialResult(t, resp, c.Nodes[victim].HTTP.URL)
	if len(r.Groups) != 1 || r.Groups[0].Keys == 0 {
		t.Fatalf("partial answer lost the responsive shards' data: %+v", r.Groups)
	}
	// The stalled node must cost at most its per-node budget, not its stall.
	if elapsed > 2*time.Second {
		t.Fatalf("query took %v: the stalled node was awaited past its deadline budget", elapsed)
	}
}

func TestHedgeFiresExactlyOnceAndSuppressesLoser(t *testing.T) {
	c := New(t, Config{
		StoreOpts: []shard.Option{shard.WithBackend(sketch.MomentsBackend(6))},
		Cluster: cluster.Config{
			NodeTimeout: 10 * time.Second,
			HedgeAfter:  150 * time.Millisecond,
		},
	})
	keys := gridKeys([]string{"us", "eu"}, []string{"web", "api"}, 6)
	seedGrid(t, c, keys, 20, nil)

	const victim = 0
	before := c.Coord.Stats()
	hitsBefore := make([]int, len(c.Nodes))
	for i, n := range c.Nodes {
		hitsBefore[i] = n.PartialsHits()
	}

	// Stall only the first attempt: the hedged duplicate passes through and
	// wins, so the answer is complete — no partial envelope.
	c.Nodes[victim].FaultStall(5*time.Second, 1)
	start := time.Now()
	resp, qerr := c.Coord.Execute(t.Context(), prefixQuery())
	elapsed := time.Since(start)
	if qerr != nil {
		t.Fatalf("execute: %v", qerr)
	}
	if r := &resp.Results[0]; r.Error != nil || len(r.Groups) != 1 || r.Groups[0].Keys != len(keys)/2 {
		t.Fatalf("hedged query must answer in full: %+v", r)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("query took %v: the hedge did not rescue the stalled attempt", elapsed)
	}

	after := c.Coord.Stats()
	if got := after.Hedges - before.Hedges; got != 1 {
		t.Fatalf("hedges launched = %d, want exactly 1", got)
	}
	if got := after.HedgeWins - before.HedgeWins; got != 1 {
		t.Fatalf("hedge wins = %d, want 1", got)
	}
	if got := after.PartialResults - before.PartialResults; got != 0 {
		t.Fatalf("partial results = %d, want 0 (the hedge completed the answer)", got)
	}
	for i, n := range c.Nodes {
		want := 1
		if i == victim {
			want = 2 // the stalled original and the winning hedge
		}
		if got := n.PartialsHits() - hitsBefore[i]; got != want {
			t.Fatalf("node %d partials hits = %d, want %d", i, got, want)
		}
	}
}

// hostilePartialsPayloads builds the corrupt frames the decode path must
// reject cleanly: garbage, truncated magic, a resource-exhaustion frame
// claiming 2⁶² sets, a well-formed frame for the wrong backend, and
// well-formed frames whose moments payload is low-precision or holds a
// vector no in-domain adds produce.
func hostilePartialsPayloads(fingerprint string) map[string][]byte {
	hugeClaim := encoding.MarshalPartials(fingerprint, nil)
	hugeClaim = binary.AppendUvarint(hugeClaim[:len(hugeClaim)-1], 1<<62)
	return map[string][]byte{
		"garbage":           []byte("these are not the partials you are looking for"),
		"empty":             {},
		"huge-set-claim":    hugeClaim,
		"wrong-fingerprint": encoding.MarshalPartials("bogus(k=1)", []encoding.PartialSet{{}}),
		"low-precision":     prefixPartialsFrame(fingerprint, encoding.MarshalLowPrecision),
		"non-finite": prefixPartialsFrame(fingerprint, func(sk *core.Sketch, _ int) []byte {
			sk.Pow[1] = math.Inf(1)
			return encoding.Marshal(sk)
		}),
	}
}

// prefixPartialsFrame is a well-formed partials frame answering
// prefixQuery with one order-6 moments group, its payload encoded by enc.
func prefixPartialsFrame(fingerprint string, enc func(*core.Sketch, int) []byte) []byte {
	sk := core.New(6)
	for i := 1; i <= 50; i++ {
		sk.Add(float64(i))
	}
	group := encoding.PartialGroup{Keys: 1, Payload: enc(sk, 20)}
	return encoding.MarshalPartials(fingerprint, []encoding.PartialSet{{Groups: []encoding.PartialGroup{group}}})
}

// TestFullPrecisionPartialsFrameMerges is the control for the
// low-precision hostile frame: the same frame with the full-precision
// payload every node writes is merged into a whole answer, so the
// low-precision one degrades for its encoding alone.
func TestFullPrecisionPartialsFrameMerges(t *testing.T) {
	c := New(t, Config{StoreOpts: []shard.Option{shard.WithBackend(sketch.MomentsBackend(6))}})
	seedGrid(t, c, gridKeys([]string{"us", "eu"}, []string{"web", "api"}, 6), 20, nil)
	full := func(sk *core.Sketch, _ int) []byte { return encoding.Marshal(sk) }
	c.Nodes[3].FaultCorrupt(prefixPartialsFrame(c.Coord.Backend().Fingerprint(), full), 0)
	defer c.Nodes[3].FaultNormal()
	resp, qerr := c.Coord.Execute(t.Context(), prefixQuery())
	if qerr != nil {
		t.Fatalf("execute: %v", qerr)
	}
	if r := &resp.Results[0]; r.Error != nil || len(r.Groups) != 1 {
		t.Fatalf("full-precision frame did not merge: %+v", r)
	}
}

func TestCorruptPartialsDegradeToPartialResult(t *testing.T) {
	c := New(t, Config{StoreOpts: []shard.Option{shard.WithBackend(sketch.MomentsBackend(6))}})
	keys := gridKeys([]string{"us", "eu"}, []string{"web", "api"}, 6)
	seedGrid(t, c, keys, 20, nil)
	const victim = 3

	for name, payload := range hostilePartialsPayloads(c.Coord.Backend().Fingerprint()) {
		t.Run(name, func(t *testing.T) {
			// Every answer until cleared, not just the next: once earlier
			// subtests have taught the coordinator a sub-millisecond hedge
			// delay, a slow first attempt gets a hedge, and a one-shot fault
			// would let that duplicate come back clean and win.
			c.Nodes[victim].FaultCorrupt(payload, 0)
			defer c.Nodes[victim].FaultNormal()
			resp, qerr := c.Coord.Execute(t.Context(), prefixQuery())
			if qerr != nil {
				t.Fatalf("execute: %v", qerr)
			}
			r := requirePartialResult(t, resp, c.Nodes[victim].HTTP.URL)
			if len(r.Groups) != 1 || r.Groups[0].Keys == 0 {
				t.Fatalf("hostile payload poisoned the surviving merge: %+v", r.Groups)
			}
		})
	}

	// With the fault cleared the very next query is whole again.
	resp, qerr := c.Coord.Execute(t.Context(), prefixQuery())
	if qerr != nil {
		t.Fatalf("execute: %v", qerr)
	}
	if r := &resp.Results[0]; r.Error != nil {
		t.Fatalf("fault did not clear: %+v", r.Error)
	}
}

func TestTruncatedPartialsDegradeToPartialResult(t *testing.T) {
	c := New(t, Config{StoreOpts: []shard.Option{shard.WithBackend(sketch.MomentsBackend(6))}})
	keys := gridKeys([]string{"us", "eu"}, []string{"web", "api"}, 6)
	seedGrid(t, c, keys, 20, nil)

	const victim = 0
	c.Nodes[victim].FaultTruncate(1)
	resp, qerr := c.Coord.Execute(t.Context(), prefixQuery())
	if qerr != nil {
		t.Fatalf("execute: %v", qerr)
	}
	r := requirePartialResult(t, resp, c.Nodes[victim].HTTP.URL)
	if len(r.Groups) != 1 || r.Groups[0].Keys == 0 {
		t.Fatalf("truncated payload poisoned the surviving merge: %+v", r.Groups)
	}
}

func TestIngestToUnreachableNodeReportsFailedNodes(t *testing.T) {
	c := New(t, Config{StoreOpts: []shard.Option{shard.WithBackend(sketch.MomentsBackend(6))}})
	const victim = 2
	liveKey := keyOwnedBy(t, c, 0)
	deadKey := keyOwnedBy(t, c, victim)
	c.Nodes[victim].HTTP.Close()

	one := 1.0
	ingested, failed, err := c.Coord.Ingest(t.Context(), []cluster.Observation{
		{Key: liveKey, Value: &one},
		{Key: deadKey, Value: &one},
	})
	if err == nil {
		t.Fatal("ingest to a dead node reported no error")
	}
	if ingested != 1 {
		t.Fatalf("ingested = %d, want 1 (the live node's observation)", ingested)
	}
	if !slices.Equal(failed, []string{c.Nodes[victim].HTTP.URL}) {
		t.Fatalf("failed nodes = %v, want [%s]", failed, c.Nodes[victim].HTTP.URL)
	}
	if got := c.Nodes[0].Store.Count(liveKey); got != 1 {
		t.Fatalf("live observation lost: Count = %v, want 1", got)
	}
}

// TestIngestRetriesTransientFaults pins the coordinator's delivery retry:
// a node that drops a connection or answers 503 transiently must still
// take its batch — applied exactly once — within the default retry
// budget, the retry counter must advance, and a persistent fault must
// exhaust the budget and surface as a failed node without burning the
// caller's deadline.
func TestIngestRetriesTransientFaults(t *testing.T) {
	c := New(t, Config{StoreOpts: []shard.Option{shard.WithBackend(sketch.MomentsBackend(6))}})
	const victim = 1
	key := keyOwnedBy(t, c, victim)
	node := c.Nodes[victim]
	one := 1.0
	batch := []cluster.Observation{{Key: key, Value: &one}}

	// A killed connection heals on the first retry.
	node.FaultIngestKill(1)
	ingested, failed, err := c.Coord.Ingest(t.Context(), batch)
	if err != nil || len(failed) != 0 || ingested != 1 {
		t.Fatalf("ingest through one killed delivery: ingested=%d failed=%v err=%v", ingested, failed, err)
	}
	if got := node.Store.Count(key); got != 1 {
		t.Fatalf("Count = %v, want 1 (applied exactly once)", got)
	}
	if hits := node.IngestHits(); hits != 2 {
		t.Fatalf("node saw %d delivery attempts, want 2 (original + one retry)", hits)
	}
	if st := c.Coord.Stats(); st.IngestRetries != 1 {
		t.Fatalf("Stats().IngestRetries = %d, want 1", st.IngestRetries)
	}

	// Two 503s in a row still fit the default budget of two retries.
	node.FaultIngestUnavailable(2)
	before := node.IngestHits()
	ingested, failed, err = c.Coord.Ingest(t.Context(), batch)
	if err != nil || len(failed) != 0 || ingested != 1 {
		t.Fatalf("ingest through two 503s: ingested=%d failed=%v err=%v", ingested, failed, err)
	}
	if got := node.Store.Count(key); got != 2 {
		t.Fatalf("Count = %v, want 2", got)
	}
	if hits := node.IngestHits() - before; hits != 3 {
		t.Fatalf("node saw %d delivery attempts, want 3", hits)
	}

	// A persistent 503 exhausts the budget: the batch is reported failed
	// and never half-applied.
	node.FaultIngestUnavailable(0)
	before = node.IngestHits()
	start := time.Now()
	ingested, failed, err = c.Coord.Ingest(t.Context(), batch)
	if err == nil || ingested != 0 || !slices.Equal(failed, []string{node.HTTP.URL}) {
		t.Fatalf("ingest against a wedged node: ingested=%d failed=%v err=%v", ingested, failed, err)
	}
	if hits := node.IngestHits() - before; hits != 3 {
		t.Fatalf("node saw %d delivery attempts, want 3 (budget exhausted)", hits)
	}
	if got := node.Store.Count(key); got != 2 {
		t.Fatalf("Count = %v, want 2 (failed batch must not apply)", got)
	}

	// Backoff honors the request deadline: with no room to sleep, the
	// retry loop gives up rather than answering after the caller stopped
	// listening.
	ctx, cancel := context.WithTimeout(t.Context(), 5*time.Millisecond)
	defer cancel()
	if _, _, err := c.Coord.Ingest(ctx, batch); err == nil {
		t.Fatal("ingest with an expiring deadline reported no error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("retrying ingests took %v — backoff ignored the deadline", elapsed)
	}
	node.FaultIngestNormal()
}

// TestCoordinatorIngestBodyShapes pins HTTP /ingest parity between the
// coordinator and a shard node: the enveloped JSON, bare-array JSON and
// NDJSON body shapes must all route observations to their owners — NDJSON
// in particular regressed once, decoding as an empty envelope and
// answering {"ingested":0} without an error.
func TestCoordinatorIngestBodyShapes(t *testing.T) {
	c := New(t, Config{StoreOpts: []shard.Option{shard.WithBackend(sketch.MomentsBackend(6))}})
	bodies := []struct {
		name, contentType, body string
	}{
		{"envelope", "application/json", `{"observations":[{"key":"sh.env","value":1},{"key":"sh.env","value":2}]}`},
		{"array", "application/json", `[{"key":"sh.arr","value":1},{"key":"sh.arr","value":2}]`},
		{"ndjson", "application/x-ndjson", "{\"key\":\"sh.nd\",\"value\":1}\n{\"key\":\"sh.nd\",\"value\":2}\n"},
	}
	keys := []string{"sh.env", "sh.arr", "sh.nd"}
	for i, b := range bodies {
		resp, err := http.Post(c.CoordHTTP.URL+"/ingest", b.contentType, bytes.NewReader([]byte(b.body)))
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		var out struct {
			Ingested int `json:"ingested"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || out.Ingested != 2 {
			t.Fatalf("%s: status %d, ingested %d, err %v; want 200 and 2", b.name, resp.StatusCode, out.Ingested, err)
		}
		if got := c.Nodes[c.Coord.Owner(keys[i])].Store.Count(keys[i]); got != 2 {
			t.Fatalf("%s: owner store Count(%s) = %v, want 2", b.name, keys[i], got)
		}
	}

	// A malformed NDJSON line must reject the request, not silently ingest
	// a prefix of it.
	resp, err := http.Post(c.CoordHTTP.URL+"/ingest", "application/x-ndjson",
		bytes.NewReader([]byte("{\"key\":\"sh.bad\",\"value\":1}\n{\"key\":\"sh.bad\"}\n")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed NDJSON line: status %d, want 400", resp.StatusCode)
	}
}

// Package clustertest is the in-process cluster harness: it spins N real
// momentsd shard servers behind httptest listeners, wires a scatter-gather
// coordinator over them, and keeps a single-store oracle fed the exact same
// observations — so every suite can assert that a distributed answer
// matches the one-box answer. A fault injector wraps each node's
// /v1/partials endpoint for kill/stall/corrupt/truncate scenarios.
package clustertest

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/shard"
)

// Mode selects a node's fault behavior on /v1/partials.
type Mode int

const (
	// ModeNormal passes requests through.
	ModeNormal Mode = iota
	// ModeKill hard-closes the client connection without answering, like a
	// node dying mid-query.
	ModeKill
	// ModeStall sleeps before answering, like an overloaded node; the sleep
	// respects the request context, so a canceled attempt unblocks.
	ModeStall
	// ModeCorrupt answers 200 with an arbitrary hostile payload.
	ModeCorrupt
	// ModeTruncate answers with the real response cut in half.
	ModeTruncate
	// ModeUnavailable answers a bare 503 without touching the store.
	ModeUnavailable
)

// fault is one node's injected behavior. times > 0 arms the fault for that
// many /v1/partials requests, then reverts to ModeNormal; times == 0 arms
// it until replaced.
type fault struct {
	mu      sync.Mutex
	mode    Mode
	stall   time.Duration
	payload []byte
	times   int
}

// take consumes one request's worth of the fault.
func (f *fault) take() (Mode, time.Duration, []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	mode, stall, payload := f.mode, f.stall, f.payload
	if mode != ModeNormal && f.times > 0 {
		f.times--
		if f.times == 0 {
			f.mode = ModeNormal
		}
	}
	return mode, stall, payload
}

func (f *fault) set(mode Mode, stall time.Duration, payload []byte, times int) {
	f.mu.Lock()
	f.mode, f.stall, f.payload, f.times = mode, stall, payload, times
	f.mu.Unlock()
}

// Node is one in-process shard: a real store, a real server, a real HTTP
// listener, and fault injectors in front of /v1/partials and /ingest.
type Node struct {
	Store  *shard.Store
	Server *server.Server
	HTTP   *httptest.Server

	fault        fault
	partialsHits atomic.Int64

	ingestFault fault
	ingestHits  atomic.Int64
}

// PartialsHits counts /v1/partials requests that reached this node,
// including ones a fault killed or corrupted — the observable for
// hedge-fires-exactly-once assertions.
func (n *Node) PartialsHits() int { return int(n.partialsHits.Load()) }

// FaultNormal clears any injected fault.
func (n *Node) FaultNormal() { n.fault.set(ModeNormal, 0, nil, 0) }

// FaultKill hard-closes the next `times` /v1/partials connections
// (0 = every one until cleared).
func (n *Node) FaultKill(times int) { n.fault.set(ModeKill, 0, nil, times) }

// FaultStall delays the next `times` /v1/partials answers by d
// (0 = every one until cleared).
func (n *Node) FaultStall(d time.Duration, times int) { n.fault.set(ModeStall, d, nil, times) }

// FaultCorrupt answers the next `times` /v1/partials requests with payload
// (0 = every one until cleared).
func (n *Node) FaultCorrupt(payload []byte, times int) { n.fault.set(ModeCorrupt, 0, payload, times) }

// FaultTruncate answers the next `times` /v1/partials requests with the
// real response cut in half (0 = every one until cleared).
func (n *Node) FaultTruncate(times int) { n.fault.set(ModeTruncate, 0, nil, times) }

// FaultIngestNormal clears any injected ingest fault.
func (n *Node) FaultIngestNormal() { n.ingestFault.set(ModeNormal, 0, nil, 0) }

// IngestHits counts /ingest requests that reached this node, including
// ones a fault killed before the store saw them — the observable for
// retry-attempt assertions.
func (n *Node) IngestHits() int { return int(n.ingestHits.Load()) }

// FaultIngestKill hard-closes the next `times` /ingest connections before
// the store applies anything (0 = every one until cleared) — the
// coordinator sees a transport error for a batch the node never took.
func (n *Node) FaultIngestKill(times int) { n.ingestFault.set(ModeKill, 0, nil, times) }

// FaultIngestUnavailable answers the next `times` /ingest requests with
// a bare 503 (0 = every one until cleared), like a node whose observation
// log is wedged or still replaying.
func (n *Node) FaultIngestUnavailable(times int) { n.ingestFault.set(ModeUnavailable, 0, nil, times) }

// middleware wraps the node's handler with the fault injector.
func (n *Node) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/ingest" {
			n.ingestHits.Add(1)
			mode, _, _ := n.ingestFault.take()
			switch mode {
			case ModeKill:
				if hj, ok := w.(http.Hijacker); ok {
					if conn, _, err := hj.Hijack(); err == nil {
						conn.Close()
						return
					}
				}
				panic(http.ErrAbortHandler)
			case ModeUnavailable:
				http.Error(w, "injected: observation log unavailable", http.StatusServiceUnavailable)
				return
			}
			next.ServeHTTP(w, r)
			return
		}
		if r.URL.Path != "/v1/partials" {
			next.ServeHTTP(w, r)
			return
		}
		n.partialsHits.Add(1)
		mode, stall, payload := n.fault.take()
		switch mode {
		case ModeKill:
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
					return
				}
			}
			panic(http.ErrAbortHandler)
		case ModeStall:
			select {
			case <-time.After(stall):
			case <-r.Context().Done():
				return
			}
			next.ServeHTTP(w, r)
		case ModeCorrupt:
			w.Header().Set("Content-Type", "application/octet-stream")
			_, _ = w.Write(payload)
		case ModeTruncate:
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			data := rec.Body.Bytes()
			for k, vs := range rec.Header() {
				for _, v := range vs {
					w.Header().Add(k, v)
				}
			}
			w.WriteHeader(rec.Code)
			_, _ = w.Write(data[:len(data)/2])
		default:
			next.ServeHTTP(w, r)
		}
	})
}

// Config configures a test cluster.
type Config struct {
	// Nodes is the shard node count (default 4).
	Nodes int
	// StoreOpts are applied to every node store and to the oracle store —
	// backend, order, windows, and the fixed clock windowed suites need.
	StoreOpts []shard.Option
	// Cluster overrides coordinator knobs (NodeTimeout, HedgeAfter,
	// Transport). Nodes and Backend are filled in by the harness.
	Cluster cluster.Config
}

// Cluster is the harness: N live shard nodes, a coordinator routing over
// them (plus its HTTP face), and the single-store oracle.
type Cluster struct {
	Nodes []*Node
	Coord *cluster.Coordinator
	// CoordHTTP serves the coordinator-mode endpoints (/ingest, /v1/query,
	// /v1/stats, /healthz) over a real listener.
	CoordHTTP *httptest.Server

	// OracleStore and Oracle hold every seeded observation in one store —
	// the single-node ground truth scatter-gather answers must match.
	OracleStore *shard.Store
	Oracle      *query.Engine
}

// New builds a cluster and registers its teardown with t.
func New(t testing.TB, cfg Config) *Cluster {
	t.Helper()
	if cfg.Nodes <= 0 {
		cfg.Nodes = 4
	}
	c := &Cluster{}
	urls := make([]string, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		n := &Node{Store: shard.New(cfg.StoreOpts...)}
		n.Server = server.New(n.Store)
		n.HTTP = httptest.NewServer(n.middleware(n.Server))
		c.Nodes = append(c.Nodes, n)
		urls[i] = n.HTTP.URL
	}
	ccfg := cfg.Cluster
	ccfg.Nodes = urls
	ccfg.Backend = c.Nodes[0].Store.Backend()
	coord, err := cluster.New(ccfg)
	if err != nil {
		t.Fatalf("clustertest: %v", err)
	}
	c.Coord = coord
	c.CoordHTTP = httptest.NewServer(server.NewCoordinator(coord))

	c.OracleStore = shard.New(cfg.StoreOpts...)
	c.Oracle = query.NewEngine(c.OracleStore, query.Config{})

	t.Cleanup(func() {
		c.CoordHTTP.Close()
		for _, n := range c.Nodes {
			n.HTTP.Close()
		}
	})
	return c
}

// Obs is one deterministic seeded observation. TS must be whole seconds
// (or zero for "now"), so the value survives the wire's float-seconds
// encoding bit-for-bit and nodes and oracle land it in the same pane.
type Obs struct {
	Key   string
	Value float64
	TS    time.Time
}

// Seed routes observations through the coordinator's ingest path — the
// rendezvous routing under test — and applies the identical batch directly
// to the oracle store. It fails the test on any delivery problem.
func (c *Cluster) Seed(t testing.TB, obs []Obs) {
	t.Helper()
	routed := make([]cluster.Observation, len(obs))
	for i, o := range obs {
		v := o.Value
		routed[i] = cluster.Observation{Key: o.Key, Value: &v}
		if !o.TS.IsZero() {
			ts := float64(o.TS.Unix())
			routed[i].TS = &ts
		}
	}
	ingested, failed, err := c.Coord.Ingest(t.Context(), routed)
	if err != nil || len(failed) > 0 {
		t.Fatalf("clustertest: seeding via coordinator: ingested %d, failed nodes %v: %v", ingested, failed, err)
	}
	if ingested != len(obs) {
		t.Fatalf("clustertest: seeded %d of %d observations", ingested, len(obs))
	}

	batch := c.OracleStore.NewBatch()
	for _, o := range obs {
		at := o.TS
		batch.AddAt(o.Key, o.Value, at)
	}
	if n := batch.Flush(); n != len(obs) {
		t.Fatalf("clustertest: oracle seeded %d of %d observations", n, len(obs))
	}
}

// ExactValue maps an index onto a value whose power sums stay exact in
// float64 — small non-positive integers plus 1.0, whose log moments vanish
// or stay exact — so merged moments sketches are bit-identical no matter
// the merge tree, and scatter-gather answers can be compared to the oracle
// exactly instead of within float slop.
func ExactValue(i int) float64 {
	v := i % 10
	if v == 9 {
		return 1
	}
	return -float64(v % 9)
}

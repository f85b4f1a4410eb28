package cluster

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"context"

	"repro/internal/encoding"
	"repro/internal/query"
	"repro/internal/sketch"
)

// Config configures a Coordinator.
type Config struct {
	// Nodes are the shard nodes' base URLs ("http://host:port"; a bare
	// host:port gets the http scheme). At least one is required.
	Nodes []string
	// Backend is the serving backend every node is configured with; the
	// fingerprint travels in the partials frame and mismatches fail loudly.
	Backend sketch.Backend
	// NodeTimeout caps one node attempt (default 2s). The effective per-node
	// budget is the smaller of this and ~90% of the request deadline.
	NodeTimeout time.Duration
	// HedgeAfter fixes the hedge delay: a duplicate attempt is launched when
	// the first has not answered after this long. Zero selects the adaptive
	// delay: the hedgeQuantile of recently observed node latencies.
	HedgeAfter time.Duration
	// Transport issues the HTTP requests (default a plain http.Client;
	// per-request contexts carry all timeouts).
	Transport Doer
}

const (
	defaultNodeTimeout = 2 * time.Second
	// hedgeQuantile is the quantile of recently observed node latencies
	// used as the adaptive hedge delay.
	hedgeQuantile = 0.9
	// minHedgeDelay floors the adaptive hedge delay so a burst of
	// microsecond in-process latencies cannot turn hedging into a
	// double-send of every request.
	minHedgeDelay = time.Millisecond
)

// Coordinator fans query selections out to shard nodes and merges their
// partial aggregates. All methods are safe for concurrent use.
type Coordinator struct {
	nodes     []string
	ev        *query.Evaluator
	transport Doer

	nodeTimeout time.Duration
	hedgeAfter  time.Duration

	lat latencyRing

	queries        atomic.Uint64
	fanouts        atomic.Uint64
	hedges         atomic.Uint64
	hedgeWins      atomic.Uint64
	partialResults atomic.Uint64
	retriedIngests atomic.Uint64
	nodeRequests   []atomic.Uint64
	nodeFailures   []atomic.Uint64
}

// New wires a Coordinator. It fails on an empty node list or a zero
// backend.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errNoNodes
	}
	if cfg.Backend.IsZero() {
		return nil, errNoBackend
	}
	nodes := make([]string, len(cfg.Nodes))
	for i, n := range cfg.Nodes {
		n = strings.TrimRight(strings.TrimSpace(n), "/")
		if n == "" {
			return nil, errNoNodes
		}
		if !strings.Contains(n, "://") {
			n = "http://" + n
		}
		nodes[i] = n
	}
	if cfg.NodeTimeout <= 0 {
		cfg.NodeTimeout = defaultNodeTimeout
	}
	if cfg.Transport == nil {
		cfg.Transport = defaultTransport()
	}
	return &Coordinator{
		nodes:        nodes,
		ev:           query.NewEvaluator(cfg.Backend),
		transport:    cfg.Transport,
		nodeTimeout:  cfg.NodeTimeout,
		hedgeAfter:   cfg.HedgeAfter,
		nodeRequests: make([]atomic.Uint64, len(nodes)),
		nodeFailures: make([]atomic.Uint64, len(nodes)),
	}, nil
}

// Backend returns the serving backend the coordinator answers from.
func (c *Coordinator) Backend() sketch.Backend { return c.ev.Backend() }

// task is one planned unit of fan-out: a deduplicated selection with the
// subqueries referencing it (query.Plan's output), the nodes it routes to,
// and each node's slot in that node's batched partials request.
type task struct {
	*query.Task
	routes []int // node indexes, ascending
	slot   []int // per node index; -1 when not routed there
}

// nodeReply is one node's answer to its batched partials request.
type nodeReply struct {
	sets []encoding.PartialSet
	err  error
}

// Execute plans (query.Plan — the planner a single node runs), routes and
// runs a batched request across the shard nodes, merging per-node partial
// aggregates before evaluating each subquery's aggregations. Each distinct
// rollup crosses the network once per node no matter how many subqueries
// reference it. Per-subquery failures are isolated, exactly as on a single
// node; answers missing one or more nodes carry the typed partial_result
// envelope naming them alongside the merged data that was reachable.
func (c *Coordinator) Execute(ctx context.Context, req *query.Request) (*query.Response, *query.Error) {
	planned, results, qerr := query.Plan(req, c.ev.Backend())
	if qerr != nil {
		return nil, qerr
	}
	c.queries.Add(1)

	// Route: a key selection lives on exactly its rendezvous owner; prefix,
	// group-by and windowed-prefix selections span the hash space, so every
	// node contributes a partial.
	batches := make([][]query.Selection, len(c.nodes))
	tasks := make([]task, len(planned))
	for i, p := range planned {
		t := &tasks[i]
		t.Task = p
		t.slot = make([]int, len(c.nodes))
		for n := range t.slot {
			t.slot[n] = -1
		}
		if t.Sel.Key != "" {
			t.routes = []int{c.Owner(t.Sel.Key)}
		} else {
			t.routes = make([]int, len(c.nodes))
			for n := range c.nodes {
				t.routes[n] = n
			}
		}
		for _, n := range t.routes {
			t.slot[n] = len(batches[n])
			batches[n] = append(batches[n], t.Sel)
		}
	}

	// Scatter: one batched partials request per node with work, raced
	// against the per-node deadline budget with a hedged duplicate.
	replies := make([]nodeReply, len(c.nodes))
	var wg sync.WaitGroup
	for n := range c.nodes {
		if len(batches[n]) == 0 {
			continue
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			sets, err := c.queryNode(ctx, n, batches[n])
			replies[n] = nodeReply{sets: sets, err: err}
		}(n)
	}
	wg.Wait()

	// Gather and evaluate on the evaluator's per-request scheduler: each
	// task's partials merge across its nodes as one unit, and each merged
	// rollup evaluates as a unit of its own.
	c.ev.Execute(ctx, req, planned, results, func(i int) ([]query.MergedGroup, *query.Error) {
		return c.gatherTask(&tasks[i], replies)
	})
	return &query.Response{Results: results}, nil
}

// gatherTask merges one task's per-node partials in node order into its
// rollups, in single-node result order. The error envelope applies to
// every referencing subquery; rollups come back only when they are to be
// evaluated — on success, or alongside a partial_result.
func (c *Coordinator) gatherTask(t *task, replies []nodeReply) ([]query.MergedGroup, *query.Error) {
	var (
		order    []*query.MergedGroup
		byKey    = map[string]*query.MergedGroup{}
		missing  []string
		notFound *query.Error
		taskErr  *query.Error
	)
	for _, n := range t.routes {
		reply := &replies[n]
		if reply.err != nil {
			missing = append(missing, c.nodes[n])
			continue
		}
		set := &reply.sets[t.slot[n]]
		switch set.Code {
		case "":
			groups, err := c.decodeGroups(set.Groups)
			if err != nil {
				// A payload the backend codec rejects is as good as an
				// unreachable node: its data cannot be merged.
				c.nodeFailures[n].Add(1)
				missing = append(missing, c.nodes[n])
				continue
			}
			for _, g := range groups {
				k := alignKey(g)
				if acc, ok := byKey[k]; ok {
					acc.Keys += g.Keys
					if err := acc.Sum.Merge(g.Sum); err != nil {
						taskErr = query.Errorf(query.CodeInternal, "merging partial from %s: %v", c.nodes[n], err)
					}
				} else {
					byKey[k] = g
					order = append(order, g)
				}
			}
		case query.CodeNotFound:
			// This shard holds no matching keys — an ordinary outcome under
			// hash placement; remember one envelope in case every shard says
			// the same.
			if notFound == nil {
				notFound = &query.Error{Code: set.Code, Message: set.Message}
			}
		default:
			// A typed failure (invalid, backend_unsupported, …) signals a
			// request or configuration problem every node would agree on.
			taskErr = &query.Error{Code: set.Code, Message: c.nodes[n] + ": " + set.Message}
		}
		if taskErr != nil {
			break
		}
	}

	var outErr *query.Error
	switch {
	case taskErr != nil:
		outErr = taskErr
	case len(order) == 0 && len(missing) > 0:
		outErr = partialError(missing)
	case len(order) == 0 && notFound != nil:
		outErr = notFound
	case len(order) == 0:
		outErr = query.Errorf(query.CodeInternal, "no partials gathered")
	case len(missing) > 0:
		outErr = partialError(missing)
	}
	if outErr != nil && outErr.Code == query.CodePartialResult {
		c.partialResults.Add(1)
	}
	if len(order) == 0 || outErr != nil && outErr.Code != query.CodePartialResult {
		return nil, outErr
	}
	sortMerged(order)
	merged := make([]query.MergedGroup, len(order))
	for i, g := range order {
		merged[i] = *g
	}
	return merged, outErr
}

// partialError builds the typed partial_result envelope naming the nodes
// missing from the answer.
func partialError(missing []string) *query.Error {
	nodes := make([]string, len(missing))
	copy(nodes, missing)
	sort.Strings(nodes)
	return &query.Error{
		Code:    query.CodePartialResult,
		Message: "partial result: " + strconv.Itoa(len(nodes)) + " node(s) unreachable",
		Nodes:   nodes,
	}
}

// decodeGroups decodes one node's partial groups through the backend codec.
// Any rejected payload fails the whole set, so a partially hostile response
// can never leak some of its groups into a merge.
func (c *Coordinator) decodeGroups(gs []encoding.PartialGroup) ([]*query.MergedGroup, error) {
	out := make([]*query.MergedGroup, len(gs))
	for i := range gs {
		g := &gs[i]
		sum, err := c.ev.Backend().Unmarshal(g.Payload)
		if err != nil {
			return nil, err
		}
		mg := &query.MergedGroup{Label: g.Label, Keys: clampInt(g.Keys), Sum: sum}
		if g.HasWindow {
			mg.Window = &query.WindowRange{
				StartUnix: g.WindowStart,
				EndUnix:   g.WindowEnd,
				Panes:     clampInt(g.WindowPanes),
			}
		}
		out[i] = mg
	}
	return out, nil
}

// alignKey lines one node's partial group up with the same rollup from the
// other nodes: the label plus the exact window span. The class
// discriminator leads and the window spec — digits and punctuation only —
// is NUL-terminated before the label, so crafted label bytes cannot make a
// windowed and a timeless group collide.
func alignKey(g *query.MergedGroup) string {
	if g.Window == nil {
		return "p\x00" + g.Label
	}
	return "w" +
		strconv.FormatFloat(g.Window.StartUnix, 'g', -1, 64) + "," +
		strconv.FormatFloat(g.Window.EndUnix, 'g', -1, 64) + "," +
		strconv.Itoa(g.Window.Panes) + "\x00" + g.Label
}

// sortMerged restores single-node result order: window positions
// oldest-first (which also lines warm-start chaining up with the slide),
// then group labels ascending.
func sortMerged(order []*query.MergedGroup) {
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.Window != nil && b.Window != nil && a.Window.StartUnix != b.Window.StartUnix {
			return a.Window.StartUnix < b.Window.StartUnix
		}
		return a.Label < b.Label
	})
}

func clampInt(v uint64) int {
	const maxInt = int(^uint(0) >> 1)
	if v > uint64(maxInt) {
		return maxInt
	}
	return int(v)
}

// NodeStats is one shard node's transport counters.
type NodeStats struct {
	Node string `json:"node"`
	// Requests counts attempts sent (hedged duplicates included);
	// Failures counts attempts that failed or answered garbage.
	Requests uint64 `json:"requests"`
	Failures uint64 `json:"failures"`
}

// Stats is a point-in-time snapshot of the coordinator's counters,
// surfaced on /v1/stats in coordinator mode.
type Stats struct {
	Nodes []NodeStats `json:"nodes"`
	// Queries counts Execute calls; Fanouts counts partials attempts issued
	// (hedges included).
	Queries uint64 `json:"queries"`
	Fanouts uint64 `json:"fanouts"`
	// Hedges counts duplicate attempts launched; HedgeWins counts races the
	// duplicate won.
	Hedges    uint64 `json:"hedges"`
	HedgeWins uint64 `json:"hedge_wins"`
	// PartialResults counts answers served with the partial_result envelope.
	PartialResults uint64 `json:"partial_results"`
	// IngestRetries counts ingest deliveries re-attempted after a
	// transport error or 5xx answer.
	IngestRetries uint64 `json:"ingest_retries"`
}

// Stats snapshots the coordinator's counters.
func (c *Coordinator) Stats() Stats {
	st := Stats{
		Queries:        c.queries.Load(),
		Fanouts:        c.fanouts.Load(),
		Hedges:         c.hedges.Load(),
		HedgeWins:      c.hedgeWins.Load(),
		PartialResults: c.partialResults.Load(),
		IngestRetries:  c.retriedIngests.Load(),
		Nodes:          make([]NodeStats, len(c.nodes)),
	}
	for i, n := range c.nodes {
		st.Nodes[i] = NodeStats{
			Node:     n,
			Requests: c.nodeRequests[i].Load(),
			Failures: c.nodeFailures[i].Load(),
		}
	}
	return st
}

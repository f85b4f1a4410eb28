package main

import (
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Sizes and rates. They were sized once on the 2-core reference box so the
// servers sit at 30–60 % of two cores in the open-loop workloads, and are
// frozen: a rate is never derived at run time. See README.md.
const (
	// coldPerKey is the preload depth of query_cold, observations per key.
	coldPerKey = 100
	// coldRate is query_cold's request rate over its two connections.
	coldRate = 80.0
	// coldWholeEvery puts a whole-store rollup in every n-th request.
	coldWholeEvery = 40
	// liveIngestRate and liveQueryRate are mixed_live's two open loops.
	liveIngestRate = 100.0
	liveQueryRate  = 100.0
	// liveScanEvery makes every n-th mixed_live query request a
	// /v1/windows scan.
	liveScanEvery = 10
	// liveWarm is how many bodies of the live stream are preloaded.
	liveWarm = 20
	// dashPerKey is the preload depth of the static dash.* keys.
	dashPerKey = 200
	// ingestPool is how many distinct bodies the closed ingest loop cycles.
	ingestPool = 512
	// ingestWarm is how many bodies warm the ingest workload's store up.
	ingestWarm = 200
	// clusterPool is the same for cluster_scatter's cycle.
	clusterPool = 128
	// clusterQueriesPerIngest is the query requests per cycle.
	clusterQueriesPerIngest = 4
	// probeRequests is how many query requests verify the store after the
	// ingest workload's timed phase.
	probeRequests = 1000
	// lateLimit is how late an open-loop answer may be before it counts as
	// failed.
	lateLimit = time.Second
)

// inputs is everything one run sends, built from the seed before timing.
type inputs struct {
	ks       *keyspace
	preload  []ingestBody // set-up: sent once each, two connections
	bodies   []ingestBody // timed ingest; cycled in closed loops
	bodyDue  []time.Duration
	queries  []queryRequest // timed queries; cycled in closed loops
	queryDue []time.Duration
	probes   []queryRequest // sent once each after the timed phase
	stamped  bool           // bodies carry their due instant as a timestamp
}

// deployment is the set of daemons one workload runs against.
type deployment struct {
	front *daemon   // where clients connect
	nodes []*daemon // the daemons holding stores
	all   []*daemon
}

func single(d *daemon, err error) (*deployment, error) {
	if err != nil {
		return nil, err
	}
	return &deployment{front: d, nodes: []*daemon{d}, all: []*daemon{d}}, nil
}

// phase is what the timed part of a run produced.
type phase struct {
	ingest []result // idx into inputs.bodies (modulo its length)
	query  []result // idx into inputs.queries (modulo its length)
	wall   time.Duration
}

// workload is one traffic mix against one deployment.
type workload struct {
	name string

	// inputs builds the run's inputs. shrink (1 in a benchmark run) divides
	// the keyspace and the body pools, for the smoke test.
	inputs func(seed uint64, seconds, shrink int) *inputs
	boot   func(p *procs) (*deployment, error)
	timed  func(dep *deployment, in *inputs, seconds int) phase
	// recovers marks the workload that ends with SIGKILL, restart and an
	// exact recount.
	recovers bool
	// clustered marks the workload served by a coordinator over shard nodes.
	clustered bool
}

var workloads = []*workload{
	{
		name: "ingest",
		inputs: func(seed uint64, seconds, shrink int) *inputs {
			ks := storeKeyspace(shrink)
			in := &inputs{ks: ks}
			// A short preload creates the hot keys, so the timed phase is
			// steady-state ingest rather than key creation.
			in.preload = zipfBodies(ks, 0, len(ks.keys), seed, streamLiveKeys, streamLiveValues, ingestWarm/shrink)
			in.bodies = zipfBodies(ks, 0, len(ks.keys), seed, streamKeys, streamValues, ingestPool/shrink)
			// Probe only keys the pool gives enough distinct values for a
			// max-ent fit.
			depth := map[int32]int{}
			for _, b := range in.bodies {
				for _, o := range b.obs {
					depth[o.key]++
				}
			}
			in.probes = coldQueries(ks, seed, "", probeRequests/shrink, 0, func(key string) bool {
				lo, _ := ks.prefixRange(key)
				return depth[int32(lo)] >= 50
			})
			return in
		},
		boot: func(p *procs) (*deployment, error) { return single(p.start()) },
		timed: func(dep *deployment, in *inputs, seconds int) phase {
			conns := []*conn{newConn(dep.front.base), newConn(dep.front.base)}
			defer closeAll(conns)
			start := time.Now()
			rs := closedLoop(conns, start, time.Duration(seconds)*time.Second, 0, func(i int) request {
				return in.bodies[i%len(in.bodies)].request()
			})
			return phase{ingest: rs, wall: time.Since(start)}
		},
	},
	{
		name: "query_cold",
		inputs: func(seed uint64, seconds, shrink int) *inputs {
			ks := storeKeyspace(shrink)
			n := int(coldRate*float64(seconds)) / shrink
			return &inputs{
				ks:       ks,
				preload:  uniformBodies(ks, 0, len(ks.keys), seed, coldPerKey),
				queries:  coldQueries(ks, seed, "", n, coldWholeEvery, nil),
				queryDue: schedule(seed, 0, n, coldRate),
			}
		},
		boot: func(p *procs) (*deployment, error) { return single(p.start()) },
		timed: func(dep *deployment, in *inputs, seconds int) phase {
			start := time.Now()
			rs := openLoops(dep.front.base, start, in.queryDue, 2, func(i int) request { return in.queries[i].request() })
			return phase{query: rs, wall: time.Since(start)}
		},
	},
	{
		name: "mixed_live",
		inputs: func(seed uint64, seconds, shrink int) *inputs {
			ks := liveKeyspace(shrink)
			dashLo, dashHi := ks.prefixRange("dash.")
			liveLo, liveHi := ks.prefixRange("live.")
			nIn, nQ := int(liveIngestRate*float64(seconds))/shrink, int(liveQueryRate*float64(seconds))/shrink
			// The first liveWarm bodies of the live stream go in with the
			// preload, so the keys the windowed selections name exist
			// from the first timed request on.
			live := zipfBodies(ks, liveLo, liveHi, seed, streamLiveKeys, streamLiveValues, liveWarm+nIn)
			return &inputs{
				ks:       ks,
				preload:  append(uniformBodies(ks, dashLo, dashHi, seed, dashPerKey), live[:liveWarm]...),
				bodies:   live[liveWarm:],
				bodyDue:  schedule(seed, 1, nIn, liveIngestRate),
				stamped:  true,
				queries:  liveQueries(ks, seed, nQ, live[:liveWarm]),
				queryDue: schedule(seed, 2, nQ, liveQueryRate),
			}
		},
		boot: func(p *procs) (*deployment, error) {
			return single(p.start(liveArgs(p.dir)...))
		},
		timed: func(dep *deployment, in *inputs, seconds int) phase {
			// Timestamps need the phase's start instant: fix it a little
			// ahead, stamp, then wait for it.
			start := time.Now().Add(1500 * time.Millisecond).Truncate(time.Millisecond)
			stamp(in.ks, in.bodies, start, in.bodyDue)
			time.Sleep(time.Until(start))
			var ph phase
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				ph.ingest = openLoops(dep.front.base, start, in.bodyDue, 1, func(i int) request { return in.bodies[i].request() })
			}()
			go func() {
				defer wg.Done()
				ph.query = openLoops(dep.front.base, start, in.queryDue, 1, func(i int) request { return in.queries[i].request() })
			}()
			wg.Wait()
			ph.wall = time.Since(start)
			return ph
		},
		recovers: true,
	},
	{
		name: "cluster_scatter",
		inputs: func(seed uint64, seconds, shrink int) *inputs {
			ks := liveKeyspace(shrink)
			dashLo, dashHi := ks.prefixRange("dash.")
			liveLo, liveHi := ks.prefixRange("live.")
			return &inputs{
				ks:      ks,
				preload: uniformBodies(ks, dashLo, dashHi, seed, dashPerKey),
				bodies:  zipfBodies(ks, liveLo, liveHi, seed, streamLiveKeys, streamLiveValues, clusterPool/shrink),
				queries: scatterQueries(ks, seed, clusterQueriesPerIngest*clusterPool/shrink),
			}
		},
		boot: func(p *procs) (*deployment, error) {
			var nodes []*daemon
			for range 2 {
				n, err := p.start()
				if err != nil {
					return nil, err
				}
				nodes = append(nodes, n)
			}
			coord, err := p.startCoordinator(nodes)
			if err != nil {
				return nil, err
			}
			return &deployment{front: coord, nodes: nodes, all: append([]*daemon{coord}, nodes...)}, nil
		},
		timed: func(dep *deployment, in *inputs, seconds int) phase {
			c := newConn(dep.front.base)
			defer c.close()
			// One request stream on one connection: each cycle is an ingest
			// followed by clusterQueriesPerIngest queries.
			const cycle = 1 + clusterQueriesPerIngest
			start := time.Now()
			rs := closedLoop([]*conn{c}, start, time.Duration(seconds)*time.Second, 0, func(i int) request {
				if i%cycle == 0 {
					return in.bodies[i/cycle%len(in.bodies)].request()
				}
				return in.queries[(i/cycle*clusterQueriesPerIngest+i%cycle-1)%len(in.queries)].request()
			})
			ph := phase{wall: time.Since(start)}
			for _, r := range rs {
				if slot := r.idx % cycle; slot == 0 {
					r.idx /= cycle
					ph.ingest = append(ph.ingest, r)
				} else {
					r.idx = r.idx/cycle*clusterQueriesPerIngest + slot - 1
					ph.query = append(ph.query, r)
				}
			}
			return ph
		},
		clustered: true,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// liveArgs are mixed_live's daemon flags: snapshot, write-ahead log and
// 64 one-second panes, all under the run's temp dir.
func liveArgs(dir string) []string {
	return []string{
		"-snapshot", filepath.Join(dir, "momentsd.snap"),
		"-wal-dir", filepath.Join(dir, "wal"),
		"-pane-width", "1s", "-panes", "64",
	}
}

// storeKeyspace is the 32×8×4×20 = 20,480 svc.region.az.host keys of the
// single-store workloads.
func storeKeyspace(shrink int) *keyspace {
	return newKeyspace("", max(32/shrink, len(datasets)), 8, 4, 20)
}

// liveKeyspace is 640 static dash.* keys and 2,000 live.* keys.
func liveKeyspace(shrink int) *keyspace {
	return join(newKeyspace("dash.", max(8/shrink, len(datasets)), 4, 2, 10),
		newKeyspace("live.", max(10/shrink, len(datasets)), 5, 2, 20))
}

// liveQueries builds mixed_live's query stream: two key and one
// three-segment-prefix selection over the static dash.* keys — 640 + 64
// selections cut to a 256-selection working set that fits the solve cache —
// plus one trailing-window threshold over a live.* key or three-segment
// prefix that the warm bodies created; every liveScanEvery-th request is a
// /v1/windows scan instead.
func liveQueries(ks *keyspace, seed uint64, n int, warm []ingestBody) []queryRequest {
	r := stream(seed, streamQueries)
	dash := ks.selections("dash.")
	keys := newCycler(r, ks, dash.keys)
	keys.items = keys.items[:192]
	p3 := newCycler(r, ks, dash.prefix3)
	live := ks.selections("live.")
	depth := map[string]int{} // warm observations per key
	for _, b := range warm {
		for _, o := range b.obs {
			depth[ks.keys[o.key]]++
		}
	}
	var windows []subquerySpec
	for _, s := range live.prefix3 {
		lo, hi := ks.prefixRange(s.sel)
		for _, k := range ks.keys[lo:hi] {
			if depth[k] > 0 {
				windows = append(windows, subquerySpec{kind: selWindowPrefix, sel: s.sel})
				break
			}
		}
	}
	hot := len(windows)
	for _, s := range live.keys {
		if depth[s.sel] >= 20 && hot > 0 {
			windows = append(windows, subquerySpec{kind: selWindowKey, sel: s.sel})
			hot--
		}
	}
	win := newCycler(r, ks, windows)
	var scans []subquerySpec
	for _, s := range live.groupBy {
		if s.groupBy == 2 && strings.HasSuffix(s.sel, ".") {
			scans = append(scans, s) // the ten "live.svcNN." prefixes
		}
	}
	scan := newCycler(r, ks, scans)
	out := make([]queryRequest, n)
	for i := range out {
		if i%liveScanEvery == liveScanEvery-1 {
			s := scan.take()
			out[i] = buildScan(s.sel, s.t)
			continue
		}
		out[i] = buildQuery([]subquerySpec{keys.take(), keys.take(), p3.take(), win.take()})
	}
	return out
}

// scatterQueries builds cluster_scatter's query stream over the static
// dash.* keys: two owner-routed key selections and two fan-out selections
// (a three-segment prefix and a grouped one-segment prefix) per request.
func scatterQueries(ks *keyspace, seed uint64, n int) []queryRequest {
	r := stream(seed, streamQueries)
	dash := ks.selections("dash.")
	keys, p3, gb := newCycler(r, ks, dash.keys), newCycler(r, ks, dash.prefix3), newCycler(r, ks, dash.groupBy)
	out := make([]queryRequest, n)
	for i := range out {
		out[i] = buildQuery([]subquerySpec{keys.take(), keys.take(), p3.take(), gb.take()})
	}
	return out
}

// openLoops splits a due schedule round-robin over n connections and runs
// one open loop per connection.
func openLoops(base string, start time.Time, due []time.Duration, n int, reqs func(i int) request) []result {
	per := make([][]result, n)
	var wg sync.WaitGroup
	for ci := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newConn(base)
			defer c.close()
			var mine []time.Duration
			var idx []int
			for i := ci; i < len(due); i += n {
				mine = append(mine, due[i])
				idx = append(idx, i)
			}
			rs := openLoop(wallClock{start}, mine, func(j int) (int, []byte, error) { return c.do(reqs(idx[j])) })
			for j := range rs {
				rs[j].idx = idx[j]
			}
			per[ci] = rs
		}()
	}
	wg.Wait()
	var all []result
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

func closeAll(conns []*conn) {
	for _, c := range conns {
		c.close()
	}
}

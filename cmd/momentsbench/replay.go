package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/bounds"
	"repro/internal/cascade"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/encoding"
	"repro/internal/maxent"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/sketch"
	"repro/internal/wal"
	"repro/internal/window"
)

// The replay: the same seeded inputs, in-process, on one goroutine, with
// fixed operation counts, timing the calls into each layer's public
// functions. Counts are divided by scale (1 for a benchmark run, 100 for
// the smoke test).
const (
	replayBodies    = 120   // /ingest bodies through the write path
	replayQueries   = 160   // query requests through the read path
	replayOverhead  = 40    // requests run both traced and untraced
	replayCacheReqs = 300   // requests for the cache hit shares
	replaySolves    = 100   // Milan rollups solved
	replayMicroOps  = 20000 // iterations of each nanosecond-scale call
	replayScans     = 10    // /v1/windows-style scans
)

type replayer struct {
	w     *workload
	in    *inputs
	scale int
	dir   string
	tr    *tracer
	out   *traceRun
}

func (rp *replayer) count(n int) int { return max(n/rp.scale, 2) }

func (rp *replayer) set(name string, v float64) { rp.out.vals[name] = v }

// replay measures the per-layer metrics a workload exercises; the ones it
// does not exercise stay absent (reported as 0). dir holds the replay's
// write-ahead log.
func replay(w *workload, in *inputs, scale int, dir string) (*traceRun, error) {
	dir, err := os.MkdirTemp(dir, "replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rp := &replayer{w: w, in: in, scale: scale, dir: dir, tr: newTracer(true),
		out: &traceRun{workload: w.name, vals: map[string]float64{}}}
	if w.recovers && in.stamped {
		// Stamp the live bodies over the last seconds so the panes hold them.
		now := time.Now()
		due := make([]time.Duration, len(in.bodies))
		for i := range due {
			due[i] = -time.Duration(len(due)-i) * 20 * time.Millisecond
		}
		stamp(in.ks, in.bodies, now, due)
	}
	if len(in.bodies) > 0 && !w.clustered {
		if err := rp.writeSide(); err != nil {
			return nil, err
		}
	}
	if len(in.queries) > 0 && !w.clustered {
		if err := rp.readSide(); err != nil {
			return nil, err
		}
	}
	if w.clustered {
		if err := rp.clusterSide(); err != nil {
			return nil, err
		}
	}
	rp.out.spans = rp.tr.spans
	return rp.out, nil
}

// storeOptions are the workload's store settings: mixed_live's panes.
func (rp *replayer) storeOptions() []shard.Option {
	if rp.w.recovers {
		return []shard.Option{shard.WithWindow(time.Second, 64)}
	}
	return nil
}

func serve(h http.Handler, rq request) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, rq.path, bytes.NewReader(rq.body))
	req.Header.Set("Content-Type", rq.ctype)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func perOp(d time.Duration, n int, unit time.Duration) float64 {
	return float64(d) / float64(n) / float64(unit)
}

// timeOps runs fn n times and returns the mean duration of one call in unit.
func timeOps(n int, unit time.Duration, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return perOp(time.Since(start), n, unit)
}

func allocated(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// observations converts a body to store observations; the zero time means
// "now", as an unstamped wire observation does.
func (rp *replayer) observations(b ingestBody, at time.Time) []shard.Observation {
	out := make([]shard.Observation, len(b.obs))
	for i, o := range b.obs {
		out[i] = shard.Observation{Key: rp.in.ks.keys[o.key], Value: o.val, At: at}
	}
	return out
}

// writeSide replays /ingest: each body through Server.ServeHTTP, then the
// same observations through Batch.Add, Log.Append and Batch.Flush on a twin
// store, as the child spans whose sum the server's self time excludes.
func (rp *replayer) writeSide() error {
	durable := rp.w.recovers
	newLog := func(name string, store *shard.Store) (*wal.Log, error) {
		l, err := wal.Open(wal.Options{Dir: filepath.Join(rp.dir, name), Fingerprint: store.Backend().Fingerprint()})
		return l, err
	}
	storeA, storeB := shard.New(rp.storeOptions()...), shard.New(rp.storeOptions()...)
	var opts []server.ServerOption
	var logA, logB *wal.Log
	if durable {
		var err error
		if logA, err = newLog("wal-a", storeA); err != nil {
			return err
		}
		if logB, err = newLog("wal-b", storeB); err != nil {
			return err
		}
		defer logB.Close()
		storeA.SetJournal(logA)
		opts = append(opts, server.WithWAL(logA, nil))
	}
	srv := server.New(storeA, opts...)
	batch := storeB.NewBatch()
	n := min(rp.count(replayBodies), len(rp.in.bodies))
	// Warm both stores with the preload and with the replayed bodies
	// themselves, so the timed pass finds its keys in place as the live
	// phase does: steady-state ingest, not key creation.
	for _, st := range []*shard.Store{storeA, storeB} {
		loadStore(st, rp.in.ks, rp.in.preload)
		loadStore(st, rp.in.ks, rp.in.bodies[:n])
	}
	for i := 0; i < n; i++ {
		body := rp.in.bodies[i]
		obs := rp.observations(body, time.Now())
		var code int
		root := rp.tr.measure(0, i, "server.ingest", func() { code, _ = serve(srv, body.request()) })
		if code != http.StatusOK {
			rp.out.gate("replayed /ingest %d answered %d", i, code)
		}
		rp.tr.measure(root, i, "shard.batch_add", func() {
			for _, o := range obs {
				batch.AddAt(o.Key, o.Value, o.At)
			}
		})
		release := func() {}
		if durable {
			var err error
			rp.tr.measure(root, i, "wal.append", func() { release, err = logB.Append(obs) })
			if err != nil {
				return err
			}
		}
		rp.tr.measure(root, i, "shard.commit", func() { batch.Flush() })
		release()
	}
	st := selfTimes(rp.tr.spans)
	nObs := n * obsPerBody
	rp.set("server.ingest_us_per_req", perOp(st["server.ingest"].total, n, time.Microsecond))
	rp.set("server.ingest_self_us_per_req", perOp(st["server.ingest"].self, n, time.Microsecond))
	rp.set("shard.batch_add_ns_per_obs", perOp(st["shard.batch_add"].total, nObs, time.Nanosecond))
	rp.set("shard.commit_ns_per_obs", perOp(st["shard.commit"].total, nObs, time.Nanosecond))
	rp.set("shard.index_rebuilds", float64(storeA.ReadStats().IndexRebuilds))
	rp.storeCosts(storeA)
	few := rp.in.bodies[:min(n, 20)]
	rp.set("server.ingest_alloc_b_per_obs", float64(allocated(func() {
		for _, b := range few {
			serve(srv, b.request())
		}
	}))/float64(len(few)*obsPerBody))

	if durable {
		rp.set("wal.append_us_per_batch", perOp(st["wal.append"].total, n, time.Microsecond))
		appended := logA.Stats().AppendedObs
		if err := logA.Close(); err != nil {
			return err
		}
		size, err := dirSize(filepath.Join(rp.dir, "wal-a"))
		if err != nil {
			return err
		}
		rp.set("wal.bytes_per_obs", float64(size)/float64(appended))
		var replayed uint64
		sink := shard.New(rp.storeOptions()...).NewBatch()
		start := time.Now()
		rs, err := wal.Replay(filepath.Join(rp.dir, "wal-a"), storeA.Backend().Fingerprint(), nil, func(obs []shard.Observation) error {
			for _, o := range obs {
				sink.AddAt(o.Key, o.Value, o.At)
			}
			sink.Flush()
			return nil
		}, nil)
		if err != nil {
			return err
		}
		replayed = rs.Observations
		if replayed != appended {
			rp.out.gate("wal.Replay applied %d observations, %d were appended", replayed, appended)
		}
		rp.set("wal.replay_obs_per_s", float64(replayed)/time.Since(start).Seconds())
		return nil
	}

	// Below: costs of the plain store, measured on the ingest workload only.
	buffered := shard.New()
	loadStore(buffered, rp.in.ks, rp.in.bodies[:n])
	f, err := shard.NewFlusher(buffered, shard.FlusherConfig{})
	if err != nil {
		return err
	}
	h := f.Handle()
	start := time.Now()
	for _, b := range rp.in.bodies[:n] {
		for _, o := range b.obs {
			h.Add(rp.in.ks.keys[o.key], o.val)
		}
		h.Flush()
	}
	rp.set("shard.buffered_ns_per_obs", perOp(time.Since(start), nObs, time.Nanosecond))
	if err := f.Close(); err != nil {
		return err
	}
	rp.coreCosts()
	rp.overhead(n, func(tr *tracer, i int) {
		tr.measure(0, i, "server.ingest", func() { serve(srv, rp.in.bodies[i].request()) })
	})
	return nil
}

func dirSize(dir string) (int64, error) {
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// storeCosts measures snapshot, restore and memory per key of a store.
func (rp *replayer) storeCosts(store *shard.Store) {
	var buf bytes.Buffer
	start := time.Now()
	if err := store.Snapshot(&buf); err != nil {
		rp.out.gate("snapshot: %v", err)
		return
	}
	rp.set("shard.snapshot_ms", perOp(time.Since(start), 1, time.Millisecond))
	rp.set("shard.snapshot_b_per_key", float64(buf.Len())/float64(store.Len()))
	var restored *shard.Store
	heap := allocatedLive(func() {
		restored = shard.New(rp.storeOptions()...)
		start = time.Now()
		if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
			rp.out.gate("restore: %v", err)
		}
		rp.set("shard.restore_ms", perOp(time.Since(start), 1, time.Millisecond))
	})
	if restored.TotalCount() != store.TotalCount() {
		rp.out.gate("restore holds %.0f observations, snapshot %.0f", restored.TotalCount(), store.TotalCount())
	}
	rp.set("shard.heap_b_per_key", ratio(float64(heap), float64(restored.Len())))
	runtime.KeepAlive(restored)
}

// allocatedLive returns the growth of the live heap across fn, after
// collection on both sides.
func allocatedLive(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	fn()
	runtime.GC()
	runtime.ReadMemStats(&b)
	if b.HeapAlloc < a.HeapAlloc {
		return 0
	}
	return b.HeapAlloc - a.HeapAlloc
}

// coreCosts times the sketch primitives at k = 10 and the sketch codec.
func (rp *replayer) coreCosts() {
	n := rp.count(replayMicroOps)
	r := stream(1, 1)
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = r.ExpFloat64()
	}
	a, b := core.New(core.DefaultK), core.New(core.DefaultK)
	b.AddMany(xs)
	rp.set("core.add_ns", timeOps(n*16, time.Nanosecond, func(i int) { a.Add(xs[i%len(xs)]) }))
	rp.set("core.merge_ns", timeOps(n, time.Nanosecond, func(int) { _ = a.Merge(b) }))
	rp.set("core.sub_ns", timeOps(n, time.Nanosecond, func(int) { _ = a.Sub(b) }))
	data := encoding.Marshal(b)
	rp.set("encoding.marshal_ns", timeOps(n, time.Nanosecond, func(int) { data = encoding.Marshal(b) }))
	rp.set("encoding.unmarshal_ns", timeOps(n, time.Nanosecond, func(int) { _, _ = encoding.Unmarshal(data) }))
}

// overhead runs requests both untraced and traced, alternating which goes
// first, and reports the median relative lengthening of a traced request:
// the median over pairs, because one preempted request outweighs the
// bookkeeping of all of them.
func (rp *replayer) overhead(limit int, run func(tr *tracer, i int)) {
	on, off := newTracer(true), newTracer(false)
	timed := func(tr *tracer, i int) float64 {
		start := time.Now()
		run(tr, i)
		return float64(time.Since(start))
	}
	var rel []float64
	for i := 0; i < min(rp.count(replayOverhead), limit); i++ {
		var tOn, tOff float64
		if i%2 == 0 {
			tOn, tOff = timed(on, i), timed(off, i)
		} else {
			tOff = timed(off, i)
			tOn = timed(on, i)
		}
		rel = append(rel, (tOn-tOff)/tOff)
	}
	rp.set("momentsbench.trace_overhead_share", median(rel))
}

// resolved is one rollup of a selection, as the engine would materialize it.
type resolved struct {
	sk   *core.Sketch
	keys int
}

// resolve materializes a selection's rollups through the store's public
// reads: Summary for a key, MergePrefix for a prefix, Match plus per-label
// merges for a group-by, PanesRange for a trailing window.
func resolve(store *shard.Store, s subquerySpec) []resolved {
	switch s.kind {
	case selKey:
		if sk, ok := store.Sketch(s.sel); ok {
			return []resolved{{sk, 1}}
		}
	case selPrefix:
		if sum, n, err := store.MergePrefix(s.sel); err == nil && n > 0 {
			return []resolved{{sketch.RawMoments(sum), n}}
		}
	case selGroupBy:
		byLabel := map[string]*resolved{}
		var labels []string
		for _, m := range store.Match(s.sel) {
			label := strings.Split(m.Key, ".")[s.groupBy]
			g, ok := byLabel[label]
			if !ok {
				g = &resolved{sk: core.New(core.DefaultK)}
				byLabel[label] = g
				labels = append(labels, label)
			}
			_ = g.sk.Merge(sketch.RawMoments(m.Summary))
			g.keys++
		}
		sort.Strings(labels)
		out := make([]resolved, len(labels))
		for i, l := range labels {
			out[i] = *byLabel[l]
		}
		return out
	case selWindowKey, selWindowPrefix:
		cur, _ := store.CurrentPane()
		var ps *shard.PaneSeries
		var err error
		if s.kind == selWindowKey {
			ps, err = store.PanesRange(s.sel, cur-trailingPanes+1, cur+1)
		} else {
			ps, err = store.PanesRangePrefix(context.Background(), s.sel, cur-trailingPanes+1, cur+1)
		}
		if err != nil {
			return nil
		}
		merged := core.New(core.DefaultK)
		panes, _ := ps.MomentsPanes()
		for _, p := range panes {
			_ = merged.Merge(p)
		}
		return []resolved{{merged, ps.Keys}}
	}
	return nil
}

// readStore builds the store the workload's queries read: the preload, and
// the timed bodies once each.
func (rp *replayer) readStore() *shard.Store {
	store := shard.New(rp.storeOptions()...)
	loadStore(store, rp.in.ks, rp.in.preload)
	b := store.NewBatch()
	for _, body := range rp.in.bodies {
		for _, o := range rp.observations(body, time.Now()) {
			b.AddAt(o.Key, o.Value, o.At)
		}
		b.Flush()
	}
	return store
}

// readSide replays /v1/query with the solve cache off, so every request
// takes the cold path the child spans retrace: Server.ServeHTTP, then
// Engine.Execute on the same request, then per subquery the store reads,
// the max-ent solves, the quantile evaluations and the threshold cascade.
func (rp *replayer) readSide() error {
	store := rp.readStore()
	srv := server.New(store, server.WithSolveCache(0))
	engine := query.NewEngine(store, query.Config{SolveCache: 0})
	ctx := context.Background()
	truth := buildTruth(rp.in.ks, sent{bodies: rp.in.preload}, sent{bodies: rp.in.bodies})
	var acc accuracy
	var (
		subqueries, merged, solves, notConverged, iters, violations int
		cst                                                         cascade.Stats
		solveUS                                                     []float64
		sketches                                                    []*core.Sketch
	)
	phis := []float64{0.5, 0.9, 0.99}
	one := func(tr *tracer, i int, collect bool) {
		q := rp.in.queries[i]
		if q.req == nil {
			return
		}
		var code int
		var body []byte
		root := tr.measure(0, i, "server.query", func() { code, body = serve(srv, q.request()) })
		exec := tr.measure(root, i, "query.execute", func() { engine.Execute(ctx, q.req) })
		for _, s := range q.subs {
			var groups []resolved
			tr.measure(exec, i, "shard.resolve", func() { groups = resolve(store, s) })
			for _, g := range groups {
				var sol *maxent.Solution
				var err error
				id := tr.measure(exec, i, "maxent.solve", func() {
					if !s.kind.windowed() { // windowed selections ask a threshold only
						sol, err = maxent.SolveSketch(g.sk, maxent.Options{})
					}
				})
				var st cascade.Stats
				tr.measure(exec, i, "cascade.threshold", func() {
					_, _ = cascade.Threshold(g.sk, s.t, thresholdPhi, cascade.Full(), &st)
				})
				if sol != nil {
					tr.measure(exec, i, "maxent.quantile", func() { sol.Quantiles(phis) })
				}
				if !collect {
					continue
				}
				merged += g.keys
				cst.Queries += st.Queries
				cst.Solves += st.Solves
				for stage := range st.Resolved {
					cst.Resolved[stage] += st.Resolved[stage]
				}
				solves += st.Solves
				iters += st.NewtonIters
				switch {
				case s.kind.windowed():
				case err != nil:
					notConverged++
				default:
					solves++
					iters += sol.Iterations
					solveUS = append(solveUS, float64(tr.spans[id-1].dur())/1e3)
					sketches = append(sketches, g.sk)
					violations += boundViolations(g.sk, sol, phis)
				}
			}
		}
		if collect {
			subqueries += len(q.subs)
			acc.checkQuery(truth, q, code, body)
		}
	}
	n := min(rp.count(replayQueries), len(rp.in.queries))
	requests := 0
	for i := 0; i < n; i++ {
		if rp.in.queries[i].req != nil {
			requests++
		}
		one(rp.tr, i, true)
	}
	rp.out.gateAnswers(&acc)
	if got, want := store.TotalCount(), float64(truth.observations()); got != want {
		rp.out.gate("replay store holds %.0f observations, %.0f were applied", got, want)
	}
	st := selfTimes(rp.tr.spans)
	rp.set("server.query_self_us_per_req", perOp(st["server.query"].self, requests, time.Microsecond))
	rp.set("query.execute_us_per_subquery", perOp(st["query.execute"].total, subqueries, time.Microsecond))
	rp.set("query.self_us_per_subquery", perOp(st["query.execute"].self, subqueries, time.Microsecond))
	rp.set("shard.keys_merged_per_subquery", float64(merged)/float64(subqueries))
	rp.set("shard.merge_prefix_ns_per_key", perOp(st["shard.resolve"].total, max(merged, 1), time.Nanosecond))
	rp.set("maxent.solves_per_subquery", float64(solves)/float64(subqueries))
	rp.set("maxent.newton_iters_per_solve", float64(iters)/float64(max(solves, 1)))
	rp.set("maxent.not_converged", float64(notConverged))
	rp.set("maxent.solve_us", median(solveUS))
	rp.set("maxent.quantile_ns", perOp(st["maxent.quantile"].total, max(st["maxent.quantile"].n, 1)*len(phis), time.Nanosecond))
	rp.set("cascade.threshold_us", perOp(st["cascade.threshold"].total, max(st["cascade.threshold"].n, 1), time.Microsecond))
	presolve := cst.Queries - cst.Resolved[cascade.StageMaxEnt]
	rp.set("cascade.presolve_share", float64(presolve)/float64(max(cst.Queries, 1)))
	// Not a gate yet: the seed commit has a handful per run (0.99-quantiles
	// of 100-value keys, a few thousandths of rank outside). ROADMAP item 3
	// is to bring it to zero; this count is its tripwire.
	rp.set("bounds.violations", float64(violations))
	rp.solverCosts(sketches)
	rp.pointReads(store)
	if rp.w.recovers {
		rp.windowCosts(store, srv)
		if err := rp.cacheShares(store); err != nil {
			return err
		}
	}
	rp.overhead(n, func(tr *tracer, i int) { one(tr, i, false) })
	return nil
}

// boundViolations counts the solution's quantiles whose value the
// guaranteed RTT rank bounds place outside the quantile's own rank: the
// exact rank of q̂ lies in [lo, hi], so φ outside it (beyond the solver's
// tolerance) means the estimate contradicts the moments it was fit to.
func boundViolations(sk *core.Sketch, sol *maxent.Solution, phis []float64) int {
	const slack = 1e-6
	n := 0
	for _, phi := range phis {
		iv := bounds.RTT(sk, sol.Quantile(phi))
		if phi < iv.Lo-slack || phi > iv.Hi+slack {
			n++
		}
	}
	return n
}

// solverCosts times the solver's parts over the workload's own rollups,
// and full solves over fixed Milan rollups — the heavy-tailed case the live
// workloads leave out.
func (rp *replayer) solverCosts(sketches []*core.Sketch) {
	if len(sketches) == 0 {
		return
	}
	few := sketches[:min(len(sketches), rp.count(replaySolves))]
	rp.set("maxent.select_basis_us", timeOps(len(few), time.Microsecond, func(i int) {
		_, _ = maxent.SelectBasis(few[i], maxent.Options{})
	}))
	rp.set("maxent.alloc_b_per_solve", float64(allocated(func() {
		for _, sk := range few {
			_, _ = maxent.SolveSketch(sk, maxent.Options{})
		}
	}))/float64(len(few)))
	n := rp.count(replayMicroOps)
	t := sketches[0].Mean()
	rp.set("bounds.markov_ns", timeOps(n, time.Nanosecond, func(i int) { bounds.Markov(sketches[i%len(sketches)], t) }))
	rp.set("bounds.rtt_us", timeOps(n/10, time.Microsecond, func(i int) { bounds.RTT(sketches[i%len(sketches)], t) }))

	milan := dataset.Milan()
	r := stream(0, 1) // fixed: the same rollups on every run
	var us []float64
	for i := 0; i < rp.count(replaySolves); i++ {
		sk := core.New(core.DefaultK)
		for j := 0; j < 2000; j++ {
			sk.Add(milan.Gen(r))
		}
		start := time.Now()
		_, _ = maxent.SolveSketch(sk, maxent.Options{})
		us = append(us, perOp(time.Since(start), 1, time.Microsecond))
	}
	rp.set("maxent.solve_milan_us", median(us))
	sort.Float64s(us)
	rp.set("maxent.solve_milan_p90_us", percentile(us, 90))
}

// pointReads times single-key reads over the queried keys.
func (rp *replayer) pointReads(store *shard.Store) {
	var keys []string
	for _, q := range rp.in.queries {
		for _, s := range q.subs {
			if s.kind == selKey {
				keys = append(keys, s.sel)
			}
		}
	}
	if len(keys) == 0 {
		return
	}
	n := rp.count(replayMicroOps)
	rp.set("shard.point_read_ns", timeOps(n, time.Nanosecond, func(i int) { store.Summary(keys[i%len(keys)]) }))
}

// windowCosts times the pane reads and the sliding-window scan behind
// mixed_live's windowed selections and /v1/windows requests.
func (rp *replayer) windowCosts(store *shard.Store, srv http.Handler) {
	var prefixes []string
	for _, q := range rp.in.queries {
		for _, s := range q.subs {
			if s.kind == selWindowPrefix {
				prefixes = append(prefixes, s.sel)
			}
		}
	}
	if len(prefixes) == 0 {
		return
	}
	ctx := context.Background()
	cur, _ := store.CurrentPane()
	n := rp.count(replayQueries)
	rp.set("shard.panes_range_us", timeOps(n, time.Microsecond, func(i int) {
		_, _ = store.PanesRangePrefix(ctx, prefixes[i%len(prefixes)], cur-trailingPanes+1, cur+1)
	}))
	rp.set("shard.retained_prefix_us", timeOps(n, time.Microsecond, func(i int) {
		_, _, _ = store.RetainedPrefix(ctx, prefixes[i%len(prefixes)])
	}))

	var positions, solves, warm, iters, scans int
	var total time.Duration
	for _, q := range rp.in.queries {
		if q.scan == nil || scans >= rp.count(replayScans) {
			continue
		}
		scans++
		if code, body := serve(srv, q.request()); code != http.StatusOK {
			rp.out.gate("replayed /v1/windows answered %d: %.200s", code, body)
		}
		ps, err := store.PanesPrefix(ctx, q.scan.sel)
		if err != nil {
			continue
		}
		panes, _ := ps.MomentsPanes()
		start := time.Now()
		res, err := window.ScanMoments(panes, trailingPanes, q.scan.t, thresholdPhi, cascade.Full(), maxent.Options{})
		if err != nil {
			continue
		}
		total += time.Since(start)
		positions += len(panes) - trailingPanes + 1
		solves += res.Stats.Solves
		warm += res.Stats.WarmSolves
		iters += res.Stats.NewtonIters
	}
	if positions == 0 {
		return
	}
	rp.set("maxent.warm_share", ratio(float64(warm), float64(solves)))
	rp.set("window.scan_us_per_position", perOp(total, positions, time.Microsecond))
	rp.set("window.solves_per_scan", float64(solves)/float64(scans))
	rp.set("window.newton_iters_per_scan", float64(iters)/float64(scans))
}

// cacheShares replays the query stream against an engine with the default
// solve cache, each request preceded by an ingest into keys no query reads,
// and reports the hit share of key and of prefix selections: key entries
// are stamped with their key's version and survive, prefix entries with the
// store's and do not.
func (rp *replayer) cacheShares(store *shard.Store) error {
	engine := query.NewEngine(store, query.Config{SolveCache: query.DefaultSolveCacheSize})
	ctx := context.Background()
	batch := store.NewBatch()
	var hits, lookups [2]float64 // key, prefix
	n := min(rp.count(replayCacheReqs), len(rp.in.queries))
	for i := 0; i < n; i++ {
		q := rp.in.queries[i]
		if q.req == nil {
			continue
		}
		body := rp.in.bodies[i%len(rp.in.bodies)]
		for _, o := range rp.observations(body, time.Now()) {
			batch.AddAt(o.Key, o.Value, o.At)
		}
		batch.Flush()
		// One selection at a time, so the counter delta names its class.
		for j, s := range q.subs {
			if s.kind.windowed() {
				continue
			}
			class := 0
			if s.kind != selKey {
				class = 1
			}
			before := engine.CacheStats()
			engine.Execute(ctx, &query.Request{Queries: q.req.Queries[j : j+1]})
			after := engine.CacheStats()
			hits[class] += float64(after.Hits - before.Hits)
			lookups[class] += float64(after.Hits - before.Hits + after.Misses - before.Misses)
		}
	}
	if lookups[0] > 0 {
		rp.set("query.cache_hit_share_key", hits[0]/lookups[0])
	}
	if lookups[1] > 0 {
		rp.set("query.cache_hit_share_prefix", hits[1]/lookups[1])
	}
	return nil
}

// clusterSide replays cluster_scatter over two in-process shard nodes behind
// real listeners and a Coordinator, next to one store holding the union.
func (rp *replayer) clusterSide() error {
	var engines []*query.Engine
	var urls []string
	for range 2 {
		store := shard.New()
		srv := server.New(store)
		ts := httptest.NewServer(srv)
		defer ts.Close()
		engines = append(engines, srv.Engine())
		urls = append(urls, ts.URL)
	}
	union := shard.New()
	coord, err := cluster.New(cluster.Config{Nodes: urls, Backend: union.Backend()})
	if err != nil {
		return err
	}
	ctx := context.Background()
	routed := func(b ingestBody) []cluster.Observation {
		out := make([]cluster.Observation, len(b.obs))
		for i, o := range b.obs {
			v := o.val
			out[i] = cluster.Observation{Key: rp.in.ks.keys[o.key], Value: &v}
		}
		return out
	}
	for _, b := range rp.in.preload {
		if n, failed, err := coord.Ingest(ctx, routed(b)); err != nil || len(failed) > 0 || n != len(b.obs) {
			rp.out.gate("replayed preload through the coordinator: %d ingested, failed nodes %v: %v", n, failed, err)
		}
	}
	loadStore(union, rp.in.ks, rp.in.preload)
	oracle := query.NewEngine(union, query.Config{})

	nb := min(rp.count(replayBodies), len(rp.in.bodies))
	for i := 0; i < nb; i++ {
		obs := routed(rp.in.bodies[i])
		rp.tr.measure(0, i, "cluster.ingest", func() { _, _, _ = coord.Ingest(ctx, obs) })
	}
	subqueries, mismatches := 0, 0
	first := ""
	nq := min(rp.count(replayQueries), len(rp.in.queries))
	one := func(tr *tracer, i int, check bool) {
		q := rp.in.queries[i]
		var got, want *query.Response
		root := tr.measure(0, nb+i, "cluster.execute", func() { got, _ = coord.Execute(ctx, q.req) })
		tr.measure(root, nb+i, "query.execute", func() { want, _ = oracle.Execute(ctx, q.req) })
		if !check {
			return
		}
		subqueries += len(q.subs)
		if got == nil || want == nil {
			mismatches++
		} else if d := diffResponses(q, want, got); d != "" {
			mismatches++
			if first == "" {
				first = d
			}
		}
	}
	for i := 0; i < nq; i++ {
		one(rp.tr, i, true)
	}
	if mismatches > 0 {
		rp.out.gate("%d of %d replayed cluster answers differ from a single store's: %s", mismatches, nq, first)
	}
	st := selfTimes(rp.tr.spans)
	rp.set("cluster.ingest_us_per_req", perOp(st["cluster.ingest"].total, nb, time.Microsecond))
	rp.set("cluster.execute_us_per_subquery", perOp(st["cluster.execute"].total, subqueries, time.Microsecond))
	rp.set("cluster.fanout_overhead_us", perOp(st["cluster.execute"].self, nq, time.Microsecond))
	rp.set("query.execute_us_per_subquery", perOp(st["query.execute"].total, subqueries, time.Microsecond))

	// The partials frames the nodes would send for these queries.
	var sels []query.Selection
	for _, q := range rp.in.queries[:nq] {
		for _, sq := range q.req.Queries {
			sels = append(sels, sq.Select)
		}
	}
	var frames [][]byte
	groups := 0
	var encode time.Duration
	fp := union.Backend().Fingerprint()
	for at := 0; at < len(sels); at += 4 {
		sets := engines[0].ResolvePartials(ctx, sels[at:min(at+4, len(sels))])
		wire := make([]encoding.PartialSet, len(sets))
		for i, set := range sets {
			if set.Err != nil {
				wire[i] = encoding.PartialSet{Code: set.Err.Code, Message: set.Err.Message}
				continue
			}
			for _, g := range set.Groups {
				wire[i].Groups = append(wire[i].Groups, encoding.PartialGroup{Label: g.Label, Keys: uint64(g.Keys), Payload: g.Payload})
				groups++
			}
		}
		start := time.Now()
		frame := encoding.MarshalPartials(fp, wire)
		encode += time.Since(start)
		frames = append(frames, frame)
	}
	if groups > 0 {
		size := 0
		start := time.Now()
		for _, f := range frames {
			size += len(f)
			if _, _, err := encoding.UnmarshalPartials(f); err != nil {
				rp.out.gate("partials frame does not decode: %v", err)
			}
		}
		rp.set("encoding.partials_decode_ns_per_group", perOp(time.Since(start), groups, time.Nanosecond))
		rp.set("encoding.partials_encode_ns_per_group", perOp(encode, groups, time.Nanosecond))
		rp.set("encoding.partials_b_per_group", float64(size)/float64(groups))
	}
	rp.overhead(nq, func(tr *tracer, i int) { one(tr, i, false) })
	return nil
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"syscall"
	"time"
)

// nodeStats is the part of GET /v1/stats the benchmark reads.
type nodeStats struct {
	Keys         int     `json:"keys"`
	Observations float64 `json:"observations"`
	SolveCache   struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
	} `json:"solve_cache"`
	ReadPath struct {
		PublishedReads uint64 `json:"published_reads"`
		LockedReads    uint64 `json:"locked_reads"`
		Publishes      uint64 `json:"publishes"`
		IndexRebuilds  uint64 `json:"index_rebuilds"`
	} `json:"read_path"`
	WAL struct {
		Enabled      bool   `json:"enabled"`
		Appends      uint64 `json:"appends"`
		AppendedObs  uint64 `json:"appended_obs"`
		Syncs        uint64 `json:"syncs"`
		SyncFailures uint64 `json:"sync_failures"`
		DroppedObs   uint64 `json:"dropped_obs"`
	} `json:"wal"`
	Coordinator *struct {
		Queries        uint64 `json:"queries"`
		Fanouts        uint64 `json:"fanouts"`
		Hedges         uint64 `json:"hedges"`
		PartialResults uint64 `json:"partial_results"`
		IngestRetries  uint64 `json:"ingest_retries"`
	} `json:"coordinator"`
}

func (d *daemon) stats() (nodeStats, error) {
	var st nodeStats
	resp, err := http.Get(d.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats answered %d: %.200s", resp.StatusCode, body)
	}
	return st, json.Unmarshal(body, &st)
}

// snapshot is the counters of a deployment at one instant.
type snapshot struct {
	at        time.Time
	stores    nodeStats // summed over the store nodes
	coord     nodeStats
	serverCPU float64 // seconds, all daemons
	selfCPU   float64 // seconds, this process
}

func takeSnapshot(dep *deployment) (snapshot, error) {
	s := snapshot{at: time.Now(), selfCPU: selfCPUSeconds()}
	for _, n := range dep.nodes {
		st, err := n.stats()
		if err != nil {
			return s, err
		}
		s.stores.Keys += st.Keys
		s.stores.Observations += st.Observations
		s.stores.SolveCache.Hits += st.SolveCache.Hits
		s.stores.SolveCache.Misses += st.SolveCache.Misses
		s.stores.SolveCache.Evictions += st.SolveCache.Evictions
		s.stores.ReadPath.PublishedReads += st.ReadPath.PublishedReads
		s.stores.ReadPath.LockedReads += st.ReadPath.LockedReads
		s.stores.ReadPath.Publishes += st.ReadPath.Publishes
		s.stores.ReadPath.IndexRebuilds += st.ReadPath.IndexRebuilds
		s.stores.WAL.Enabled = s.stores.WAL.Enabled || st.WAL.Enabled
		s.stores.WAL.Appends += st.WAL.Appends
		s.stores.WAL.AppendedObs += st.WAL.AppendedObs
		s.stores.WAL.Syncs += st.WAL.Syncs
		s.stores.WAL.SyncFailures += st.WAL.SyncFailures
		s.stores.WAL.DroppedObs += st.WAL.DroppedObs
	}
	if dep.front != dep.nodes[0] {
		st, err := dep.front.stats()
		if err != nil {
			return s, err
		}
		s.coord = st
	}
	for _, d := range dep.all {
		s.serverCPU += d.cpuSeconds()
	}
	return s, nil
}

func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// timedResults is one closed loop's results and how long it ran.
type timedResults struct {
	rs   []result
	wall time.Duration
}

// liveRun is everything measured in one live run of one workload.
type liveRun struct {
	w  *workload
	in *inputs

	setupS        []float64      // one per set-up repetition
	bootMS        float64        // summed over the deployment, last set-up
	preloads      []timedResults // one per set-up repetition
	before, after snapshot
	ph            phase
	probe         []result
	probeWall     time.Duration
	acc           accuracy
	ackedObs      int // over preload and timed phase
	recoveryS     float64
	rssPeakMB     float64
	gateFailures  []string
}

// setUp boots the workload's deployment and preloads it, once.
func (r *liveRun) setUp(p *procs) (*deployment, error) {
	began := time.Now()
	dep, err := r.w.boot(p)
	if err != nil {
		return nil, err
	}
	r.bootMS = 0
	for _, d := range dep.all {
		r.bootMS += d.bootMS
	}
	if len(r.in.preload) > 0 {
		conns := []*conn{newConn(dep.front.base), newConn(dep.front.base)}
		t := time.Now()
		rs := closedLoop(conns, t, 0, len(r.in.preload), func(i int) request { return r.in.preload[i].request() })
		r.preloads = append(r.preloads, timedResults{rs, time.Since(t)})
		closeAll(conns)
		for _, res := range rs {
			if !ingestOK(res) {
				return nil, fmt.Errorf("preload request %d failed: status %d, %v, %.200s", res.idx, res.status, res.err, res.body)
			}
		}
	}
	r.setupS = append(r.setupS, time.Since(began).Seconds())
	return dep, nil
}

// ingestOK reports whether an /ingest request was acknowledged in full.
func ingestOK(r result) bool {
	if r.err != nil || r.status != http.StatusOK {
		return false
	}
	var ack struct {
		Ingested int `json:"ingested"`
	}
	return json.Unmarshal(r.body, &ack) == nil && ack.Ingested == obsPerBody
}

func queryOK(r result) bool { return r.err == nil && r.status == http.StatusOK }

// runLive runs one workload against real momentsd processes: set-up
// (repeated setups times; the last one is kept), the timed phase between
// two counter snapshots, then the answer checks and correctness gates.
func runLive(p *procs, w *workload, seed uint64, seconds, setups int) (*liveRun, error) {
	r := &liveRun{w: w, in: w.inputs(seed, seconds, 1)}
	var dep *deployment
	for rep := 0; rep < setups; rep++ {
		p.killAll()
		if err := clearDir(p.dir); err != nil {
			return nil, err
		}
		var err error
		if dep, err = r.setUp(p); err != nil {
			return nil, err
		}
	}
	var err error
	if r.before, err = takeSnapshot(dep); err != nil {
		return nil, err
	}
	r.ph = w.timed(dep, r.in, seconds)
	if r.after, err = takeSnapshot(dep); err != nil {
		return nil, err
	}
	if len(r.in.probes) > 0 {
		c := newConn(dep.front.base)
		t := time.Now()
		r.probe = closedLoop([]*conn{c}, t, 0, len(r.in.probes), func(i int) request { return r.in.probes[i].request() })
		r.probeWall = time.Since(t)
		c.close()
	}
	r.check(dep)
	for _, d := range dep.all {
		r.rssPeakMB += d.peakRSSMB()
	}
	if w.recovers {
		if err := r.recover(p, dep); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// check verifies every answer against the generator's truth and applies
// the correctness gates.
func (r *liveRun) check(dep *deployment) {
	in := r.in
	// What the store must hold: every acknowledged body, preload included.
	counts := make([]int, len(in.bodies))
	for _, res := range r.ph.ingest {
		if ingestOK(res) {
			counts[res.idx%len(in.bodies)]++
		}
	}
	// Queried keys are static during the timed phase except in the ingest
	// workload, whose probes run after it; either way the truth at query
	// time is all of the above.
	t := buildTruth(in.ks, sent{bodies: in.preload}, sent{bodies: in.bodies, count: counts})
	r.ackedObs = t.observations()
	if got := r.after.stores.Observations; got != float64(r.ackedObs) {
		r.gate("stats.observations = %.0f, acknowledged %d", got, r.ackedObs)
	}
	for _, res := range r.ph.query {
		r.checkAnswer(t, in.queries[res.idx%len(in.queries)], res)
	}
	for _, res := range r.probe {
		r.checkAnswer(t, in.probes[res.idx], res)
	}
	if r.acc.failed > 0 {
		r.gate("%d of %d subqueries failed; first: %s", r.acc.failed, r.acc.subqueries, r.acc.firstFailure)
	}
	for d := 0; d < mixedDataset; d++ {
		if e := r.acc.datasetRankErr(d); e > rankErrLimit {
			r.gate("quantile_rank_err %.4f > %.2f on %s", e, rankErrLimit, datasetNames[d])
		}
	}
	if r.acc.wrongAbove > 0 {
		r.gate("%d of %d threshold answers contradict the exact data by more than %.2f in rank", r.acc.wrongAbove, r.acc.thresholds, thresholdMargin)
	}
	if n := r.after.stores.WAL.SyncFailures + r.after.stores.WAL.DroppedObs; n > 0 {
		r.gate("wal.failed_obs = %d", n)
	}
	if c := r.after.coord.Coordinator; c != nil {
		if c.PartialResults > 0 {
			r.gate("cluster.partial_results = %d", c.PartialResults)
		}
		if oc := checkAgainstOracle(in, r.ph.query); oc.mismatches > 0 {
			r.gate("%d of %d cluster answers differ from a single store's: %s", oc.mismatches, oc.checked, oc.first)
		}
	}
}

// rankErrLimit gates the mean rank error per dataset; the paper claims
// under 0.01 at k = 10.
const rankErrLimit = 0.02

func (r *liveRun) gate(format string, args ...any) {
	r.gateFailures = append(r.gateFailures, fmt.Sprintf(format, args...))
}

func (r *liveRun) checkAnswer(t *truth, q queryRequest, res result) {
	if res.err != nil {
		res.status = -1
	}
	if len(q.subs) == 0 { // a /v1/windows scan: one unit, shape only
		r.acc.subqueries++
		var scan struct {
			Windows int `json:"windows"`
		}
		if res.status != http.StatusOK || json.Unmarshal(res.body, &scan) != nil || scan.Windows < 1 {
			r.acc.fail(1, "%s answered %d: %.200s", q.path, res.status, res.body)
		}
		r.acc.scans++
		return
	}
	r.acc.checkQuery(t, q, res.status, res.body)
}

// recover SIGKILLs the daemon, restarts it on the same snapshot and log,
// and counts the time until it is healthy with every acknowledged
// observation present.
func (r *liveRun) recover(p *procs, dep *deployment) error {
	old := dep.front
	killed := time.Now()
	old.kill()
	d, err := p.restart(old)
	if err != nil {
		return err
	}
	if err := d.waitHealthy(30 * time.Second); err != nil {
		return err
	}
	st, err := d.stats()
	if err != nil {
		return err
	}
	r.recoveryS = time.Since(killed).Seconds()
	if st.Observations != float64(r.ackedObs) {
		r.gate("after SIGKILL and restart stats.observations = %.0f, acknowledged %d", st.Observations, r.ackedObs)
	}
	return nil
}

func clearDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := os.RemoveAll(dir + "/" + e.Name()); err != nil {
			return err
		}
	}
	return nil
}

// lateMS returns, sorted and in ms, how long the generator held each
// open-loop request back beyond its due time and its connection coming free.
func lateMS(rs ...[]result) []float64 {
	var out []float64
	for _, s := range rs {
		for _, r := range s {
			out = append(out, float64(r.late())/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

// Validity limits: beyond them the generator, not the server, shaped the
// numbers, and the row is unresolved rather than a result.
const (
	lateP99LimitMS = 5.0
	cpuShareLimit  = 0.4
)

func (r *liveRun) lateP99MS() float64 { return percentile(lateMS(r.ph.ingest, r.ph.query), 99) }

// cpuShare is the generator's share of all CPU spent during the timed phase.
func (r *liveRun) cpuShare() float64 {
	self := r.after.selfCPU - r.before.selfCPU
	return self / (self + r.after.serverCPU - r.before.serverCPU)
}

// validity lists what makes this run's numbers the generator's own.
func (r *liveRun) validity() []string {
	var notes []string
	if l := r.lateP99MS(); l > lateP99LimitMS {
		notes = append(notes, fmt.Sprintf("unresolved: generator sent late (momentsbench.late_p99_ms = %.2f > %.0f)", l, lateP99LimitMS))
	}
	if c := r.cpuShare(); c > cpuShareLimit {
		notes = append(notes, fmt.Sprintf("unresolved: generator too busy (momentsbench.cpu_share = %.2f > %.1f)", c, cpuShareLimit))
	}
	return notes
}

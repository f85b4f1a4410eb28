package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// span is one timed call into a layer's public function. Spans of one
// request share req; parent is the span that caused this one (0 = none).
//
// The program has no spans of its own yet, so a child span is not a slice
// of its parent's interval: it is the same call replayed on the identical
// input right after the parent, and "caused by" means "the parent's call
// does this work inside".
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Req     int    `json:"req"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the trace began
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends. Switched off it only
// runs the measured function, which is how the tracing overhead is
// measured.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// measure runs fn as a span and returns the span's id.
func (t *tracer) measure(parent, req int, name string, fn func()) int {
	if !t.on {
		fn()
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, StartNS: int64(time.Since(t.t0))})
	fn()
	t.spans[id-1].EndNS = int64(time.Since(t.t0))
	return id
}

// layerTime is a span name's total time and total self time over a trace.
type layerTime struct {
	n           int
	total, self time.Duration
}

// selfTimes sums, per span name, the spans' durations and their self
// times: a span's duration minus its children's, never below zero.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	out := map[string]layerTime{}
	for _, s := range spans {
		lt := out[s.Name]
		lt.n++
		lt.total += s.dur()
		lt.self += max(s.dur()-children[s.ID], 0)
		out[s.Name] = lt
	}
	return out
}

// traceRun is the outcome of one in-process replay.
type traceRun struct {
	workload     string
	spans        []span
	vals         map[string]float64 // per-layer metric values measured here
	gateFailures []string
}

func (t *traceRun) gate(format string, args ...any) {
	t.gateFailures = append(t.gateFailures, fmt.Sprintf(format, args...))
}

// gateAnswers applies the answer gates of a live run to replayed answers.
func (t *traceRun) gateAnswers(acc *accuracy) {
	if acc.failed > 0 {
		t.gate("%d of %d replayed subqueries failed; first: %s", acc.failed, acc.subqueries, acc.firstFailure)
	}
	for d := 0; d < mixedDataset; d++ {
		if e := acc.datasetRankErr(d); e > rankErrLimit {
			t.gate("replayed quantile_rank_err %.4f > %.2f on %s", e, rankErrLimit, datasetNames[d])
		}
	}
	if acc.wrongAbove > 0 {
		t.gate("%d of %d replayed threshold answers contradict the exact data", acc.wrongAbove, acc.thresholds)
	}
}

func (t *traceRun) writeJSON(path string) error {
	data, err := json.Marshal(map[string]any{"workload": t.workload, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Each table walks one request path; a row is a layer's self time per
// request of that path.
var (
	readPath = []string{"server.query", "query.execute", "shard.resolve", "cascade.threshold", "maxent.solve", "maxent.quantile"}
	readNote = map[string]string{
		"server.query":  "JSON decode + encode",
		"query.execute": "plan, dedup, group-by, result assembly",
		"shard.resolve": "point reads and prefix merges",
	}
	clusterPath = []string{"cluster.execute", "query.execute"}
	clusterNote = map[string]string{
		"cluster.execute": "fan-out, partials decode, merge on the coordinator",
		"query.execute":   "the same request on one store holding the union",
	}
	writePath = []string{"server.ingest", "shard.batch_add", "wal.append", "shard.commit"}
	writeNote = map[string]string{
		"server.ingest": "NDJSON decode + ack",
		"shard.commit":  "stripe commit + publish",
	}
)

func (t *traceRun) printTables(w io.Writer) {
	st := selfTimes(t.spans)
	table := func(title string, path []string, notes map[string]string) {
		root := st[path[0]]
		if root.n == 0 {
			return
		}
		fmt.Fprintf(w, "\n%s  %s, %d requests replayed in-process, self time per request\n", t.workload, title, root.n)
		for _, name := range path {
			lt, ok := st[name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-20s %10.1f us  %5.1f%%  %s\n", name,
				float64(lt.self)/float64(root.n)/1e3, 100*float64(lt.self)/float64(root.total), notes[name])
		}
	}
	table("read side", readPath, readNote)
	table("coordinator read side", clusterPath, clusterNote)
	table("write side", writePath, writeNote)
}

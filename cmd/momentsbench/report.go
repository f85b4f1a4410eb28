package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is BENCHMARK.json, the contract the driver checks.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// def finds a metric's definition by name.
func (s *benchSpec) def(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{s.EndToEnd, s.PerLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

func sortedNames(m map[string]value) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printRecord prints one run: every metric by name with its unit, then the
// failure count and any notes.
func printRecord(w io.Writer, rec *runRecord) {
	kind := "end-to-end"
	if rec.Trace == 1 {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "\n%s  seed %d  %d s  %s metrics\n", rec.Workload, rec.Seed, rec.Seconds, kind)
	for _, n := range sortedNames(rec.Metrics) {
		v := rec.Metrics[n]
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, v.Value, v.Unit)
	}
	fmt.Fprintf(w, "  %-36s %14.6g (%d of %d)\n", "failed_share", float64(rec.Failed)/float64(rec.Attempted), rec.Failed, rec.Attempted)
	for _, note := range rec.Notes {
		fmt.Fprintf(w, "  ! %s\n", note)
	}
}

type rowKey struct{ workload, metric string }

// group collects each (workload, metric) row's values over the runs.
func group(recs []runRecord) (map[rowKey][]float64, []rowKey) {
	rows := map[rowKey][]float64{}
	var order []rowKey
	for _, rec := range recs {
		for _, n := range sortedNames(rec.Metrics) {
			k := rowKey{rec.Workload, n}
			if _, seen := rows[k]; !seen {
				order = append(order, k)
			}
			rows[k] = append(rows[k], rec.Metrics[n].Value)
		}
	}
	return rows, order
}

// printSummary prints median and quartiles per (workload, metric) over
// repeated runs, with the spread as a share of the median.
func printSummary(w io.Writer, recs []runRecord) {
	rows, order := group(recs)
	fmt.Fprintf(w, "\n%-16s %-36s %3s %14s %14s %14s %8s\n", "workload", "metric", "n", "q1", "median", "q3", "spread")
	for _, k := range order {
		xs := rows[k]
		q1, q3 := quartiles(xs)
		fmt.Fprintf(w, "%-16s %-36s %3d %14.6g %14.6g %14.6g %8.4f\n", k.workload, k.metric, len(xs), q1, median(xs), q3, spread(xs))
	}
}

// verdict compares a metric's medians under its bound: worse means b's
// median is worse than a's by more than the bound; unresolved means either
// side's own spread is wider than the bound, so the runs cannot tell.
func verdict(def metricDef, a, b []float64) (delta float64, v string) {
	ma, mb := median(a), median(b)
	delta = (mb - ma) / math.Abs(ma)
	worse := delta
	if def.Better == "higher" {
		worse = -delta
	}
	switch {
	case def.Bound == 0:
		return delta, "-" // per-layer metrics carry no bound
	case len(a) >= 2 && len(b) >= 2 && math.Max(spread(a), spread(b)) > def.Bound:
		return delta, "unresolved"
	case worse > def.Bound:
		return delta, "worse"
	}
	return delta, "ok"
}

// compareFiles prints one row per (workload, metric) present in both files.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) error {
	load := func(path string) ([]runRecord, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var recs []runRecord
		return recs, json.Unmarshal(data, &recs)
	}
	a, err := load(pathA)
	if err != nil {
		return err
	}
	b, err := load(pathB)
	if err != nil {
		return err
	}
	rowsA, order := group(a)
	rowsB, _ := group(b)
	fmt.Fprintf(w, "%-16s %-36s %14s %14s %9s %7s  %s\n", "workload", "metric", "median A", "median B", "delta", "bound", "verdict")
	bad := 0
	for _, k := range order {
		xb, ok := rowsB[k]
		if !ok {
			continue
		}
		def, _ := spec.def(k.metric)
		delta, v := verdict(def, rowsA[k], xb)
		if v == "worse" {
			bad++
		}
		fmt.Fprintf(w, "%-16s %-36s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n", k.workload, k.metric, median(rowsA[k]), median(xb), 100*delta, 100*def.Bound, v)
	}
	if bad > 0 {
		return fmt.Errorf("%d rows worse than their bound", bad)
	}
	return nil
}

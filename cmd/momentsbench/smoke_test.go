package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmoke replays every workload in-process at 1/100 of a benchmark run's
// operation counts, with every gate the replay applies: answers checked
// against the generator's exact data, the store's observation count, the
// write-ahead log's replay count, snapshot/restore equality, and
// scatter-gather answers against a single store. No child processes.
func TestSmoke(t *testing.T) {
	start := time.Now()
	for _, w := range workloads {
		in := w.inputs(17, 1, 8)
		tr, err := replay(w, in, 100, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, g := range tr.gateFailures {
			t.Errorf("%s: %s", w.name, g)
		}
		if len(tr.spans) == 0 {
			t.Errorf("%s: the replay recorded no spans", w.name)
		}
		known := map[string]bool{}
		for _, d := range perLayer {
			known[d.Name] = true
		}
		for name, v := range tr.vals {
			if !known[name] {
				t.Errorf("%s: %s is not a per-layer metric of BENCHMARK.json", w.name, name)
			}
			if v != v || v < 0 && name != "momentsbench.trace_overhead_share" {
				t.Errorf("%s: %s = %v", w.name, name, v)
			}
		}
		// The predicted-absent pairings.
		for name := range tr.vals {
			layer, _, _ := strings.Cut(name, ".")
			if (layer == "wal" && !w.recovers) || (layer == "cluster" && !w.clustered) {
				t.Errorf("%s reports %s", w.name, name)
			}
		}
		path := filepath.Join(t.TempDir(), "trace.json")
		if err := tr.writeJSON(path); err != nil {
			t.Error(err)
		} else if info, err := os.Stat(path); err != nil || info.Size() == 0 {
			t.Errorf("%s: trace.json not written", w.name)
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("smoke took %v, want under 5 s", d)
	}
}

// BENCHMARK.json must name exactly the workloads and metrics the program
// reports; the driver refuses a run whose metric set differs.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Skip(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, spec.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, a, b []metricDef) {
		if len(a) != len(b) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(a), len(b))
			return
		}
		for i := range a {
			if a[i].Name != b[i].Name || a[i].Unit != b[i].Unit || a[i].Better != b[i].Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, a[i], b[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, d := range spec.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

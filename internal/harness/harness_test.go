package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sketch"
)

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the paper's evaluation must be registered.
	want := []string{
		"table1", "table2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"fig16", "fig17", "fig18", "fig19", "fig20", "fig22", "fig23", "fig24",
	}
	have := map[string]bool{}
	for _, e := range All() {
		have[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if _, err := ByID("fig7"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown ID must error")
	}
}

func TestEpsAvgMetric(t *testing.T) {
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i)
	}
	// A perfect quantile function has ~0 error.
	perfect := func(phi float64) float64 { return phi * 1000 }
	if e := EpsAvg(sorted, perfect, false); e > 0.002 {
		t.Errorf("perfect estimator eps = %v", e)
	}
	// A constant estimator at the median is wrong by avg |phi-0.5| ≈ 0.25.
	constant := func(phi float64) float64 { return 500 }
	e := EpsAvg(sorted, constant, false)
	if e < 0.2 || e > 0.3 {
		t.Errorf("constant estimator eps = %v, want ~0.25", e)
	}
	// NaN estimates are charged maximal error.
	bad := func(phi float64) float64 { return nan() }
	if e := EpsAvg(sorted, bad, false); e != 1 {
		t.Errorf("NaN estimator eps = %v, want 1", e)
	}
}

func nan() float64 { var z float64; return z / z }

func TestPhis21(t *testing.T) {
	p := Phis21()
	if len(p) != 21 || p[0] != 0.01 {
		t.Errorf("Phis21 = %v", p)
	}
	if diff := p[20] - 0.99; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("last phi = %v", p[20])
	}
}

func TestBuildCellsAndMergeAll(t *testing.T) {
	data := make([]float64, 1050)
	for i := range data {
		data[i] = float64(i)
	}
	factory := func() sketch.Summary { return sketch.NewMSketch(5) }
	cells := BuildCells(data, 100, factory)
	if len(cells) != 11 {
		t.Fatalf("cells = %d, want 11 (last partial)", len(cells))
	}
	if cells[10].Count() != 50 {
		t.Errorf("partial cell count = %v", cells[10].Count())
	}
	root, elapsed, err := MergeAll(cells, factory)
	if err != nil {
		t.Fatal(err)
	}
	if root.Count() != 1050 {
		t.Errorf("merged count = %v", root.Count())
	}
	if elapsed <= 0 {
		t.Error("elapsed must be positive")
	}
}

func TestConfigScaling(t *testing.T) {
	c := Config{Scale: 0.5}
	if got := c.N(100_000); got != 50_000 {
		t.Errorf("N = %d", got)
	}
	q := Config{Quick: true}
	if got := q.N(1_000_000); got != 50_000 {
		t.Errorf("quick N = %d", got)
	}
	if got := q.N(100); got != 2000 {
		t.Errorf("quick floor = %d", got)
	}
}

func TestTableRendering(t *testing.T) {
	var buf bytes.Buffer
	tab := NewTable(&buf, "name", "value")
	tab.Row("alpha", 1.5)
	tab.Row("b", 1234567.0)
	tab.Flush()
	out := buf.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "1.5") {
		t.Errorf("table output:\n%s", out)
	}
	if !strings.Contains(out, "----") {
		t.Error("missing separator")
	}
}

func TestTrueQuantile(t *testing.T) {
	data := []float64{5, 1, 3, 2, 4}
	if q := TrueQuantile(data, 0.5); q != 3 {
		t.Errorf("median = %v", q)
	}
	if q := TrueQuantile(data, 1.0); q != 5 {
		t.Errorf("max quantile = %v", q)
	}
}

// Every registered experiment must run end-to-end in quick mode. This is
// the harness's own integration test and doubles as a smoke test of every
// engine in the repository.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep skipped in -short mode")
	}
	cfg := Config{Quick: true, Scale: 1, Seed: 23}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(cfg, &buf); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
		})
	}
}

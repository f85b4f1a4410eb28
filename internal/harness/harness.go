// Package harness runs the paper's evaluation: every table and figure in
// §6, §7 and the appendices maps to a registered Experiment that
// regenerates the corresponding rows or series (`go run ./cmd/experiments
// list` prints the full index). Experiments print plain-text tables;
// cmd/experiments is the CLI front end and bench_test.go exposes the same
// workloads as testing.B benchmarks.
package harness

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/sketch"
)

// Config scales experiment workloads.
type Config struct {
	// Scale multiplies dataset sizes (1.0 = the scaled-down defaults
	// each experiment is written with; raise toward paper-scale fidelity).
	Scale float64
	// Quick shrinks workloads to smoke-test size (used by unit tests).
	Quick bool
	// Seed fixes all generator streams.
	Seed uint64
}

// DefaultConfig returns the standard configuration.
func DefaultConfig() Config { return Config{Scale: 1.0, Seed: 17} }

// N scales a default sample size by the configuration.
func (c Config) N(def int) int {
	if c.Quick {
		def /= 20
		if def < 2000 {
			def = 2000
		}
		return def
	}
	n := int(float64(def) * c.Scale)
	if n < 1000 {
		n = 1000
	}
	return n
}

// Experiment regenerates one table or figure.
type Experiment struct {
	// ID is the lowercase identifier, e.g. "fig7".
	ID string
	// Title cites what the experiment reproduces.
	Title string
	// Run executes the experiment, writing its table to w.
	Run func(cfg Config, w io.Writer) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every registered experiment in registration (paper) order.
func All() []Experiment { return registry }

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q (use `experiments list`)", id)
}

// Phis21 returns the 21 equally spaced φ values of §6.1.
func Phis21() []float64 {
	out := make([]float64, 21)
	for i := range out {
		out[i] = 0.01 + 0.049*float64(i)
	}
	return out
}

// EpsAvg is the paper's accuracy metric: mean quantile (rank) error over
// the 21 φ values, measured against the sorted raw data. When integer is
// true, estimates are rounded first (§6.2.3, retail).
func EpsAvg(sorted []float64, quantile func(float64) float64, integer bool) float64 {
	n := float64(len(sorted))
	if n == 0 {
		return math.NaN()
	}
	total := 0.0
	for _, phi := range Phis21() {
		q := quantile(phi)
		if integer {
			q = math.Round(q)
		}
		if math.IsNaN(q) {
			total += 1 // maximally wrong
			continue
		}
		rank := rankOf(sorted, q)
		total += math.Abs(rank/n - phi)
	}
	return total / 21
}

// rankOf returns a mid-rank for q in sorted data: the average of the count
// strictly below and the count at-or-below, which scores estimates on
// discrete data fairly.
func rankOf(sorted []float64, q float64) float64 {
	lo := sort.SearchFloat64s(sorted, q)
	hi := sort.Search(len(sorted), func(i int) bool { return sorted[i] > q })
	return (float64(lo) + float64(hi)) / 2
}

// BuildCells pre-aggregates data into fixed-size cells of summaries — the
// data-cube simulation of §6.2.1.
func BuildCells(data []float64, cellSize int, factory func() sketch.Summary) []sketch.Summary {
	nCells := (len(data) + cellSize - 1) / cellSize
	cells := make([]sketch.Summary, 0, nCells)
	for start := 0; start < len(data); start += cellSize {
		end := start + cellSize
		if end > len(data) {
			end = len(data)
		}
		s := factory()
		for _, v := range data[start:end] {
			s.Add(v)
		}
		cells = append(cells, s)
	}
	return cells
}

// MergeAll merges cells into a fresh root and reports elapsed wall time.
func MergeAll(cells []sketch.Summary, factory func() sketch.Summary) (sketch.Summary, time.Duration, error) {
	root := factory()
	start := time.Now()
	for _, c := range cells {
		if err := root.Merge(c); err != nil {
			return nil, 0, err
		}
	}
	return root, time.Since(start), nil
}

// SortedCopy returns a sorted copy of data.
func SortedCopy(data []float64) []float64 {
	s := append([]float64{}, data...)
	sort.Float64s(s)
	return s
}

// Table is a minimal fixed-width text table writer.
type Table struct {
	w      io.Writer
	header []string
	widths []int
	rows   [][]string
}

// NewTable starts a table with the given column headers.
func NewTable(w io.Writer, header ...string) *Table {
	t := &Table{w: w, header: header, widths: make([]int, len(header))}
	for i, h := range header {
		t.widths[i] = len(h)
	}
	return t
}

// Row appends a row; values are formatted with %v, floats compactly.
func (t *Table) Row(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = formatFloat(x)
		case time.Duration:
			row[i] = x.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
		if i < len(t.widths) && len(row[i]) > t.widths[i] {
			t.widths[i] = len(row[i])
		}
	}
	t.rows = append(t.rows, row)
}

// Flush renders the table.
func (t *Table) Flush() {
	for i, h := range t.header {
		fmt.Fprintf(t.w, "%-*s  ", t.widths[i], h)
	}
	fmt.Fprintln(t.w)
	for i := range t.header {
		for j := 0; j < t.widths[i]; j++ {
			fmt.Fprint(t.w, "-")
		}
		fmt.Fprint(t.w, "  ")
	}
	fmt.Fprintln(t.w)
	for _, row := range t.rows {
		for i, cell := range row {
			w := 0
			if i < len(t.widths) {
				w = t.widths[i]
			}
			fmt.Fprintf(t.w, "%-*s  ", w, cell)
		}
		fmt.Fprintln(t.w)
	}
}

func formatFloat(x float64) string {
	switch {
	case math.IsNaN(x):
		return "NaN"
	case x == 0:
		return "0"
	case math.Abs(x) >= 1e6 || math.Abs(x) < 1e-3:
		return fmt.Sprintf("%.3g", x)
	case math.Abs(x) >= 100:
		return fmt.Sprintf("%.1f", x)
	default:
		return fmt.Sprintf("%.4g", x)
	}
}

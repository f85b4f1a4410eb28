package harness

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/maxent"
)

func init() {
	register(Experiment{
		ID:    "ablation",
		Title: "Ablation: primary integration domain, condition cap, and grid size",
		Run:   runAblation,
	})
}

// runAblation exercises the three solver design choices this implementation
// adds on top of the paper's description:
//
//  1. integrating in the log domain for long-tailed data (value-domain
//     integration of log-basis functions needs intractably fine grids);
//  2. the condition-number cap κmax trading accuracy for robustness;
//  3. the Clenshaw–Curtis grid size (with adaptive refinement).
func runAblation(cfg Config, w io.Writer) error {
	// --- 1. Primary domain ---------------------------------------------
	fmt.Fprintln(w, "(1) primary integration domain on long-tailed (milan) vs compact (power) data")
	t1 := NewTable(w, "dataset", "domain", "eps_avg", "solve(ms)", "converged")
	for _, name := range []string{"milan", "power"} {
		spec, err := dataset.ByName(name)
		if err != nil {
			return err
		}
		data := spec.Generate(cfg.N(min(spec.DefaultSize, 300_000)), cfg.Seed)
		sorted := SortedCopy(data)
		sk := core.New(10)
		sk.AddMany(data)
		for _, primary := range []maxent.Domain{maxent.DomainStd, maxent.DomainLog} {
			b, err := maxent.SelectBasis(sk, maxent.Options{})
			if err != nil {
				return err
			}
			b.Primary = primary
			start := time.Now()
			sol, err := maxent.Solve(b, maxent.Options{})
			elapsed := time.Since(start)
			if err != nil {
				t1.Row(name, primary.String(), math.NaN(),
					float64(elapsed.Microseconds())/1000, false)
				continue
			}
			t1.Row(name, primary.String(), EpsAvg(sorted, sol.Quantile, spec.Integer),
				float64(elapsed.Microseconds())/1000, true)
		}
	}
	t1.Flush()

	// --- 2. Condition-number cap ----------------------------------------
	fmt.Fprintln(w, "\n(2) condition-number cap κmax (occupancy: offset data, ill-conditioned)")
	t2 := NewTable(w, "κmax", "k1", "k2", "eps_avg", "solve(ms)")
	{
		spec, err := dataset.ByName("occupancy")
		if err != nil {
			return err
		}
		data := spec.Generate(cfg.N(spec.DefaultSize), cfg.Seed)
		sorted := SortedCopy(data)
		sk := core.New(10)
		sk.AddMany(data)
		for _, kappa := range []float64{1e1, 1e2, 1e4, 1e6, 1e8} {
			opts := maxent.Options{MaxCond: kappa}
			b, err := maxent.SelectBasis(sk, opts)
			if err != nil {
				return err
			}
			start := time.Now()
			sol, err := maxent.Solve(b, opts)
			elapsed := time.Since(start)
			e := math.NaN()
			if err == nil {
				e = EpsAvg(sorted, sol.Quantile, false)
			}
			t2.Row(fmt.Sprintf("%.0e", kappa), b.K1, b.K2, e,
				float64(elapsed.Microseconds())/1000)
		}
	}
	t2.Flush()

	// --- 3. Grid size ----------------------------------------------------
	fmt.Fprintln(w, "\n(3) Clenshaw–Curtis grid size (milan, adaptive refinement capped at the start size)")
	t3 := NewTable(w, "grid N", "grid used", "eps_avg", "solve(ms)")
	{
		spec, _ := dataset.ByName("milan")
		data := spec.Generate(cfg.N(min(spec.DefaultSize, 300_000)), cfg.Seed)
		sorted := SortedCopy(data)
		sk := core.New(10)
		sk.AddMany(data)
		for _, n := range []int{16, 32, 64, 128, 256, 512} {
			opts := maxent.Options{GridSize: n, MaxGrid: n} // disable refinement
			start := time.Now()
			sol, err := maxent.SolveSketch(sk, opts)
			elapsed := time.Since(start)
			if err != nil {
				t3.Row(n, "-", math.NaN(), float64(elapsed.Microseconds())/1000)
				continue
			}
			t3.Row(n, sol.GridUsed, EpsAvg(sorted, sol.Quantile, false),
				float64(elapsed.Microseconds())/1000)
		}
	}
	t3.Flush()
	fmt.Fprintln(w, "\nexpected: log-primary wins decisively on milan and is ~neutral on power;")
	fmt.Fprintln(w, "tiny κmax drops useful moments (worse error), huge κmax risks unstable solves;")
	fmt.Fprintln(w, "error plateaus once the grid resolves the density (~64-128 points)")
	return nil
}

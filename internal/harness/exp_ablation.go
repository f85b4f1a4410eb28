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
		Title: "Ablation: primary integration domain and basis size",
		Run:   runAblation,
	})
}

// runAblation exercises two solver design choices:
//
//  1. integrating in the log domain for long-tailed data (value-domain
//     integration of log-basis functions needs intractably fine grids), which
//     this implementation adds on top of the paper's description;
//  2. the basis the condition-number cap κmax selects (§4.3.2), against
//     the same basis trimmed to fewer standard moments.
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

	// --- 2. Basis size ------------------------------------------------------
	fmt.Fprintln(w, "\n(2) standard-moment count k1 up to the κmax-selected basis (occupancy: offset data)")
	t2 := NewTable(w, "k1", "k2", "eps_avg", "solve(ms)")
	{
		spec, err := dataset.ByName("occupancy")
		if err != nil {
			return err
		}
		data := spec.Generate(cfg.N(spec.DefaultSize), cfg.Seed)
		sorted := SortedCopy(data)
		sk := core.New(10)
		sk.AddMany(data)
		sel, err := maxent.SelectBasis(sk, maxent.Options{})
		if err != nil {
			return err
		}
		for k1 := 1; k1 <= sel.K1; k1++ {
			b := sel
			b.K1 = k1
			start := time.Now()
			sol, err := maxent.Solve(b, maxent.Options{})
			elapsed := time.Since(start)
			e := math.NaN()
			if err == nil {
				e = EpsAvg(sorted, sol.Quantile, false)
			}
			t2.Row(b.K1, b.K2, e, float64(elapsed.Microseconds())/1000)
		}
	}
	t2.Flush()
	fmt.Fprintln(w, "\nexpected: log-primary wins decisively on milan and is ~neutral on power;")
	fmt.Fprintln(w, "each moment the selected basis keeps improves eps_avg")
	return nil
}

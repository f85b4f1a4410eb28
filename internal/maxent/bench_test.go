package maxent

import (
	"math"
	"math/rand/v2"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// benchSketch builds the lognormal sketch the solver benchmarks run on:
// long-tailed data that selects a mixed std+log basis, the representative
// serving workload.
func benchSketch() *core.Sketch {
	rng := rand.New(rand.NewPCG(7, 9))
	sk := core.New(core.DefaultK)
	for i := 0; i < 20000; i++ {
		sk.Add(math.Exp(rng.NormFloat64()))
	}
	return sk
}

// liveSketches builds one small and one large rollup of each dataset the
// momentsbench live workloads serve (Power, Hepmass, Exponential) — a
// std-only basis, a log-primary mixed basis and a short mixed basis.
func liveSketches() []namedSketch {
	var out []namedSketch
	for i, spec := range []dataset.Spec{dataset.Power(), dataset.Hepmass(), dataset.Exponential()} {
		for _, n := range []int{100, 5000} {
			sk := core.New(core.DefaultK)
			sk.AddMany(spec.Generate(n, uint64(31*i+n)))
			out = append(out, namedSketch{spec.Name + "/" + strconv.Itoa(n), sk})
		}
	}
	return out
}

// BenchmarkSelectBasis measures basis selection alone — candidate grid,
// greedy Gram growth and the condition-number eigen-solves — over the live
// datasets.
func BenchmarkSelectBasis(b *testing.B) {
	for _, c := range liveSketches() {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SelectBasis(c.sk, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveSketchLive is BenchmarkSolveSketch over the live datasets.
func BenchmarkSolveSketchLive(b *testing.B) {
	for _, c := range liveSketches() {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SolveSketch(c.sk, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveSketch measures one full cold quantile solve — basis
// selection plus the Newton solve — the hot path behind every uncached
// quantile estimate. The bytes/op figure is what workspace pooling keeps
// down.
func BenchmarkSolveSketch(b *testing.B) {
	sk := benchSketch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := SolveSketch(sk, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if q := sol.Quantile(0.5); math.IsNaN(q) {
			b.Fatal("NaN quantile")
		}
	}
}

// BenchmarkSolveWarm measures the same solve seeded with the θ of a prior
// solve of the same sketch — the best case for warm starting (adjacent
// sliding-window positions approach it). The iters/op metric is the
// warm-vs-cold comparison.
func BenchmarkSolveWarm(b *testing.B) {
	sk := benchSketch()
	cold, err := SolveSketch(sk, Options{})
	if err != nil {
		b.Fatal(err)
	}
	iters := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := SolveSketch(sk, Options{Theta0: cold.Theta})
		if err != nil {
			b.Fatal(err)
		}
		iters += sol.Iterations
	}
	b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
}

// BenchmarkSolveCold is BenchmarkSolveWarm without the seed, reporting the
// cold iteration count for the warm-vs-cold ratio.
func BenchmarkSolveCold(b *testing.B) {
	sk := benchSketch()
	iters := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := SolveSketch(sk, Options{})
		if err != nil {
			b.Fatal(err)
		}
		iters += sol.Iterations
	}
	b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
}

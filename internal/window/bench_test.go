package window

import (
	"testing"

	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/maxent"
)

// The windowed-scan benchmark pair: the same 32-pane sliding threshold
// scan over 192 panes, once with turnstile Sub/Merge slides (two O(k)
// vector operations per slide) and once re-merging all 32 panes at every
// position — the §7.2.2 / Fig. 14 comparison the serving path's
// /v1/windows endpoint rides on. The threshold sits above every value, so
// the cascade's Simple range stage settles each window in a comparison or
// two and the measurement isolates the slide cost — the component the two
// strategies actually differ in (threshold resolution is constant per
// position and identical in both). CI's bench-smoke job keeps both cases
// compiling and running.
const (
	benchPanes  = 192
	benchWidth  = 32
	benchThresh = 1e9
	benchPhi    = 0.99
)

func benchScanPanes(b *testing.B) []*core.Sketch {
	b.Helper()
	panes, _ := buildPanes(benchPanes, 400, []int{60, 61, 120}, 3000)
	return panes
}

func BenchmarkScanMomentsTurnstile32(b *testing.B) {
	panes := benchScanPanes(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ScanMoments(panes, benchWidth, benchThresh, benchPhi, cascade.Full(), maxent.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Queries != benchPanes-benchWidth+1 {
			b.Fatalf("scanned %d windows", res.Stats.Queries)
		}
	}
}

// The warm-start benchmark: the same 32-pane sliding scan with the
// threshold placed near the true 0.99-quantile (~460 for Exp(100) data), so
// the guaranteed-bound cascade stages cannot settle the windows and nearly
// every position pays a maximum-entropy solve, each seeded from the previous
// window's θ. newton-iters/op is what it reports; maxent's BenchmarkSolveWarm
// and BenchmarkSolveCold hold warm against cold on single solves.
const benchSolveThresh = 450

func BenchmarkScanMomentsWarm32(b *testing.B) {
	panes := benchScanPanes(b)
	iters, solves := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ScanMoments(panes, benchWidth, benchSolveThresh, benchPhi, cascade.Full(), maxent.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Solves == 0 {
			b.Fatal("benchmark threshold never reached the MaxEnt stage")
		}
		iters += res.Stats.NewtonIters
		solves += res.Stats.Solves
	}
	b.ReportMetric(float64(iters)/float64(b.N), "newton-iters/op")
	b.ReportMetric(float64(solves)/float64(b.N), "solves/op")
}

func BenchmarkScanMomentsRemerge32(b *testing.B) {
	panes := benchScanPanes(b)
	cfg := cascade.Full()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		queries := 0
		for w := 0; w+benchWidth <= len(panes); w++ {
			cur := core.New(panes[0].K)
			for _, p := range panes[w : w+benchWidth] {
				if err := cur.Merge(p); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := cascade.Threshold(cur, benchThresh, benchPhi, cfg, nil); err != nil {
				b.Fatal(err)
			}
			queries++
		}
		if queries != benchPanes-benchWidth+1 {
			b.Fatalf("scanned %d windows", queries)
		}
	}
}

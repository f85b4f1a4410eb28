package main

import (
	"math"
	"sort"
	"time"
)

// percentileLadder are the percentiles a latency series may be reported
// at, in per mille so the ten-beyond rule is integer arithmetic.
var percentileLadder = []int{500, 900, 990, 999}

// highestPercentile returns the highest percentile of the ladder that n
// samples support: at least ten samples must lie beyond it.
func highestPercentile(n int) float64 {
	best := percentileLadder[0]
	for _, pm := range percentileLadder {
		if n*(1000-pm) >= 10*1000 {
			best = pm
		}
	}
	return float64(best) / 10
}

// percentile is the nearest-rank p-th percentile of sorted values; NaN when
// there are none.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// latenciesMS returns the sorted latencies of the successful results in
// milliseconds.
func latenciesMS(rs []result, ok func(result) bool) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		if ok(r) {
			out = append(out, float64(r.latency())/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile by the exclusive method,
// as Python's statistics.quantiles(values, n=4) does — the rule the
// benchmark's acceptance check uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4 // 1-based
		j := int(math.Floor(pos))
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

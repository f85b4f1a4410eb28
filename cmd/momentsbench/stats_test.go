package main

import (
	"math"
	"testing"
)

// The percentile rule: report the highest percentile with at least ten
// samples beyond it.
func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {19, 50}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), the
// rule the acceptance check applies to ten runs.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q3 != 4.5 {
		t.Errorf("quartiles(3,1,4,1,5) = %g, %g; Python gives 1, 4.5", q1, q3)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "x_ms", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "x_per_s", Better: "higher", Bound: 0.1}
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m, m, m * 1.01} }
	if _, v := verdict(lower, steady(100), steady(105)); v != "ok" {
		t.Errorf("5%% slower under a 10%% bound: %s", v)
	}
	if _, v := verdict(lower, steady(100), steady(115)); v != "worse" {
		t.Errorf("15%% slower under a 10%% bound: %s", v)
	}
	if _, v := verdict(higher, steady(100), steady(115)); v != "ok" {
		t.Errorf("15%% more throughput: %s", v)
	}
	if _, v := verdict(higher, steady(100), steady(85)); v != "worse" {
		t.Errorf("15%% less throughput under a 10%% bound: %s", v)
	}
	wide := []float64{70, 90, 100, 110, 130}
	if _, v := verdict(lower, wide, steady(115)); v != "unresolved" {
		t.Errorf("a side whose own spread exceeds the bound: %s", v)
	}
}

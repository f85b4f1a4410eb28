package core

import (
	"math"
	"testing"
)

// TestMaxAbsBoundsEveryPowerSum: at every order, MaxCount values at
// ±MaxAbs(k) sum to finite power sums, while the next float up overflows
// the k-th power times MaxCount — the bound is the largest, not just a
// safe one — and a sketch fed the bound keeps a finite moment vector.
func TestMaxAbsBoundsEveryPowerSum(t *testing.T) {
	for k := 1; k <= MaxK; k++ {
		m := MaxAbs(k)
		if !(m > 1) || math.IsInf(m, 0) {
			t.Fatalf("k=%d: MaxAbs = %v", k, m)
		}
		for _, x := range []float64{m, -m} {
			s := New(k)
			s.AddWeighted(x, MaxCount)
			for i, p := range s.Pow {
				if math.IsInf(p, 0) || math.IsNaN(p) {
					t.Fatalf("k=%d x=%g: Pow[%d] = %v", k, x, i, p)
				}
			}
		}
		if up := math.Nextafter(m, math.Inf(1)); !overflows(up, k) {
			t.Fatalf("k=%d: MaxAbs %v is not the largest bound: %v stays finite", k, m, up)
		}
	}
	if m := MaxAbs(DefaultK); m > 7e30 || m < 1e29 {
		t.Fatalf("MaxAbs(%d) = %g, want the 1e29 scale that rejects 7e30", DefaultK, m)
	}
}

package core

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNewAndReset(t *testing.T) {
	s := New(5)
	if s.K != 5 || !s.IsEmpty() {
		t.Fatalf("New(5) = %+v", s)
	}
	s.Add(3)
	s.Reset()
	if !s.IsEmpty() || !math.IsInf(s.Min, 1) || !math.IsInf(s.Max, -1) {
		t.Errorf("Reset left state: %+v", s)
	}
}

func TestNewPanicsOnBadOrder(t *testing.T) {
	for _, k := range []int{0, -1, MaxK + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", k)
				}
			}()
			New(k)
		}()
	}
}

func TestAddBasicStats(t *testing.T) {
	s := New(4)
	for _, x := range []float64{1, 2, 3, 4, 5} {
		s.Add(x)
	}
	if s.Count != 5 || s.Min != 1 || s.Max != 5 {
		t.Errorf("stats = count %v min %v max %v", s.Count, s.Min, s.Max)
	}
	if got := s.Mean(); got != 3 {
		t.Errorf("Mean = %v, want 3", got)
	}
	if got := s.Moment(2); got != 11 { // (1+4+9+16+25)/5
		t.Errorf("Moment(2) = %v, want 11", got)
	}
	if got := s.Variance(); math.Abs(got-2) > 1e-12 {
		t.Errorf("Variance = %v, want 2", got)
	}
	if got := s.StdDev(); math.Abs(got-math.Sqrt2) > 1e-12 {
		t.Errorf("StdDev = %v", got)
	}
}

func TestLogMomentsTracking(t *testing.T) {
	s := New(3)
	s.Add(math.E)
	s.Add(math.E * math.E)
	if s.LogCount != 2 {
		t.Fatalf("LogCount = %v", s.LogCount)
	}
	if got := s.LogMoment(1); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("LogMoment(1) = %v, want 1.5", got)
	}
	if !s.HasLogMoments() {
		t.Error("HasLogMoments should be true for positive data")
	}
	s.Add(-1)
	if s.HasLogMoments() {
		t.Error("HasLogMoments must be false once negatives arrive")
	}
	if s.LogCount != 2 {
		t.Errorf("negative value should not touch LogCount: %v", s.LogCount)
	}
	s2 := New(3)
	s2.Add(0)
	if s2.LogCount != 0 {
		t.Error("zero must not contribute log moments")
	}
}

func TestMergeEquivalentToAccumulate(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 43))
	all := New(8)
	parts := []*Sketch{New(8), New(8), New(8)}
	for i := 0; i < 3000; i++ {
		x := rng.NormFloat64()*10 + 5
		all.Add(x)
		parts[i%3].Add(x)
	}
	merged := New(8)
	for _, p := range parts {
		if err := merged.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	if merged.Count != all.Count || merged.Min != all.Min || merged.Max != all.Max {
		t.Errorf("merge mismatch: %+v vs %+v", merged, all)
	}
	for i := 0; i < 8; i++ {
		if rel := math.Abs(merged.Pow[i]-all.Pow[i]) / (1 + math.Abs(all.Pow[i])); rel > 1e-10 {
			t.Errorf("Pow[%d]: merged %v vs direct %v", i, merged.Pow[i], all.Pow[i])
		}
	}
}

func TestMergeOrderMismatch(t *testing.T) {
	a, b := New(3), New(4)
	if err := a.Merge(b); err != ErrOrderMismatch {
		t.Errorf("Merge order mismatch err = %v", err)
	}
	if err := a.Sub(b); err != ErrOrderMismatch {
		t.Errorf("Sub order mismatch err = %v", err)
	}
}

func TestSubTurnstile(t *testing.T) {
	a, b := New(6), New(6)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 500; i++ {
		x := rng.Float64()*10 + 1
		a.Add(x)
		if i < 200 {
			b.Add(x)
		}
	}
	c := a.Clone()
	if err := c.Sub(b); err != nil {
		t.Fatal(err)
	}
	if c.Count != 300 {
		t.Errorf("Count after Sub = %v, want 300", c.Count)
	}
	// Power sums should match a sketch of only the last 300 values.
	if got, want := c.Pow[0], a.Pow[0]-b.Pow[0]; got != want {
		t.Errorf("Pow[0] = %v, want %v", got, want)
	}
	// Subtracting more than present errors out.
	d := New(6)
	d.Add(1)
	big := New(6)
	big.Add(1)
	big.Add(2)
	if err := d.Sub(big); err == nil {
		t.Error("expected negative-count error")
	}
}

func TestTightenRange(t *testing.T) {
	s := New(2)
	s.Add(0)
	s.Add(100)
	s.TightenRange(10, 50)
	if s.Min != 10 || s.Max != 50 {
		t.Errorf("TightenRange = [%v,%v]", s.Min, s.Max)
	}
	s.TightenRange(0, 100) // widening is a no-op
	if s.Min != 10 || s.Max != 50 {
		t.Errorf("TightenRange widened: [%v,%v]", s.Min, s.Max)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(3)
	a.Add(1)
	b := a.Clone()
	b.Add(100)
	if a.Count != 1 || a.Max == 100 {
		t.Error("Clone shares state with original")
	}
}

func TestSizeBytes(t *testing.T) {
	s := New(10)
	if got := s.SizeBytes(); got != 192 {
		t.Errorf("SizeBytes(k=10) = %d, want 192 (the <200B configuration)", got)
	}
}

func TestMomentPanicsOutOfRange(t *testing.T) {
	s := New(3)
	s.Add(1)
	for _, i := range []int{0, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Moment(%d) did not panic", i)
				}
			}()
			s.Moment(i)
		}()
	}
}

func TestEmptySketchStats(t *testing.T) {
	s := New(3)
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Variance()) {
		t.Error("empty sketch stats should be NaN")
	}
	if !math.IsNaN(s.Moment(1)) || !math.IsNaN(s.LogMoment(1)) {
		t.Error("empty sketch moments should be NaN")
	}
}

// Property: merge is commutative and associative on the power sums (up to
// floating point round-off).
func TestMergeCommutativeAssociativeQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		mk := func() *Sketch {
			s := New(6)
			n := 1 + rng.IntN(50)
			for i := 0; i < n; i++ {
				s.Add(rng.NormFloat64() * 3)
			}
			return s
		}
		a, b, c := mk(), mk(), mk()

		ab := a.Clone()
		ab.Merge(b)
		ba := b.Clone()
		ba.Merge(a)
		if ab.Count != ba.Count || ab.Min != ba.Min || ab.Max != ba.Max {
			return false
		}
		for i := range ab.Pow {
			if math.Abs(ab.Pow[i]-ba.Pow[i]) > 1e-9*(1+math.Abs(ab.Pow[i])) {
				return false
			}
		}

		abc1 := ab.Clone()
		abc1.Merge(c)
		bc := b.Clone()
		bc.Merge(c)
		abc2 := a.Clone()
		abc2.Merge(bc)
		for i := range abc1.Pow {
			if math.Abs(abc1.Pow[i]-abc2.Pow[i]) > 1e-9*(1+math.Abs(abc1.Pow[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: add-then-subtract returns to the original power sums.
func TestAddSubRoundTripQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 13))
		base, extra := New(5), New(5)
		for i := 0; i < 30; i++ {
			base.Add(rng.Float64() * 100)
		}
		for i := 0; i < 10; i++ {
			extra.Add(rng.Float64() * 100)
		}
		combined := base.Clone()
		combined.Merge(extra)
		if err := combined.Sub(extra); err != nil {
			return false
		}
		if combined.Count != base.Count {
			return false
		}
		for i := range base.Pow {
			if math.Abs(combined.Pow[i]-base.Pow[i]) > 1e-6*(1+math.Abs(base.Pow[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestOrderOneVariance: an order-1 sketch keeps no second power sum, so its
// variance is NaN rather than an out-of-range read; its mean still answers.
func TestOrderOneVariance(t *testing.T) {
	s := New(1)
	s.AddMany([]float64{1, 2, 3})
	if got := s.Mean(); got != 2 {
		t.Errorf("Mean = %v, want 2", got)
	}
	if !math.IsNaN(s.Variance()) || !math.IsNaN(s.StdDev()) {
		t.Errorf("Variance, StdDev = %v, %v; want NaN at k = 1", s.Variance(), s.StdDev())
	}
}

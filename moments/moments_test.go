package moments

import (
	"errors"
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestQuickstartFlow(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	s := New()
	data := make([]float64, 40000)
	for i := range data {
		data[i] = rng.ExpFloat64() * 10
		s.Add(data[i])
	}
	sort.Float64s(data)
	p99, err := s.Quantile(0.99)
	if err != nil {
		t.Fatal(err)
	}
	truth := data[int(0.99*float64(len(data)))]
	rank := float64(sort.SearchFloat64s(data, p99)) / float64(len(data))
	if math.Abs(rank-0.99) > 0.01 {
		t.Errorf("p99 = %v (true %v), rank error %v", p99, truth, math.Abs(rank-0.99))
	}
	if s.K() != DefaultK {
		t.Errorf("K = %d", s.K())
	}
}

func TestOptions(t *testing.T) {
	s := New(WithK(6))
	if s.K() != 6 {
		t.Errorf("WithK ignored: %d", s.K())
	}
	s.AddMany([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if _, err := s.Median(); err != nil {
		t.Fatalf("Median: %v", err)
	}
}

func TestBasicStats(t *testing.T) {
	s := New()
	s.AddMany([]float64{2, 4, 6})
	if s.Count() != 3 || s.Min() != 2 || s.Max() != 6 || s.Mean() != 4 {
		t.Errorf("stats: count=%v min=%v max=%v mean=%v", s.Count(), s.Min(), s.Max(), s.Mean())
	}
	if math.Abs(s.Variance()-8.0/3.0) > 1e-12 {
		t.Errorf("variance = %v", s.Variance())
	}
	if s.Moment(1) != 4 {
		t.Errorf("Moment(1) = %v", s.Moment(1))
	}
	if math.IsNaN(s.LogMoment(1)) {
		t.Error("LogMoment should exist for positive data")
	}
}

func TestQuantileValidation(t *testing.T) {
	s := New()
	s.AddMany([]float64{1, 2, 3})
	if _, err := s.Quantile(-0.1); err == nil {
		t.Error("negative phi must error")
	}
	if _, err := s.Quantile(1.1); err == nil {
		t.Error("phi > 1 must error")
	}
	if _, err := s.Quantile(math.NaN()); err == nil {
		t.Error("NaN phi must error")
	}
	empty := New()
	if _, err := empty.Quantile(0.5); err == nil {
		t.Error("empty sketch must error")
	}
}

func TestQuantilesValidatesBeforeSolve(t *testing.T) {
	// Three point masses over a huge dynamic range: the solver's documented
	// non-convergence case. A malformed phi must surface as a validation
	// error — i.e. before the solve is even attempted — not as
	// ErrNotConverged.
	s := New()
	for i := 0; i < 999; i++ {
		s.Add([]float64{0, 1, 1e6}[i%3])
	}
	if _, err := s.Quantiles([]float64{0.5}); !errors.Is(err, ErrNotConverged) {
		t.Skipf("fixture no longer solver-hostile (err=%v); test needs a new one", err)
	}
	for _, phis := range [][]float64{{1.5}, {0.5, -0.1}, {math.NaN()}} {
		_, err := s.Quantiles(phis)
		if err == nil {
			t.Fatalf("phis %v: no error", phis)
		}
		if errors.Is(err, ErrNotConverged) {
			t.Errorf("phis %v: got ErrNotConverged — solve ran before validation", phis)
		}
	}
}

func TestSolutionCacheInvalidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	s := New()
	for i := 0; i < 5000; i++ {
		s.Add(rng.Float64())
	}
	q1, err := s.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Massively shift the data; a stale cache would return the old median.
	for i := 0; i < 20000; i++ {
		s.Add(rng.Float64() + 100)
	}
	q2, err := s.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q2-q1) < 1 {
		t.Errorf("cache not invalidated: %v then %v", q1, q2)
	}
}

func TestMergeMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	direct := New()
	a, b := New(), New()
	for i := 0; i < 20000; i++ {
		x := rng.NormFloat64()*3 + 7
		direct.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	qd, _ := direct.Quantile(0.9)
	qm, _ := a.Quantile(0.9)
	if math.Abs(qd-qm) > 1e-6*(1+math.Abs(qd)) {
		t.Errorf("merged %v vs direct %v", qm, qd)
	}
	if err := a.Merge(New(WithK(4))); err != ErrOrderMismatch {
		t.Errorf("order mismatch err = %v", err)
	}
}

func TestSubAndTightenRange(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	window := New()
	pane1, pane2 := New(), New()
	for i := 0; i < 5000; i++ {
		pane1.Add(rng.Float64() * 10)
		pane2.Add(rng.Float64()*10 + 5)
	}
	window.Merge(pane1)
	window.Merge(pane2)
	if err := window.Sub(pane1); err != nil {
		t.Fatal(err)
	}
	window.TightenRange(pane2.Min(), pane2.Max())
	q, err := window.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := pane2.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q-q2) > 0.2 {
		t.Errorf("turnstile median %v vs direct %v", q, q2)
	}
}

func TestThresholdConsistentWithQuantile(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	s := New()
	for i := 0; i < 20000; i++ {
		s.Add(rng.ExpFloat64() * 50)
	}
	q, err := s.Quantile(0.95)
	if err != nil {
		t.Fatal(err)
	}
	for _, tval := range []float64{q / 2, q * 0.99, q * 1.01, q * 2} {
		got, err := s.Threshold(tval, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if got != (q > tval) {
			t.Errorf("Threshold(%v) = %v, quantile %v", tval, got, q)
		}
	}
}

// TestThresholdAndQuantileShareOneSolve: a threshold that reaches the
// maximum-entropy stage uses the density Quantile cached, and one that gets
// there first leaves its density for Quantile — either order, one solve.
func TestThresholdAndQuantileShareOneSolve(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	fresh := func() *Sketch {
		s := New()
		for i := 0; i < 20000; i++ {
			s.Add(rng.ExpFloat64() * 50)
		}
		return s
	}
	ref := fresh()
	q, err := ref.Quantile(0.95)
	if err != nil {
		t.Fatal(err)
	}
	tval := q * 1.01 // inside the RTT bounds: only max-ent can decide

	// Quantile first: Threshold must reuse the cached density as is.
	solved := ref.sol
	if above, err := ref.Threshold(tval, 0.95); err != nil || above {
		t.Fatalf("Threshold = %v, %v; want false", above, err)
	}
	if ref.sol != solved {
		t.Error("Threshold replaced the density Quantile had cached")
	}

	// Threshold first: it must leave its density behind for Quantile.
	s := ref.Clone()
	s.sol = nil
	if _, err := s.Threshold(q/1000, 0.95); err != nil || s.sol != nil {
		t.Fatalf("a threshold the bounds settle solved anyway (err %v)", err)
	}
	if _, err := s.Threshold(tval, 0.95); err != nil {
		t.Fatal(err)
	}
	solved = s.sol
	if solved == nil {
		t.Fatal("a max-ent-stage Threshold did not cache its density")
	}
	if got, err := s.Quantile(0.95); err != nil || got != q || s.sol != solved {
		t.Errorf("Quantile after Threshold = %v, %v (re-solved: %v); want %v from the cached density", got, err, s.sol != solved, q)
	}
}

func TestRankBoundsContainTruth(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	s := New()
	data := make([]float64, 10000)
	for i := range data {
		data[i] = rng.NormFloat64() * 4
		s.Add(data[i])
	}
	sort.Float64s(data)
	for _, q := range []float64{0.1, 0.5, 0.9} {
		tval := data[int(q*float64(len(data)))]
		lo, hi := s.RankBounds(tval)
		frac := float64(sort.SearchFloat64s(data, tval)) / float64(len(data))
		if frac < lo-1e-9 || frac > hi+1e-9 {
			t.Errorf("RankBounds(%v) = [%v,%v] misses %v", tval, lo, hi, frac)
		}
	}
}

func TestQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	s := New()
	for i := 0; i < 10000; i++ {
		s.Add(rng.Float64())
	}
	b, err := s.QuantileErrorBound(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if b < 0 || b > 0.5 {
		t.Errorf("error bound = %v", b)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	s := New()
	data := make([]float64, 10000)
	for i := range data {
		data[i] = math.Exp(rng.NormFloat64())
		s.Add(data[i])
	}
	sort.Float64s(data)
	enc, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) >= 200 {
		t.Errorf("k=10 sketch is %d bytes, want < 200", len(enc))
	}
	var back Sketch
	if err := back.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	q1, _ := s.Quantile(0.9)
	q2, err := back.Quantile(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if q1 != q2 {
		t.Errorf("round trip changed quantile: %v vs %v", q1, q2)
	}

	// Low-precision round trip stays accurate.
	low, err := s.MarshalLowPrecision(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(low) >= len(enc) {
		t.Errorf("low precision %dB not smaller than %dB", len(low), len(enc))
	}
	var lp Sketch
	if err := lp.UnmarshalBinary(low); err != nil {
		t.Fatal(err)
	}
	q3, err := lp.Quantile(0.9)
	if err != nil {
		t.Fatal(err)
	}
	// Judge the low-precision estimate by rank error — the paper's metric
	// (Fig. 17): 16 mantissa bits (28 bits/value) should stay within a few
	// percent even though high moments lose digits.
	rank := float64(sort.SearchFloat64s(data, q3)) / float64(len(data))
	if math.Abs(rank-0.9) > 0.03 {
		t.Errorf("low-precision rank error %v too large (q=%v, full-precision q=%v)",
			math.Abs(rank-0.9), q3, q1)
	}
	if err := lp.UnmarshalBinary([]byte{1, 2}); err == nil {
		t.Error("garbage must error")
	}
}

// TestUnmarshalBinaryRefusesNonFiniteLowPrecision: Add accepts any float,
// so a sketch holding MaxFloat64 twice has an infinite power sum. Its
// low-precision encoding decodes to nothing: UnmarshalBinary refuses it as
// corrupt, as it refuses the full-precision one, and leaves the receiver
// as it was.
func TestUnmarshalBinaryRefusesNonFiniteLowPrecision(t *testing.T) {
	s := New()
	s.Add(math.MaxFloat64)
	s.Add(math.MaxFloat64)
	low, err := s.MarshalLowPrecision(20)
	if err != nil {
		t.Fatal(err)
	}
	back := New()
	back.Add(1)
	if err := back.UnmarshalBinary(low); err == nil {
		t.Fatalf("decoded a non-finite vector: Moment(1) = %v", back.Moment(1))
	}
	if back.Count() != 1 {
		t.Errorf("failed decode changed the receiver: count %v", back.Count())
	}
}

func TestCloneAndReset(t *testing.T) {
	s := New()
	s.AddMany([]float64{1, 2, 3})
	c := s.Clone()
	c.Add(100)
	if s.Max() == 100 {
		t.Error("clone shares state")
	}
	s.Reset()
	if s.Count() != 0 {
		t.Error("reset failed")
	}
}

// Property: quantiles are monotone in phi.
func TestQuantileMonotoneQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 17))
		s := New(WithK(8))
		n := 1000 + rng.IntN(3000)
		for i := 0; i < n; i++ {
			s.Add(rng.NormFloat64() * 10)
		}
		qs, err := s.Quantiles([]float64{0.1, 0.3, 0.5, 0.7, 0.9})
		if err != nil {
			return true // convergence failure is allowed, monotonicity isn't
		}
		for i := 1; i < len(qs); i++ {
			if qs[i] < qs[i-1]-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

package sketch

import (
	"math"
	"math/rand/v2"
	"testing"
)

// Per-family structural invariants: these check the internals each
// algorithm's correctness argument rests on, beyond the black-box accuracy
// tests in summary_test.go.

func TestGKTupleInvariants(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	g := NewGK(1.0 / 50)
	n := 20000
	for i := 0; i < n; i++ {
		g.Add(rng.NormFloat64())
	}
	g.flush()
	// Tuples sorted by value; g sums to n; first/last are exact extremes.
	sumG := 0.0
	for i, tp := range g.tuples {
		sumG += tp.g
		if i > 0 && tp.v < g.tuples[i-1].v {
			t.Fatalf("tuples out of order at %d", i)
		}
		if tp.g <= 0 || tp.del < 0 {
			t.Fatalf("invalid tuple %+v", tp)
		}
	}
	if sumG != float64(n) {
		t.Errorf("Σg = %v, want %d", sumG, n)
	}
	if g.tuples[0].del != 0 || g.tuples[len(g.tuples)-1].del != 0 {
		t.Error("extreme tuples must have Δ=0")
	}
	// Compression keeps the summary near its 1/(2ε) budget rather than
	// linear in n.
	if len(g.tuples) > 10*50 {
		t.Errorf("GK retained %d tuples for eps=1/50", len(g.tuples))
	}
}

func TestTDigestCentroidInvariants(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	td := NewTDigest(100)
	n := 50000
	for i := 0; i < n; i++ {
		td.Add(rng.ExpFloat64())
	}
	td.compress()
	total := 0.0
	for i, c := range td.cs {
		total += c.count
		if i > 0 && c.mean < td.cs[i-1].mean {
			t.Fatalf("centroids out of order at %d", i)
		}
		if c.count <= 0 {
			t.Fatalf("non-positive centroid count %v", c.count)
		}
	}
	if total != float64(n) {
		t.Errorf("centroid mass %v, want %d", total, n)
	}
	// The k1 scale function bounds live centroids to ~compression.
	if len(td.cs) > 2*100 {
		t.Errorf("t-digest holds %d centroids at compression 100", len(td.cs))
	}
	// Tail centroids must be small (high resolution at the tails).
	if td.cs[0].count > float64(n)/50 {
		t.Errorf("first centroid too heavy: %v", td.cs[0].count)
	}
}

func TestMerge12WeightConservation(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	m := NewMerge12(16)
	n := 10000
	for i := 0; i < n; i++ {
		m.Add(rng.Float64())
	}
	// Total retained weight = base·1 + Σ levels·2^(i+1) must equal n.
	w := float64(len(m.base))
	for lvl, buf := range m.levels {
		w += float64(len(buf)) * math.Pow(2, float64(lvl+1))
	}
	if w != float64(n) {
		t.Errorf("retained weight %v, want %d", w, n)
	}
	// Each level buffer is sorted with exactly k items.
	for lvl, buf := range m.levels {
		if buf == nil {
			continue
		}
		if len(buf) != m.k {
			t.Errorf("level %d holds %d items, want %d", lvl, len(buf), m.k)
		}
		for i := 1; i < len(buf); i++ {
			if buf[i] < buf[i-1] {
				t.Fatalf("level %d unsorted", lvl)
			}
		}
	}
}

func TestMerge12WeightConservationAfterMerges(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	root := NewMerge12(16)
	total := 0
	for c := 0; c < 57; c++ { // odd count to exercise partial bases
		part := NewMerge12(16)
		n := 50 + rng.IntN(200)
		total += n
		for i := 0; i < n; i++ {
			part.Add(rng.NormFloat64())
		}
		if err := root.Merge(part); err != nil {
			t.Fatal(err)
		}
	}
	w := float64(len(root.base))
	for lvl, buf := range root.levels {
		w += float64(len(buf)) * math.Pow(2, float64(lvl+1))
	}
	if w != float64(total) {
		t.Errorf("retained weight %v, want %d", w, total)
	}
	if root.n != float64(total) {
		t.Errorf("n = %v, want %d", root.n, total)
	}
}

func TestRandomWWeightApproximation(t *testing.T) {
	// Random sampling conserves weight only in expectation; verify the
	// retained weight tracks n within sampling noise across heavy merging.
	rng := rand.New(rand.NewPCG(5, 5))
	root := NewRandomW(40)
	total := 0
	for c := 0; c < 300; c++ {
		part := NewRandomW(40)
		n := 100 + rng.IntN(150)
		total += n
		for i := 0; i < n; i++ {
			part.Add(rng.Float64())
		}
		if err := root.Merge(part); err != nil {
			t.Fatal(err)
		}
	}
	w := 0.0
	for _, b := range root.bufs {
		w += float64(len(b.items)) * math.Pow(2, float64(b.level))
	}
	w += float64(len(root.fill)) * math.Pow(2, float64(root.level))
	if ratio := w / float64(total); ratio < 0.7 || ratio > 1.3 {
		t.Errorf("retained weight %v vs n %d (ratio %v)", w, total, ratio)
	}
	if len(root.bufs) > root.maxBufs {
		t.Errorf("%d buffers exceed budget %d", len(root.bufs), root.maxBufs)
	}
}

func TestSHistBinBudgetAndMass(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	h := NewSHist(32)
	n := 30000
	for i := 0; i < n; i++ {
		h.Add(rng.NormFloat64() * 100)
	}
	if len(h.cs) > 32 {
		t.Errorf("%d bins exceed budget 32", len(h.cs))
	}
	mass := 0.0
	for i, b := range h.cs {
		mass += b.m
		if i > 0 && b.p <= h.cs[i-1].p {
			t.Fatalf("bins out of order at %d", i)
		}
	}
	if mass != float64(n) {
		t.Errorf("bin mass %v, want %d", mass, n)
	}
	// Cumulative is monotone from 0 at min to n at max.
	prev := -1.0
	for i := 0; i <= 50; i++ {
		x := h.min + (h.max-h.min)*float64(i)/50
		c := h.cumulative(x)
		if c < prev-1e-9 {
			t.Fatalf("cumulative not monotone at %v", x)
		}
		prev = c
	}
	if math.Abs(h.cumulative(h.max)-float64(n)) > 1e-6 {
		t.Errorf("cumulative(max) = %v", h.cumulative(h.max))
	}
}

func TestEWHistPowerOfTwoWidthAndCounts(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	h := NewEWHist(64)
	n := 20000
	for i := 0; i < n; i++ {
		h.Add(rng.ExpFloat64() * 1000)
	}
	// Width is a power of two times the initial granularity.
	ratio := h.width * 1024
	if math.Abs(ratio-math.Round(ratio)) > 1e-9 || ratio < 1 {
		t.Errorf("width %v is not a power-of-two multiple of 2^-10", h.width)
	}
	if math.Log2(ratio) != math.Trunc(math.Log2(ratio)) {
		t.Errorf("width %v not a power of two scale", h.width)
	}
	count := 0.0
	for _, c := range h.counts {
		count += c
	}
	if count != float64(n) {
		t.Errorf("bucket mass %v, want %d", count, n)
	}
	// Every datum within the covered range.
	if h.min < h.lo || h.max >= h.lo+float64(h.bins)*h.width {
		t.Errorf("range [%v,%v) does not cover data [%v,%v]",
			h.lo, h.lo+float64(h.bins)*h.width, h.min, h.max)
	}
}

func TestEWHistMergeDisjointRanges(t *testing.T) {
	a, b := NewEWHist(32), NewEWHist(32)
	for i := 0; i < 1000; i++ {
		a.Add(float64(i % 10))     // [0,10)
		b.Add(1e6 + float64(i%10)) // [1e6, 1e6+10)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 2000 {
		t.Errorf("merged count %v", a.Count())
	}
	// With 32 bins over a ~1e6 span the resolution is one bucket (~32k);
	// quantiles should land within one bucket of the right cluster.
	bucket := a.width
	q := a.Quantile(0.25)
	if q > 2*bucket {
		t.Errorf("q25 = %v, want within a bucket (%v) of the low cluster", q, bucket)
	}
	q = a.Quantile(0.75)
	if q < 1e6-2*bucket {
		t.Errorf("q75 = %v, want within a bucket of the high cluster", q)
	}
}

func TestSamplingReservoirUniformity(t *testing.T) {
	// Each element should appear in the reservoir with probability size/n;
	// check the mean retained value is unbiased for a linear stream. Every
	// reservoir starts from the same PRNG state, so each trial gets its own.
	const size, n, trials = 100, 10000, 60
	sum := 0.0
	for tr := 0; tr < trials; tr++ {
		r := NewSampling(size)
		r.rng = uint64(tr+1) * 0xBF58476D1CE4E5B9
		for i := 1; i <= n; i++ {
			r.Add(float64(i))
		}
		for _, v := range r.items {
			sum += v
		}
	}
	mean := sum / float64(size*trials)
	want := float64(n+1) / 2
	if math.Abs(mean-want) > 0.05*want {
		t.Errorf("reservoir mean %v, want ~%v (biased sampling?)", mean, want)
	}
}

func TestSamplingMergePreservesSizeAndProportion(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	a, b := NewSampling(200), NewSampling(200)
	for i := 0; i < 9000; i++ {
		a.Add(0 + rng.Float64()) // values in [0,1)
	}
	for i := 0; i < 1000; i++ {
		b.Add(10 + rng.Float64()) // values in [10,11)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if len(a.items) != 200 {
		t.Errorf("merged reservoir size %d", len(a.items))
	}
	high := 0
	for _, v := range a.items {
		if v >= 10 {
			high++
		}
	}
	// Expect ~10% from b (binomial(200, 0.1): sd ≈ 4.2).
	if high < 5 || high > 40 {
		t.Errorf("high-side samples = %d, want ≈20", high)
	}
	if a.Count() != 10000 {
		t.Errorf("count %v", a.Count())
	}
}

package sketch

import (
	"math"
	"sort"
)

// Merge12 is the low-discrepancy mergeable quantile summary of Agarwal et
// al. [3] (the algorithm behind the Yahoo! datasketches "quantiles" sketch
// the paper benchmarks as Merge12): a hierarchy of sorted level buffers of
// size k where level i items carry weight 2^(i+1). Compactions keep
// alternating elements with a random offset, which cancels bias across
// levels.
type Merge12 struct {
	k      int
	n      float64
	base   []float64   // incoming raw items, weight 1
	levels [][]float64 // levels[i]: sorted, len k, weight 2^(i+1); nil if empty
	rng    uint64
}

// NewMerge12 returns a summary with buffer parameter k.
func NewMerge12(k int) *Merge12 {
	if k < 2 {
		k = 2
	}
	if k%2 == 1 {
		k++
	}
	return &Merge12{k: k, base: make([]float64, 0, 2*k), rng: seed}
}

// Name implements Summary.
func (s *Merge12) Name() string { return "Merge12" }

// Add implements Summary.
func (s *Merge12) Add(x float64) {
	s.base = append(s.base, x)
	s.n++
	if len(s.base) == 2*s.k {
		s.compactBase()
	}
}

// compactBase sorts the 2k base items and promotes k alternating ones to
// level 0.
func (s *Merge12) compactBase() {
	sort.Float64s(s.base)
	s.carry(0, s.alternating(s.base))
	s.base = s.base[:0]
}

// alternating keeps every other element of a sorted 2k buffer, starting at
// a random offset.
func (s *Merge12) alternating(sorted []float64) []float64 {
	out := make([]float64, 0, s.k)
	for i := randBit(&s.rng); i < len(sorted); i += 2 {
		out = append(out, sorted[i])
	}
	return out
}

// carry propagates a full sorted buffer into the level hierarchy, like
// binary addition.
func (s *Merge12) carry(level int, buf []float64) {
	for {
		for level >= len(s.levels) {
			s.levels = append(s.levels, nil)
		}
		if s.levels[level] == nil {
			s.levels[level] = buf
			return
		}
		merged := mergeSorted(s.levels[level], buf)
		s.levels[level] = nil
		buf = s.alternating(merged)
		level++
	}
}

func mergeSorted(a, b []float64) []float64 {
	out := make([]float64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Merge implements Summary: base items replay individually; level buffers
// carry directly into the hierarchy.
func (s *Merge12) Merge(other Summary) error {
	o, ok := other.(*Merge12)
	if !ok {
		return ErrTypeMismatch
	}
	if o.k != s.k {
		// Differing k changes buffer widths; re-inserting values would
		// violate weights. Align by rebuilding is out of scope: reject.
		return ErrTypeMismatch
	}
	for _, x := range o.base {
		s.Add(x)
	}
	s.n -= float64(len(o.base)) // Add double-counts; o.n below covers them
	for lvl, buf := range o.levels {
		if buf != nil {
			cp := make([]float64, len(buf))
			copy(cp, buf)
			s.carry(lvl, cp)
		}
	}
	s.n += o.n
	return nil
}

// Quantile implements Summary: weighted rank across all retained items.
func (s *Merge12) Quantile(phi float64) float64 {
	type wv struct {
		v, w float64
	}
	items := make([]wv, 0, len(s.base)+len(s.levels)*s.k)
	for _, v := range s.base {
		items = append(items, wv{v, 1})
	}
	for lvl, buf := range s.levels {
		w := math.Pow(2, float64(lvl+1))
		for _, v := range buf {
			items = append(items, wv{v, w})
		}
	}
	if len(items) == 0 {
		return math.NaN()
	}
	sort.Slice(items, func(i, j int) bool { return items[i].v < items[j].v })
	total := 0.0
	for _, it := range items {
		total += it.w
	}
	target := phi * total
	cum := 0.0
	for _, it := range items {
		cum += it.w
		if cum >= target {
			return it.v
		}
	}
	return items[len(items)-1].v
}

// Count implements Summary.
func (s *Merge12) Count() float64 { return s.n }

// Clone implements Serving.
func (s *Merge12) Clone() Serving {
	c := &Merge12{k: s.k, n: s.n, base: make([]float64, len(s.base), 2*s.k), rng: s.rng}
	copy(c.base, s.base)
	if len(s.levels) > 0 {
		c.levels = make([][]float64, len(s.levels))
		for i, buf := range s.levels {
			if buf != nil {
				c.levels[i] = append([]float64(nil), buf...)
			}
		}
	}
	return c
}

// Reset implements Serving.
func (s *Merge12) Reset() {
	s.n = 0
	s.base = s.base[:0]
	s.levels = nil
}

// IsEmpty implements Serving.
func (s *Merge12) IsEmpty() bool { return s.n <= 0 }

// SizeBytes implements Summary.
func (s *Merge12) SizeBytes() int {
	n := len(s.base)
	for _, buf := range s.levels {
		n += len(buf)
	}
	return 16 + 8*n
}

package sketch

import (
	"math"
	"sort"
)

// Sampling is reservoir sampling (Vitter [76]): a uniform random sample of
// fixed size. Merging two reservoirs draws each slot from either side with
// probability proportional to the side's total count, sampling without
// replacement within each side.
type Sampling struct {
	size  int
	n     float64
	items []float64
	rng   uint64
}

// NewSampling returns a reservoir of the given sample size.
func NewSampling(size int) *Sampling {
	if size < 1 {
		size = 1
	}
	return &Sampling{size: size, items: make([]float64, 0, size), rng: seed}
}

// Name implements Summary.
func (s *Sampling) Name() string { return "Sampling" }

// Add implements Summary.
func (s *Sampling) Add(x float64) {
	s.n++
	if len(s.items) < s.size {
		s.items = append(s.items, x)
		return
	}
	// Replace a random element with probability size/n.
	j := int(splitmix64(&s.rng) % uint64(s.n))
	if j < s.size {
		s.items[j] = x
	}
}

// Merge implements Summary.
func (s *Sampling) Merge(other Summary) error {
	o, ok := other.(*Sampling)
	if !ok {
		return ErrTypeMismatch
	}
	if o.n == 0 {
		return nil
	}
	if s.n == 0 {
		s.n = o.n
		s.items = append(s.items[:0], o.items...)
		return nil
	}
	// Draw min(size, combined evidence) samples from the weighted union,
	// consuming each side without replacement.
	a := append([]float64{}, s.items...)
	b := append([]float64{}, o.items...)
	shuffle(&s.rng, a)
	shuffle(&s.rng, b)
	total := s.n + o.n
	out := make([]float64, 0, s.size)
	wa, wb := s.n, o.n
	for len(out) < s.size && (len(a) > 0 || len(b) > 0) {
		takeA := len(b) == 0
		if !takeA && len(a) > 0 {
			r := float64(splitmix64(&s.rng)%(1<<53)) / (1 << 53)
			takeA = r < wa/(wa+wb)
		}
		if takeA {
			out = append(out, a[len(a)-1])
			a = a[:len(a)-1]
		} else {
			out = append(out, b[len(b)-1])
			b = b[:len(b)-1]
		}
	}
	s.items = out
	s.n = total
	return nil
}

func shuffle(rng *uint64, xs []float64) {
	for i := len(xs) - 1; i > 0; i-- {
		j := randIntN(rng, i+1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// Quantile implements Summary.
func (s *Sampling) Quantile(phi float64) float64 {
	if len(s.items) == 0 {
		return math.NaN()
	}
	sorted := append([]float64{}, s.items...)
	sort.Float64s(sorted)
	idx := int(phi * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Count implements Summary.
func (s *Sampling) Count() float64 { return s.n }

// Clone implements Serving.
func (s *Sampling) Clone() Serving {
	return &Sampling{size: s.size, n: s.n, items: append([]float64(nil), s.items...), rng: s.rng}
}

// Reset implements Serving.
func (s *Sampling) Reset() {
	s.n = 0
	s.items = s.items[:0]
}

// IsEmpty implements Serving.
func (s *Sampling) IsEmpty() bool { return s.n <= 0 }

// SizeBytes implements Summary.
func (s *Sampling) SizeBytes() int { return 16 + 8*len(s.items) }

// Package core implements the moments sketch data structure itself: the
// fixed-size set of summary statistics of Algorithm 1 in the paper — minimum,
// maximum, count, and the unscaled power sums Σxⁱ and Σ_{x>0} logⁱ(x) up to a
// configurable order k — together with the moment post-processing (shifting,
// scaling, Chebyshev conversion, and floating-point stability analysis of
// Appendix B) that the maximum-entropy estimator consumes.
//
// A Sketch supports pointwise accumulation, merging (pure vector addition),
// and subtraction (turnstile semantics for sliding windows). Merging is
// lossless: a sketch built by merging partitions is bit-identical, up to
// floating-point associativity, to one built by scanning the raw data.
package core

import (
	"errors"
	"fmt"
	"math"
)

// DefaultK is the sketch order used throughout the paper's evaluation
// (k = 10: "less than 200 bytes" with "merge times of less than 50ns").
const DefaultK = 10

// MaxK bounds the supported sketch order. Beyond k ≈ 16, double-precision
// power sums carry no usable information (paper §4.3.2), so higher orders
// only waste space.
const MaxK = 25

// MaxCount is the count bound behind MaxAbs: 2⁵³, the largest count a
// float64 Count holds exactly.
const MaxCount = 1 << 53

// MaxAbs returns the largest |x| an order-k sketch is built for: the
// largest value whose k-th power, accumulated as Add does and times
// MaxCount, stays finite. Below it no power sum over up to MaxCount values
// overflows (|x|ⁱ ≤ max(1, |x|ᵏ) for i ≤ k), so every moment vector, and
// every rollup of them, stays finite; at k = 10 it is about 1.7e29. It
// panics if k is outside [1, MaxK].
func MaxAbs(k int) float64 {
	if k < 1 || k > MaxK {
		panic(fmt.Sprintf("core: sketch order %d outside [1,%d]", k, MaxK))
	}
	// math.Pow lands within a few ulps; step to the exact largest.
	x := math.Pow(math.MaxFloat64/MaxCount, 1/float64(k))
	for !overflows(math.Nextafter(x, math.Inf(1)), k) {
		x = math.Nextafter(x, math.Inf(1))
	}
	for overflows(x, k) {
		x = math.Nextafter(x, 0)
	}
	return x
}

// overflows reports whether MaxCount times x's k-th power, by Add's
// repeated multiplication, is infinite.
func overflows(x float64, k int) bool {
	p := x
	for i := 1; i < k; i++ {
		p *= x
	}
	return math.IsInf(p*MaxCount, 0)
}

// Sketch is the moments sketch of a multiset of real values.
//
// The zero value is not usable until filled by CopyFrom; construct with New
// or Clone. All fields are exported so encodings and engines can access the
// raw statistics; mutate them only through the methods.
type Sketch struct {
	// K is the highest moment order tracked.
	K int
	// Min and Max are the extreme values seen (+Inf/-Inf when empty).
	Min, Max float64
	// Count is the number of accumulated values. It is a float64 so that
	// merged and subtracted sketches stay closed under the same arithmetic
	// as the power sums.
	Count float64
	// Pow[i-1] holds Σ xⁱ for i = 1..K.
	Pow []float64
	// LogPow[i-1] holds Σ logⁱ(x) over the strictly positive values,
	// for i = 1..K. Sketches from New, Clone and CopyFrom carve Pow and
	// LogPow from one backing array of 2K floats, Pow capped at K, so the
	// 2K sums are one contiguous load and appending to Pow never writes
	// into LogPow.
	LogPow []float64
	// LogCount is the number of strictly positive values contributing to
	// LogPow.
	LogCount float64
}

// New returns an empty moments sketch of order k. It panics if k is outside
// [1, MaxK].
func New(k int) *Sketch {
	if k < 1 || k > MaxK {
		panic(fmt.Sprintf("core: sketch order %d outside [1,%d]", k, MaxK))
	}
	s := &Sketch{K: k, Min: math.Inf(1), Max: math.Inf(-1)}
	s.Pow, s.LogPow = powerSums(k)
	return s
}

// powerSums carves zeroed Pow and LogPow slices of length k from one
// backing array.
func powerSums(k int) (pow, logPow []float64) {
	buf := make([]float64, 2*k)
	return buf[:k:k], buf[k:]
}

// Reset restores the sketch to its freshly constructed empty state.
func (s *Sketch) Reset() {
	s.Min = math.Inf(1)
	s.Max = math.Inf(-1)
	s.Count = 0
	s.LogCount = 0
	for i := range s.Pow {
		s.Pow[i] = 0
		s.LogPow[i] = 0
	}
}

// Add accumulates a single value (Algorithm 1's accumulate).
func (s *Sketch) Add(x float64) {
	if x < s.Min {
		s.Min = x
	}
	if x > s.Max {
		s.Max = x
	}
	s.Count++
	p := x
	for i := 0; i < s.K; i++ {
		s.Pow[i] += p
		p *= x
	}
	if x > 0 {
		s.LogCount++
		l := math.Log(x)
		p = l
		for i := 0; i < s.K; i++ {
			s.LogPow[i] += p
			p *= l
		}
	}
}

// AddMany accumulates a slice of values.
func (s *Sketch) AddMany(xs []float64) {
	for _, x := range xs {
		s.Add(x)
	}
}

// AddWeighted accumulates x with multiplicity w > 0, equivalent to calling
// Add(x) w times (w need not be integral). This is an extension beyond the
// paper's Algorithm 1 — power sums are linear in multiplicity, so
// pre-counted data (histogram buckets, cube cells with repeat counts) can
// be folded in directly.
func (s *Sketch) AddWeighted(x, w float64) {
	if w <= 0 {
		return
	}
	if x < s.Min {
		s.Min = x
	}
	if x > s.Max {
		s.Max = x
	}
	s.Count += w
	p := x
	for i := 0; i < s.K; i++ {
		s.Pow[i] += w * p
		p *= x
	}
	if x > 0 {
		s.LogCount += w
		l := math.Log(x)
		p = l
		for i := 0; i < s.K; i++ {
			s.LogPow[i] += w * p
			p *= l
		}
	}
}

// ErrOrderMismatch is returned when merging or subtracting sketches of
// different orders.
var ErrOrderMismatch = errors.New("core: sketch order mismatch")

// Merge folds another sketch into s (Algorithm 1's merge): min/max by
// comparison, counts and power sums by addition. The other sketch is not
// modified.
func (s *Sketch) Merge(o *Sketch) error {
	if s.K != o.K {
		return ErrOrderMismatch
	}
	if o.Min < s.Min {
		s.Min = o.Min
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
	s.Count += o.Count
	s.LogCount += o.LogCount
	for i := 0; i < s.K; i++ {
		s.Pow[i] += o.Pow[i]
		s.LogPow[i] += o.LogPow[i]
	}
	return nil
}

// Sub removes a previously merged sketch from s (turnstile semantics, used
// for sliding windows, paper §7.2.2). Counts and power sums subtract
// exactly; Min and Max cannot be un-merged, so they are left as-is. The
// resulting wider [Min,Max] support remains sound for estimation — callers
// that track live panes (e.g. internal/window) can call TightenRange with a
// recomputed range.
func (s *Sketch) Sub(o *Sketch) error {
	if s.K != o.K {
		return ErrOrderMismatch
	}
	s.Count -= o.Count
	s.LogCount -= o.LogCount
	for i := 0; i < s.K; i++ {
		s.Pow[i] -= o.Pow[i]
		s.LogPow[i] -= o.LogPow[i]
	}
	if s.Count < 0 {
		return errors.New("core: subtraction produced negative count")
	}
	return nil
}

// TightenRange replaces the tracked [Min,Max] with a narrower range known to
// contain all remaining data (e.g. recomputed from live window panes). It is
// a no-op for values that would widen the range.
func (s *Sketch) TightenRange(lo, hi float64) {
	if lo > s.Min {
		s.Min = lo
	}
	if hi < s.Max {
		s.Max = hi
	}
}

// Clone returns a deep copy.
func (s *Sketch) Clone() *Sketch {
	c := new(Sketch)
	c.CopyFrom(s)
	return c
}

// CopyFrom overwrites s with a deep copy of o. The power sums go into s's
// own arrays when they already have o's order, and into freshly carved
// ones otherwise, so the zero Sketch is a valid destination: a record that
// embeds a Sketch by value holds a full copy in one allocation fewer than
// a Clone.
func (s *Sketch) CopyFrom(o *Sketch) {
	if s.K != o.K || len(s.Pow) != o.K || len(s.LogPow) != o.K {
		s.Pow, s.LogPow = powerSums(o.K)
	}
	s.K = o.K
	s.Min, s.Max = o.Min, o.Max
	s.Count, s.LogCount = o.Count, o.LogCount
	copy(s.Pow, o.Pow)
	copy(s.LogPow, o.LogPow)
}

// IsEmpty reports whether no values have been accumulated.
func (s *Sketch) IsEmpty() bool { return s.Count <= 0 }

// Mean returns the sample mean (NaN when empty).
func (s *Sketch) Mean() float64 {
	if s.Count <= 0 {
		return math.NaN()
	}
	return s.Pow[0] / s.Count
}

// Moment returns the i-th raw sample moment µᵢ = (1/n)Σxⁱ for 1 ≤ i ≤ K.
func (s *Sketch) Moment(i int) float64 {
	if i < 1 || i > s.K {
		panic(fmt.Sprintf("core: moment order %d outside [1,%d]", i, s.K))
	}
	if s.Count <= 0 {
		return math.NaN()
	}
	return s.Pow[i-1] / s.Count
}

// LogMoment returns the i-th raw log-moment νᵢ = (1/n⁺)Σ_{x>0}logⁱ(x).
func (s *Sketch) LogMoment(i int) float64 {
	if i < 1 || i > s.K {
		panic(fmt.Sprintf("core: log moment order %d outside [1,%d]", i, s.K))
	}
	if s.LogCount <= 0 {
		return math.NaN()
	}
	return s.LogPow[i-1] / s.LogCount
}

// Variance returns the population variance derived from the first two
// moments, clamped at zero against rounding. It is NaN for an empty sketch
// and for an order-1 sketch, which keeps no second moment.
func (s *Sketch) Variance() float64 {
	if s.Count <= 0 || s.K < 2 {
		return math.NaN()
	}
	m := s.Mean()
	v := s.Pow[1]/s.Count - m*m
	if v < 0 {
		v = 0
	}
	return v
}

// StdDev returns the population standard deviation.
func (s *Sketch) StdDev() float64 { return math.Sqrt(s.Variance()) }

// HasLogMoments reports whether the log-moment statistics cover the whole
// dataset, i.e. whether every accumulated value was strictly positive. Per
// the paper, log moments are ignored otherwise.
func (s *Sketch) HasLogMoments() bool {
	return s.Count > 0 && s.LogCount == s.Count && s.Min > 0
}

// SizeBytes returns the serialized size of the sketch: (2K+3) float64 words
// plus the order header. At k = 10 this is 8 + 23·8 = 192 bytes — the
// "fewer than 200 bytes" configuration from the paper.
func (s *Sketch) SizeBytes() int { return 8 + (2*s.K+3)*8 }

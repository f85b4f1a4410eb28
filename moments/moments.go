// Package moments provides the moments sketch: a compact (~200 byte),
// constant-size, efficiently mergeable quantile summary based on the paper
// "Moment-Based Quantile Sketches for Efficient High Cardinality Aggregation
// Queries" (Gan, Ding, Tai, Sharan, Bailis — VLDB 2018).
//
// A Sketch tracks the minimum, maximum, count, and the sample moments
// Σxⁱ and Σlogⁱ(x) up to a configurable order k (default 10). Merging two
// sketches is a handful of additions — tens of nanoseconds — which makes the
// sketch ideal for data-cube style aggregations that merge 10⁴–10⁶
// pre-computed summaries per query. Quantile estimates are recovered with
// the method of moments under the maximum-entropy principle, accurate to
// ε_avg ≈ 0.01 on continuous real-world-like distributions.
//
// Basic usage:
//
//	s := moments.New()
//	for _, v := range values {
//		s.Add(v)
//	}
//	p99, err := s.Quantile(0.99)
//
// Pre-aggregation and rollup:
//
//	total := moments.New()
//	for _, cell := range cube.Select(pred) {
//		total.Merge(cell.Sketch)
//	}
//	median, err := total.Quantile(0.5)
//
// Threshold predicates ("is p99 > 100ms?") should use Threshold, which runs
// a cascade of cheap moment-based bounds before falling back to the full
// estimator and is typically 10–100× faster than Quantile for queries over
// many subgroups.
//
// Sketches are not safe for concurrent mutation; clone or lock externally.
package moments

import (
	"errors"
	"math"

	"repro/internal/bounds"
	"repro/internal/cascade"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/maxent"
)

// DefaultK is the default sketch order (matches the paper's evaluation).
const DefaultK = core.DefaultK

// MaxK is the maximum supported sketch order. Orders beyond ~16 carry no
// extra double-precision information (paper §4.3.2).
const MaxK = core.MaxK

// ErrEmpty is returned when a quantile is requested from an empty sketch.
var ErrEmpty = core.ErrEmpty

// ErrOrderMismatch is returned when merging sketches of different orders.
var ErrOrderMismatch = core.ErrOrderMismatch

// ErrNotConverged is returned when the maximum-entropy solver cannot match
// the recorded moments — the documented failure mode on data with fewer
// than about five distinct values (paper §6.2.3). Callers can fall back to
// RankBounds, which always succeed.
var ErrNotConverged = maxent.ErrNotConverged

// Option configures a Sketch at construction.
type Option func(*config)

type config struct{ k int }

// WithK sets the sketch order: k standard and k log moments are tracked.
// Higher orders are more accurate but larger, slower to estimate from, and
// numerically useless beyond ~16.
func WithK(k int) Option { return func(c *config) { c.k = k } }

// Sketch is a mergeable moments-sketch quantile summary.
type Sketch struct {
	raw *core.Sketch

	// sol caches the solved maximum-entropy density; any mutation clears it.
	sol *maxent.Solution
}

// New returns an empty sketch (order DefaultK unless WithK is given).
func New(options ...Option) *Sketch {
	cfg := config{k: DefaultK}
	for _, o := range options {
		o(&cfg)
	}
	return &Sketch{raw: core.New(cfg.k)}
}

// FromRaw wraps an existing statistics sketch (one held by a shard store,
// decoded from a snapshot, …) in a Sketch without copying it. The raw
// sketch is adopted: callers that keep mutating it directly must not reuse
// this wrapper, since cached solutions would go stale. The wrapper takes its
// order from raw.
func FromRaw(raw *core.Sketch) *Sketch { return &Sketch{raw: raw} }

// K returns the sketch order.
func (s *Sketch) K() int { return s.raw.K }

// Add accumulates a value.
func (s *Sketch) Add(x float64) {
	s.raw.Add(x)
	s.sol = nil
}

// AddMany accumulates a slice of values.
func (s *Sketch) AddMany(xs []float64) {
	s.raw.AddMany(xs)
	s.sol = nil
}

// AddWeighted accumulates x with multiplicity w (equivalent to w calls to
// Add(x); w need not be integral). Useful when folding in pre-counted data
// such as histogram buckets.
func (s *Sketch) AddWeighted(x, w float64) {
	s.raw.AddWeighted(x, w)
	s.sol = nil
}

// Merge folds another sketch into this one. Merging is lossless: the result
// is identical (up to float associativity) to having accumulated both
// datasets directly.
func (s *Sketch) Merge(o *Sketch) error {
	if err := s.raw.Merge(o.raw); err != nil {
		return err
	}
	s.sol = nil
	return nil
}

// Sub removes a previously merged sketch (turnstile semantics, for sliding
// windows). The tracked [Min, Max] range cannot shrink; see TightenRange.
func (s *Sketch) Sub(o *Sketch) error {
	if err := s.raw.Sub(o.raw); err != nil {
		return err
	}
	s.sol = nil
	return nil
}

// TightenRange narrows the tracked value range after Sub when the caller
// knows a tighter bound (e.g. the min/max over live window panes).
func (s *Sketch) TightenRange(lo, hi float64) {
	s.raw.TightenRange(lo, hi)
	s.sol = nil
}

// Clone returns an independent deep copy.
func (s *Sketch) Clone() *Sketch {
	return &Sketch{raw: s.raw.Clone(), sol: s.sol}
}

// Reset empties the sketch in place.
func (s *Sketch) Reset() {
	s.raw.Reset()
	s.sol = nil
}

// Count returns the number of accumulated values.
func (s *Sketch) Count() float64 { return s.raw.Count }

// Min returns the smallest accumulated value (+Inf when empty).
func (s *Sketch) Min() float64 { return s.raw.Min }

// Max returns the largest accumulated value (-Inf when empty).
func (s *Sketch) Max() float64 { return s.raw.Max }

// Mean returns the sample mean (NaN when empty).
func (s *Sketch) Mean() float64 { return s.raw.Mean() }

// Variance returns the population variance (NaN when empty).
func (s *Sketch) Variance() float64 { return s.raw.Variance() }

// StdDev returns the population standard deviation (NaN when empty).
func (s *Sketch) StdDev() float64 { return s.raw.StdDev() }

// Moment returns the i-th raw sample moment (1/n)Σxⁱ, 1 ≤ i ≤ K().
func (s *Sketch) Moment(i int) float64 { return s.raw.Moment(i) }

// LogMoment returns the i-th raw log-moment over positive values.
func (s *Sketch) LogMoment(i int) float64 { return s.raw.LogMoment(i) }

// SizeBytes returns the serialized size of the sketch.
func (s *Sketch) SizeBytes() int { return len(encoding.Marshal(s.raw)) }

// solve returns the cached maximum-entropy solution, computing it if needed.
func (s *Sketch) solve() (*maxent.Solution, error) {
	if s.sol != nil {
		return s.sol, nil
	}
	sol, err := maxent.SolveSketch(s.raw, maxent.Options{})
	if err != nil {
		return nil, err
	}
	s.sol = sol
	return sol, nil
}

// Quantile estimates the φ-quantile of the accumulated data, φ ∈ [0, 1].
// The solved density is cached, so subsequent quantile/CDF calls on an
// unmodified sketch are nearly free.
func (s *Sketch) Quantile(phi float64) (float64, error) {
	if phi < 0 || phi > 1 || math.IsNaN(phi) {
		return 0, errors.New("moments: quantile fraction outside [0,1]")
	}
	sol, err := s.solve()
	if err != nil {
		return 0, err
	}
	return sol.Quantile(phi), nil
}

// Quantiles estimates several quantiles at once. All fractions are
// validated before the (comparatively expensive) density solve runs, so
// malformed input fails in nanoseconds.
func (s *Sketch) Quantiles(phis []float64) ([]float64, error) {
	for _, phi := range phis {
		if phi < 0 || phi > 1 || math.IsNaN(phi) {
			return nil, errors.New("moments: quantile fraction outside [0,1]")
		}
	}
	sol, err := s.solve()
	if err != nil {
		return nil, err
	}
	return sol.Quantiles(phis), nil
}

// Median is shorthand for Quantile(0.5).
func (s *Sketch) Median() (float64, error) { return s.Quantile(0.5) }

// CDF estimates the fraction of accumulated values ≤ x.
func (s *Sketch) CDF(x float64) (float64, error) {
	sol, err := s.solve()
	if err != nil {
		return 0, err
	}
	return sol.CDF(x), nil
}

// RankBounds returns guaranteed lower and upper bounds on the fraction of
// values ≤ t, derived from the Markov and RTT moment inequalities (§5.1).
// Unlike Quantile it never fails, and the true fraction provably lies in
// [lo, hi] regardless of the data distribution.
func (s *Sketch) RankBounds(t float64) (lo, hi float64) {
	iv := bounds.RTT(s.raw, t)
	return iv.Lo, iv.Hi
}

// QuantileErrorBound returns a guaranteed upper bound on the rank error of
// the φ-quantile estimate (Appendix E).
func (s *Sketch) QuantileErrorBound(phi float64) (float64, error) {
	q, err := s.Quantile(phi)
	if err != nil {
		return 0, err
	}
	iv := bounds.RTT(s.raw, q)
	return bounds.QuantileErrorBound(iv, phi), nil
}

// Threshold reports whether the φ-quantile exceeds t, using the cascade of
// §5.2: range filter → Markov bounds → RTT bounds → maximum entropy. It is
// consistent with Quantile but typically far cheaper, because most
// threshold queries resolve in the bound stages. When the maximum-entropy
// stage is reached it uses — and fills — the same cached density as
// Quantile, so the two solve once between them in either order.
func (s *Sketch) Threshold(t, phi float64) (bool, error) {
	cfg := cascade.Full()
	cfg.Solve = func() (*maxent.Solution, bool, error) {
		shared := s.sol != nil
		sol, err := s.solve()
		return sol, shared, err
	}
	return cascade.Threshold(s.raw, t, phi, cfg, nil)
}

// Bucket is one bar of an estimated histogram.
type Bucket struct {
	// Lo and Hi are the bucket edges in the data domain.
	Lo, Hi float64
	// Fraction is the estimated share of data inside [Lo, Hi).
	Fraction float64
}

// Histogram renders the maximum-entropy density estimate as n equal-width
// buckets over [Min, Max] — a convenience for dashboards and debugging.
// Fractions sum to ~1.
func (s *Sketch) Histogram(n int) ([]Bucket, error) {
	if n < 1 {
		return nil, errors.New("moments: histogram needs at least one bucket")
	}
	sol, err := s.solve()
	if err != nil {
		return nil, err
	}
	lo, hi := sol.Support()
	out := make([]Bucket, n)
	prev := 0.0
	for i := 0; i < n; i++ {
		r := lo + (hi-lo)*float64(i+1)/float64(n)
		c := sol.CDF(r)
		out[i] = Bucket{
			Lo:       lo + (hi-lo)*float64(i)/float64(n),
			Hi:       r,
			Fraction: c - prev,
		}
		prev = c
	}
	return out, nil
}

// MergeMany merges any number of sketches into a fresh one. All inputs must
// share the same order; nil entries are skipped. With no usable inputs it
// returns an empty sketch of DefaultK.
func MergeMany(sketches ...*Sketch) (*Sketch, error) {
	var out *Sketch
	for _, s := range sketches {
		if s == nil {
			continue
		}
		if out == nil {
			out = New(WithK(s.K()))
		}
		if err := out.Merge(s); err != nil {
			return nil, err
		}
	}
	if out == nil {
		out = New()
	}
	return out, nil
}

// MarshalBinary encodes the sketch (encoding.BinaryMarshaler).
func (s *Sketch) MarshalBinary() ([]byte, error) {
	return encoding.Marshal(s.raw), nil
}

// UnmarshalBinary decodes a sketch previously encoded with MarshalBinary or
// MarshalLowPrecision (encoding.BinaryUnmarshaler).
func (s *Sketch) UnmarshalBinary(data []byte) error {
	raw, err := encoding.Unmarshal(data)
	if err != nil {
		raw, err = encoding.UnmarshalLowPrecision(data)
	}
	if err != nil {
		return err
	}
	s.raw = raw
	s.sol = nil
	return nil
}

// MarshalLowPrecision encodes the sketch keeping mantissaBits (0–52) of
// each power sum, using unbiased randomized rounding (Appendix C). About 20
// bits per value (mantissaBits = 8) preserves ε_avg ≈ 0.01 accuracy on
// well-conditioned data while shrinking storage ~3×.
func (s *Sketch) MarshalLowPrecision(mantissaBits int) ([]byte, error) {
	return encoding.MarshalLowPrecision(s.raw, mantissaBits), nil
}

// Raw exposes the underlying statistics sketch for engine integrations in
// this module (data cubes, windows). Mutating it directly invalidates
// nothing; prefer the Sketch methods.
func (s *Sketch) Raw() *core.Sketch { return s.raw }

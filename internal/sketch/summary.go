// Package sketch defines the mergeable quantile-summary interface shared by
// the moments sketch and the seven baseline summaries the paper compares
// against (§6.1): Merge12, RandomW, GK, T-Digest, Sampling, S-Hist and
// EW-Hist. Each baseline is implemented from scratch following its published
// algorithm; see the per-file comments for provenance.
package sketch

import "errors"

// Summary is a mergeable quantile summary (paper §3.2): merging two
// summaries must produce a summary of the combined data, and Quantile must
// return an approximate φ-quantile.
type Summary interface {
	// Name identifies the summary family (e.g. "M-Sketch", "GK").
	Name() string
	// Add accumulates one value.
	Add(x float64)
	// Merge folds another summary of the same concrete type into this one.
	Merge(other Summary) error
	// Quantile returns the estimated φ-quantile, φ ∈ [0,1]. Implementations
	// return NaN on an empty summary.
	Quantile(phi float64) float64
	// Count returns the number of accumulated values.
	Count() float64
	// SizeBytes returns the current serialized size in bytes — the space a
	// data cube would spend storing this cell.
	SizeBytes() int
}

// ErrTypeMismatch is returned when merging different summary types.
var ErrTypeMismatch = errors.New("sketch: cannot merge summaries of different types")

// Factory constructs fresh summaries for a family at a given size/accuracy
// parameter, for use by the experiment harness.
type Factory struct {
	// Name is the family name as it appears in the paper's figures.
	Name string
	// Param describes the instantiated size parameter, e.g. "k=10".
	Param string
	// New creates an empty summary.
	New func() Summary
}

// seed is every randomized summary's initial PRNG state. One constant, not a
// per-process counter: an instance's random choices then depend only on its
// own history of operations, so the same fold of the same data — a rollup
// built into a fresh summary, on any goroutine, after any number of other
// summaries — gives the same bytes every time.
const seed uint64 = 0x9E3779B97F4A7C15

// splitmix64 is the PRNG step shared by the randomized summaries.
func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// randIntN returns a uniform integer in [0, n).
func randIntN(state *uint64, n int) int {
	return int(splitmix64(state) % uint64(n))
}

// randBit returns 0 or 1.
func randBit(state *uint64) int {
	return int(splitmix64(state) & 1)
}

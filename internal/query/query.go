package query

import (
	"fmt"
	"math"
	"net/http"
)

// Limits on a single request, chosen so a maximally adversarial batch stays
// bounded in both memory and compute.
const (
	// MaxSubqueries bounds the number of subqueries in one request.
	MaxSubqueries = 4096
	// MaxAggregations bounds the aggregations of one subquery.
	MaxAggregations = 32
	// MaxPoints bounds the φ values / evaluation points of one aggregation.
	MaxPoints = 256
	// MaxHistogramBuckets bounds one histogram aggregation's bucket count.
	MaxHistogramBuckets = 4096
	// MaxWindows bounds the sliding-window positions one window selection
	// may expand to (each position is one rollup with its own lazily
	// memoized solve).
	MaxWindows = 1024
)

// DefaultPhis are the quantile fractions reported when a quantiles
// aggregation names none.
var DefaultPhis = []float64{0.5, 0.9, 0.99}

// Error codes carried by the structured error envelope. HTTPStatus maps
// them onto transport status codes.
const (
	CodeInvalid      = "invalid_request"
	CodeNotFound     = "not_found"
	CodeNotConverged = "not_converged"
	CodeDeadline     = "deadline_exceeded"
	CodeCanceled     = "canceled"
	CodeTooLarge     = "too_large"
	CodeInternal     = "internal"
	// CodeBackendUnsupported marks a request the serving backend cannot
	// answer: an aggregation needing moment structure on a non-moments
	// backend, a moments-only endpoint, or a cross-backend merge.
	CodeBackendUnsupported = "backend_unsupported"
	// CodeUnavailable marks a request the node cannot currently serve
	// safely: the write-ahead log is wedged by a disk failure under the
	// fail policy, so acknowledging the write would break its durability
	// contract. Retry against a recovered node.
	CodeUnavailable = "unavailable"
	// CodePartialResult marks a scatter-gather answer computed without every
	// shard node: the coordinator's deadline or a node failure dropped some
	// partials, the reachable nodes' data was merged anyway, and Error.Nodes
	// lists the shards missing from the result.
	CodePartialResult = "partial_result"
)

// Error is the structured {code, message} envelope used for request-level,
// subquery-level and aggregation-level failures.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Nodes lists the shard nodes missing from a scatter-gather answer;
	// only set on CodePartialResult envelopes.
	Nodes []string `json:"nodes,omitempty"`
}

// Error implements the error interface.
func (e *Error) Error() string { return e.Code + ": " + e.Message }

// HTTPStatus maps the error code onto an HTTP status.
func (e *Error) HTTPStatus() int {
	switch e.Code {
	case CodeInvalid:
		return http.StatusBadRequest
	case CodeNotFound:
		return http.StatusNotFound
	case CodeNotConverged:
		return http.StatusUnprocessableEntity
	case CodeDeadline:
		return http.StatusGatewayTimeout
	case CodeCanceled:
		return http.StatusServiceUnavailable
	case CodeTooLarge:
		return http.StatusRequestEntityTooLarge
	case CodeBackendUnsupported:
		return http.StatusBadRequest
	case CodeUnavailable:
		return http.StatusServiceUnavailable
	case CodePartialResult:
		// Partial results travel alongside merged data from the reachable
		// shards — some targets answered, some did not.
		return http.StatusMultiStatus
	}
	return http.StatusInternalServerError
}

// Errorf builds an *Error with a formatted message.
func Errorf(code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// Aggregation operators.
const (
	OpQuantiles  = "quantiles"
	OpCDF        = "cdf"
	OpThreshold  = "threshold"
	OpRankBounds = "rank_bounds"
	OpHistogram  = "histogram"
	OpStats      = "stats"
)

// Request is a batch of independent subqueries evaluated in one round trip.
type Request struct {
	Queries []Subquery `json:"queries"`
}

// Subquery pairs one selection of the key space with the aggregations to
// evaluate over it.
type Subquery struct {
	// ID is an optional client-chosen tag echoed back on the result.
	ID     string    `json:"id,omitempty"`
	Select Selection `json:"select"`
	// Aggregations are evaluated in order against the selected data.
	Aggregations []Aggregation `json:"aggregations"`
}

// Selection picks the sketches a subquery aggregates over. Exactly one of
// Key and Prefix must be set. Prefix is a pointer so that the empty prefix
// (select every key) stays expressible.
type Selection struct {
	// Key selects a single exact key.
	Key string `json:"key,omitempty"`
	// Prefix selects every key with this prefix, merged into one rollup.
	Prefix *string `json:"prefix,omitempty"`
	// GroupBy partitions a prefix selection into one rollup per distinct
	// value of the given "."-delimited key segment (0-based). Only
	// valid together with Prefix, and not combinable with Window.
	GroupBy *int `json:"group_by,omitempty"`
	// Window restricts the selection to time panes (§7.2.2): instead of the
	// all-time sketch, the rollup covers the retained pane ring — a single
	// trailing window, an explicit [start, end) range, or a set of sliding
	// window positions. Requires a store built with time panes.
	Window *WindowSpec `json:"window,omitempty"`
}

// WindowSpec selects which time window(s) of the retained pane ring a
// subquery aggregates over. All widths are in panes (the store's configured
// pane width × count); times are unix seconds so the spec round-trips
// through JSON without timezone ambiguity.
//
// The pane universe is the explicit [StartUnix, EndUnix) range when given
// (clipped to the retained ring), otherwise the whole retained ring. Within
// it:
//
//   - Last == 0, Step == 0: one window covering the whole universe. With no
//     explicit range this is answered from the rolling turnstile-maintained
//     retained sketch in O(k), not a pane re-merge.
//   - Last > 0, Step == 0: one trailing window of the last `Last` panes.
//   - Last > 0, Step > 0: sliding windows of width Last starting at the
//     universe's oldest pane, advancing Step panes per position — evaluated
//     with turnstile Sub/Merge slides, one result group per position.
type WindowSpec struct {
	// Last is the window width in panes (0 = the whole selected range).
	Last int `json:"last,omitempty"`
	// Step slides the window by this many panes per position (0 = a single
	// window). Step > 0 requires Last > 0.
	Step int `json:"step,omitempty"`
	// StartUnix/EndUnix bound the pane universe to the wall-clock range
	// [StartUnix, EndUnix), in (possibly fractional) unix seconds. Set both
	// or neither.
	StartUnix *float64 `json:"start_unix,omitempty"`
	EndUnix   *float64 `json:"end_unix,omitempty"`
}

// WindowRange reports the wall-clock span one result group covers.
type WindowRange struct {
	// StartUnix/EndUnix bound the window, [StartUnix, EndUnix), in unix
	// seconds.
	StartUnix float64 `json:"start_unix"`
	EndUnix   float64 `json:"end_unix"`
	// Panes is the window width in panes.
	Panes int `json:"panes"`
}

// Aggregation is one typed aggregation operator. Op selects the operator;
// the remaining fields parameterize it:
//
//	quantiles:   Phis (default DefaultPhis)
//	cdf:         Xs (required)
//	threshold:   T (required), Phi (default 0.99)
//	rank_bounds: Xs (required)
//	histogram:   Buckets (required, ≥ 1)
//	stats:       no parameters
type Aggregation struct {
	Op      string    `json:"op"`
	Phis    []float64 `json:"phis,omitempty"`
	Xs      []float64 `json:"xs,omitempty"`
	T       *float64  `json:"t,omitempty"`
	Phi     *float64  `json:"phi,omitempty"`
	Buckets int       `json:"buckets,omitempty"`
}

// Response carries one Result per request subquery, in request order.
type Response struct {
	Results []Result `json:"results"`
}

// Result is the outcome of one subquery. Errors are isolated: a failed
// subquery sets Error and leaves the rest of the batch untouched.
type Result struct {
	ID    string `json:"id,omitempty"`
	Error *Error `json:"error,omitempty"`
	// Groups holds one entry per selected rollup: exactly one for key and
	// plain prefix selections, one per distinct segment value for group_by
	// selections (sorted by group label).
	Groups []GroupResult `json:"groups,omitempty"`
}

// GroupResult is one rollup's aggregation results.
type GroupResult struct {
	// Group is the grouped segment value for group_by selections, or the
	// window's RFC 3339 start instant for window selections (empty for
	// timeless key/prefix selections).
	Group string `json:"group,omitempty"`
	// Backend names the serving summary backend that produced this rollup
	// ("moments", "merge12", ...), so saved results are self-describing.
	Backend string `json:"backend,omitempty"`
	// Window is the wall-clock span this group covers; only set for window
	// selections.
	Window *WindowRange `json:"window,omitempty"`
	// Keys counts the per-key sketches merged into this rollup.
	Keys int `json:"keys"`
	// Count is the number of observations in the rollup.
	Count float64 `json:"count"`
	// Aggregations holds one result per requested aggregation, in order.
	Aggregations []AggResult `json:"aggregations"`
}

// AggResult is the outcome of one aggregation on one group. Exactly one of
// the payload fields matching Op is populated unless Error is set.
type AggResult struct {
	Op    string `json:"op"`
	Error *Error `json:"error,omitempty"`
	// Degraded reports that the maximum-entropy solver did not converge and
	// the result fell back to guaranteed moment bounds.
	Degraded   bool              `json:"degraded,omitempty"`
	Quantiles  []QuantilePoint   `json:"quantiles,omitempty"`
	CDF        []CDFPoint        `json:"cdf,omitempty"`
	Threshold  *ThresholdResult  `json:"threshold,omitempty"`
	RankBounds []RankBoundsPoint `json:"rank_bounds,omitempty"`
	Histogram  []HistogramBucket `json:"histogram,omitempty"`
	Stats      *StatsResult      `json:"stats,omitempty"`
}

// QuantilePoint is one (φ, estimate) pair.
type QuantilePoint struct {
	Q     float64 `json:"q"`
	Value float64 `json:"value"`
}

// CDFPoint is one (x, P[X ≤ x]) pair.
type CDFPoint struct {
	X        float64 `json:"x"`
	Fraction float64 `json:"fraction"`
}

// RankBoundsPoint carries the guaranteed bounds on the fraction of values
// ≤ X.
type RankBoundsPoint struct {
	X  float64 `json:"x"`
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// HistogramBucket is one bar of an estimated equal-width histogram.
type HistogramBucket struct {
	Lo       float64 `json:"lo"`
	Hi       float64 `json:"hi"`
	Fraction float64 `json:"fraction"`
}

// ThresholdResult answers "is the φ-quantile above T?", with the cascade
// stage that settled it.
type ThresholdResult struct {
	T     float64 `json:"t"`
	Phi   float64 `json:"phi"`
	Above bool    `json:"above"`
	Stage string  `json:"stage"`
}

// StatsResult carries the closed-form summary statistics of a rollup.
type StatsResult struct {
	Count    float64 `json:"count"`
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
	Mean     float64 `json:"mean"`
	Variance float64 `json:"variance"`
	StdDev   float64 `json:"stddev"`
}

// DefaultThresholdPhi is the quantile fraction a threshold aggregation
// tests when none is given.
const DefaultThresholdPhi = 0.99

// validate checks one subquery without touching any data, so malformed
// subqueries fail before the executor spends a single merge or solve on
// them.
func (q *Subquery) validate() *Error {
	if err := q.Select.validate(); err != nil {
		return err
	}
	if len(q.Aggregations) == 0 {
		return Errorf(CodeInvalid, "subquery needs at least one aggregation")
	}
	if len(q.Aggregations) > MaxAggregations {
		return Errorf(CodeInvalid, "too many aggregations (%d > %d)", len(q.Aggregations), MaxAggregations)
	}
	for i := range q.Aggregations {
		if err := q.Aggregations[i].validate(); err != nil {
			return Errorf(CodeInvalid, "aggregation %d: %s", i, err.Message)
		}
	}
	return nil
}

func (sel *Selection) validate() *Error {
	hasKey := sel.Key != ""
	hasPrefix := sel.Prefix != nil
	switch {
	case hasKey && hasPrefix:
		return Errorf(CodeInvalid, "select: key and prefix are mutually exclusive")
	case !hasKey && !hasPrefix:
		return Errorf(CodeInvalid, "select: need key or prefix")
	}
	if sel.GroupBy != nil {
		if !hasPrefix {
			return Errorf(CodeInvalid, "select: group_by requires a prefix selection")
		}
		if *sel.GroupBy < 0 {
			return Errorf(CodeInvalid, "select: group_by must be a non-negative key-segment index")
		}
		if sel.Window != nil {
			return Errorf(CodeInvalid, "select: window and group_by are mutually exclusive")
		}
	}
	if w := sel.Window; w != nil {
		if w.Last < 0 {
			return Errorf(CodeInvalid, "select: window.last must be non-negative")
		}
		if w.Step < 0 {
			return Errorf(CodeInvalid, "select: window.step must be non-negative")
		}
		if w.Step > 0 && w.Last == 0 {
			return Errorf(CodeInvalid, "select: window.step requires window.last (the sliding width)")
		}
		if (w.StartUnix == nil) != (w.EndUnix == nil) {
			return Errorf(CodeInvalid, "select: window.start_unix and window.end_unix go together")
		}
		if w.StartUnix != nil {
			if math.IsNaN(*w.StartUnix) || math.IsNaN(*w.EndUnix) ||
				math.IsInf(*w.StartUnix, 0) || math.IsInf(*w.EndUnix, 0) {
				return Errorf(CodeInvalid, "select: window range must be finite")
			}
			if *w.StartUnix >= *w.EndUnix {
				return Errorf(CodeInvalid, "select: window.start_unix must precede window.end_unix")
			}
		}
	}
	return nil
}

func (a *Aggregation) validate() *Error {
	switch a.Op {
	case OpQuantiles:
		if len(a.Phis) > MaxPoints {
			return Errorf(CodeInvalid, "too many quantile fractions (%d > %d)", len(a.Phis), MaxPoints)
		}
		for _, phi := range a.Phis {
			if !validPhi(phi) {
				return Errorf(CodeInvalid, "quantile fraction %v outside [0,1]", phi)
			}
		}
	case OpCDF, OpRankBounds:
		if len(a.Xs) == 0 {
			return Errorf(CodeInvalid, "%s needs at least one evaluation point in xs", a.Op)
		}
		if len(a.Xs) > MaxPoints {
			return Errorf(CodeInvalid, "too many evaluation points (%d > %d)", len(a.Xs), MaxPoints)
		}
		for _, x := range a.Xs {
			if math.IsNaN(x) {
				return Errorf(CodeInvalid, "%s evaluation point is NaN", a.Op)
			}
		}
	case OpThreshold:
		if a.T == nil || math.IsNaN(*a.T) || math.IsInf(*a.T, 0) {
			return Errorf(CodeInvalid, "threshold needs a finite t")
		}
		if a.Phi != nil && !validPhi(*a.Phi) {
			return Errorf(CodeInvalid, "threshold phi %v outside [0,1]", *a.Phi)
		}
	case OpHistogram:
		if a.Buckets < 1 {
			return Errorf(CodeInvalid, "histogram needs buckets ≥ 1")
		}
		if a.Buckets > MaxHistogramBuckets {
			return Errorf(CodeInvalid, "too many histogram buckets (%d > %d)", a.Buckets, MaxHistogramBuckets)
		}
	case OpStats:
		// No parameters.
	case "":
		return Errorf(CodeInvalid, "missing op")
	default:
		return Errorf(CodeInvalid, "unknown op %q", a.Op)
	}
	return nil
}

func validPhi(phi float64) bool {
	return !math.IsNaN(phi) && phi >= 0 && phi <= 1
}

// phis returns the quantile fractions of a quantiles aggregation,
// defaulting to DefaultPhis.
func (a *Aggregation) phis() []float64 {
	if len(a.Phis) == 0 {
		return DefaultPhis
	}
	return a.Phis
}

// thresholdPhi returns the quantile fraction of a threshold aggregation,
// defaulting to DefaultThresholdPhi.
func (a *Aggregation) thresholdPhi() float64 {
	if a.Phi == nil {
		return DefaultThresholdPhi
	}
	return *a.Phi
}

package sketch

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Serving extends Summary with the lifecycle operations the live serving
// stack needs: independent clones for lock-free reads, in-place reset for
// pooled pane rings, and an emptiness probe.
type Serving interface {
	Summary
	// Clone returns an independent deep copy.
	Clone() Serving
	// Reset restores the freshly constructed empty state.
	Reset()
	// IsEmpty reports whether no values have been accumulated.
	IsEmpty() bool
}

// Subber is the optional turnstile extension: removing a previously merged
// summary. Only the moments backend implements it.
type Subber interface {
	// Sub removes a previously merged summary (turnstile semantics).
	Sub(other Serving) error
}

// Compactor is implemented by summaries that buffer updates internally and
// flush them lazily on read (the t-digest). Compact flushes the buffer so
// that subsequent Quantile calls are pure reads — a compacted summary that
// is no longer written can serve concurrent readers. Serving layers that
// share summaries across goroutines (the query layer's solve cache) must
// Compact before sharing.
type Compactor interface {
	Compact()
}

// MomentsCarrier is implemented by serving summaries backed by a raw
// moments sketch. Moment-structure code paths (threshold cascades, max-ent
// solves, turnstile range tightening) extract the core sketch through it;
// every other backend simply does not implement the interface.
type MomentsCarrier interface {
	Moments() *core.Sketch
}

// RawMoments extracts the raw moments sketch behind a serving summary, or
// nil when the summary is not moments-backed.
func RawMoments(s Summary) *core.Sketch {
	if c, ok := s.(MomentsCarrier); ok {
		return c.Moments()
	}
	return nil
}

// Backend is a serving-grade summary family: a constructor at a fixed
// size/accuracy parameter plus its codec. The zero value is invalid;
// construct with MomentsBackend, Merge12Backend, TDigestBackend,
// SamplingBackend or ParseBackend.
type Backend struct {
	// Name is the canonical lowercase family name ("moments", "merge12",
	// "tdigest", "sampling").
	Name string
	// Param describes the instantiated size parameter, e.g. "k=10".
	Param string
	// New creates an empty serving summary.
	New func() Serving

	// param is the numeric value behind Param (moments/merge12 k, t-digest
	// compression, sampling reservoir size). The codec enforces it on every
	// decoded payload, so a hostile record cannot smuggle in a parameter —
	// and an allocation — the backend was not configured for.
	param int
	// tag is the envelope codec tag (see codec.go); 0 on the zero value.
	tag byte
}

// Fingerprint identifies the backend and its parameter, e.g.
// "moments(k=10)". Snapshots and solve-cache keys embed it so summaries
// from differently configured backends can never be confused.
func (b Backend) Fingerprint() string { return b.Name + "(" + b.Param + ")" }

// IsZero reports whether the backend is the invalid zero value.
func (b Backend) IsZero() bool { return b.New == nil }

// HasMoments reports whether the backend serves moments sketches. Every
// capability the serving stack dispatches on follows from that one fact:
// the summary is the paper's vector of additive sums, so it subtracts
// (turnstile pane expiry, sliding windows), answers the threshold cascade
// and the moment-only aggregations, warm-starts max-ent solves, and is
// copied in O(k) (wait-free published reads).
func (b Backend) HasMoments() bool { return b.tag == tagMoments }

// Order returns the moments-sketch order k of a moments backend, and 0 for
// every other family.
func (b Backend) Order() int {
	if !b.HasMoments() {
		return 0
	}
	return b.param
}

// Default parameters, matching the registry defaults in Families.
const (
	DefaultMerge12K     = 32
	DefaultTDigestComp  = 100
	DefaultSamplingSize = 1024
)

// MomentsBackend serves moments sketches of order k — the paper's sketch
// and the only backend with full moment structure (turnstile Sub, threshold
// cascades, warm-started max-ent solves).
func MomentsBackend(k int) Backend {
	if k < 1 || k > core.MaxK {
		panic(fmt.Sprintf("sketch: moments backend order %d outside [1,%d]", k, core.MaxK))
	}
	return Backend{
		Name:  "moments",
		Param: fmt.Sprintf("k=%d", k),
		New:   func() Serving { return NewMSketch(k) },
		param: k,
		tag:   tagMoments,
	}
}

// Merge12Backend serves the low-discrepancy Merge12 summary (Agarwal et
// al.) with buffer parameter k — worst-case rank guarantees in the spirit
// of the KLL/Merge12 line of work, at the cost of turnstile and moment
// structure.
func Merge12Backend(k int) Backend {
	if k < 2 {
		k = 2
	}
	if k%2 == 1 {
		k++ // NewMerge12 rounds odd buffers up; keep the fingerprint honest
	}
	return Backend{
		Name:  "merge12",
		Param: fmt.Sprintf("k=%d", k),
		New:   func() Serving { return NewMerge12(k) },
		param: k,
		tag:   tagMerge12,
	}
}

// TDigestBackend serves Dunning t-digests with the given compression.
func TDigestBackend(compression int) Backend {
	if compression < 10 {
		compression = 10
	}
	return Backend{
		Name:  "tdigest",
		Param: fmt.Sprintf("c=%d", compression),
		New:   func() Serving { return NewTDigest(float64(compression)) },
		param: compression,
		tag:   tagTDigest,
	}
}

// SamplingBackend serves uniform reservoir samples of the given size.
func SamplingBackend(size int) Backend {
	if size < 1 {
		size = 1
	}
	return Backend{
		Name:  "sampling",
		Param: fmt.Sprintf("n=%d", size),
		New:   func() Serving { return NewSampling(size) },
		param: size,
		tag:   tagSampling,
	}
}

// BackendNames lists the parseable backend names.
func BackendNames() []string { return []string{"moments", "merge12", "tdigest", "sampling"} }

// ParseBackend resolves a backend spec of the form "name" or "name:param"
// (e.g. "tdigest", "merge12:64"). The parameter is the family's size knob:
// moments order k, merge12 buffer k, t-digest compression, sampling
// reservoir size. Omitted parameters take the family default.
func ParseBackend(spec string) (Backend, error) {
	name, paramStr, hasParam := strings.Cut(spec, ":")
	name = strings.ToLower(strings.TrimSpace(name))
	param := -1
	if hasParam {
		p, err := strconv.Atoi(strings.TrimSpace(paramStr))
		if err != nil || p < 1 {
			return Backend{}, fmt.Errorf("sketch: backend parameter %q must be a positive integer", paramStr)
		}
		param = p
	}
	pick := func(def int) int {
		if param > 0 {
			return param
		}
		return def
	}
	switch name {
	case "moments", "msketch":
		k := pick(core.DefaultK)
		if k > core.MaxK {
			return Backend{}, fmt.Errorf("sketch: moments order %d outside [1,%d]", k, core.MaxK)
		}
		return MomentsBackend(k), nil
	case "merge12":
		return Merge12Backend(pick(DefaultMerge12K)), nil
	case "tdigest", "t-digest":
		return TDigestBackend(pick(DefaultTDigestComp)), nil
	case "sampling":
		return SamplingBackend(pick(DefaultSamplingSize)), nil
	}
	return Backend{}, fmt.Errorf("sketch: unknown backend %q (have %s)", name, strings.Join(BackendNames(), ", "))
}

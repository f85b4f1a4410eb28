package query

import (
	"context"
	"runtime"

	"repro/internal/cascade"
	"repro/internal/encoding"
	"repro/internal/sketch"
)

// Scatter-gather support: the node side resolves selections into marshaled
// partial aggregates (Engine.ResolvePartials), and the coordinator side
// re-evaluates aggregations over merged partials without a local store
// (Evaluator). Both reuse the engine's planning and evaluation machinery,
// so a distributed answer is computed by exactly the code that answers
// single-node queries.

// PartialsRequest is the JSON body of POST /v1/partials: the deduplicated
// selections a scatter-gather coordinator fans out to one shard node.
type PartialsRequest struct {
	Selections []Selection `json:"selections"`
}

// PartialSet is one selection's outcome on one node: an error envelope, or
// the node's partial groups, already in the partials frame's group type —
// the metadata a coordinator aligns across nodes plus the merged summary in
// the serving backend's own codec. The paper's O(k) mergeability is what
// makes that a small vector instead of raw data.
type PartialSet struct {
	Groups []encoding.PartialGroup
	Err    *Error
}

// ResolvePartials materializes each selection's rollups from the local
// store and marshals them in the serving backend's codec, for shipping to a
// scatter-gather coordinator. Failures are isolated per selection — a
// not_found on this shard is an ordinary outcome the coordinator interprets
// against the other shards' answers.
func (e *Engine) ResolvePartials(ctx context.Context, sels []Selection) []PartialSet {
	out := make([]PartialSet, len(sels))
	for i := range sels {
		out[i].Groups, out[i].Err = e.resolvePartial(ctx, &sels[i])
	}
	return out
}

func (e *Engine) resolvePartial(ctx context.Context, sel *Selection) ([]encoding.PartialGroup, *Error) {
	if err := sel.validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, ctxError(err)
	}
	groups, err := e.resolveSelection(ctx, sel)
	if err != nil {
		return nil, err
	}
	parts := make([]encoding.PartialGroup, len(groups))
	for i, g := range groups {
		payload, err := e.marshalGroup(g)
		if err != nil {
			return nil, err
		}
		parts[i] = encoding.PartialGroup{Label: g.label, Keys: uint64(g.keys), Payload: payload}
		if w := g.window; w != nil {
			parts[i].HasWindow = true
			parts[i].WindowStart = w.StartUnix
			parts[i].WindowEnd = w.EndUnix
			parts[i].WindowPanes = uint64(w.Panes)
		}
	}
	return parts, nil
}

// marshalGroup serializes one resolved rollup in the serving backend's
// codec. Moments-backed groups marshal the raw sketch view directly — a pure
// read; other backends clone first because their codecs may compact in
// place.
func (e *Engine) marshalGroup(g *group) ([]byte, *Error) {
	if g.sk != nil {
		return encoding.Marshal(g.sk), nil
	}
	data, err := e.backend.Marshal(g.sum.Clone())
	if err != nil {
		return nil, Errorf(CodeBackendUnsupported, "marshaling %q partial: %v", e.backend.Name, err)
	}
	return data, nil
}

// Evaluator answers aggregations over externally merged rollups — the
// coordinator side of scatter-gather serving. It is an Engine without a
// store or a solve cache: the same scheduler, solver, threshold cascade,
// degradation policy and memoized max-ent solves, applied to summaries
// merged from shard partials instead of resolved locally. Safe for
// concurrent use.
type Evaluator struct {
	e Engine
}

// NewEvaluator wires an Evaluator for the given serving backend, with the
// worker bound a shard node's engine runs. The backend must match the
// shard nodes' configuration — the fingerprint travels in the partials
// frame so mismatches are caught on decode.
func NewEvaluator(backend sketch.Backend) *Evaluator {
	return &Evaluator{e: Engine{backend: backend, workers: runtime.GOMAXPROCS(0)}}
}

// Backend returns the serving backend the evaluator answers from.
func (ev *Evaluator) Backend() sketch.Backend { return ev.e.backend }

// CascadeStats returns the threshold-cascade counters accumulated by
// evaluations on this evaluator.
func (ev *Evaluator) CascadeStats() cascade.Stats { return ev.e.CascadeStats() }

// MergedGroup is one rollup the coordinator assembled by merging shard
// partials: the aligned group metadata plus the merged serving summary.
type MergedGroup struct {
	Label  string
	Window *WindowRange
	Keys   int
	Sum    sketch.Serving
}

// Execute answers a planned request (Plan's tasks and results) over
// rollups the caller gathers, on the scheduler Engine.Execute runs: each
// gather(i) is one unit, and each rollup it returns evaluates as its own
// unit. gather returns task i's merged groups in result order — window
// positions oldest first, so each solve warm-starts from its neighbour's θ
// exactly as on a single node — and an error envelope that lands on every
// subquery of the task; when groups come back too (a partial_result), they
// are evaluated and carry it alongside.
func (ev *Evaluator) Execute(ctx context.Context, req *Request, tasks []*Task, results []Result, gather func(i int) ([]MergedGroup, *Error)) {
	ev.e.run(ctx, req, tasks, results, func(i int) ([]*group, *Error) {
		merged, err := gather(i)
		return ev.prepare(merged), err
	})
}

// prepare stages merged rollups for evaluation, chaining consecutive
// window positions for warm starts.
func (ev *Evaluator) prepare(merged []MergedGroup) []*group {
	groups := make([]*group, len(merged))
	var prev *group
	for i := range merged {
		mg := &merged[i]
		g := newGroup(mg.Sum, mg.Keys)
		g.label = mg.Label
		g.window = mg.Window
		if mg.Window != nil && ev.e.backend.HasMoments() && prev != nil && prev.window != nil {
			g.prev = prev
		}
		groups[i] = g
		prev = g
	}
	return groups
}

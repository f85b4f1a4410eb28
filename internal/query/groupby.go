package query

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/shard"
	"repro/internal/sketch"
)

// groupBySegment rolls the matched summaries up by one separator-delimited
// key segment: one group per distinct segment value at level, keys with
// fewer segments grouping under "". matches are sorted, independent clones
// (MatchContext), so a label's first clone becomes its accumulator and the
// later ones merge into it in key order. Each group's Keys counts the
// matched keys folded into it, and groups come back in ascending byte
// order of their label — the order a coordinator's partial merge restores
// too. The fold is summary-agnostic, so the same path serves every backend.
func (e *Engine) groupBySegment(matches []shard.Keyed, level int) ([]*group, *Error) {
	type acc struct {
		sum  sketch.Serving
		keys int
	}
	byLabel := make(map[string]*acc)
	depth := 0
	for _, m := range matches {
		segs := strings.Split(m.Key, e.sep)
		depth = max(depth, len(segs))
		label := ""
		if level < len(segs) {
			label = segs[level]
		}
		a, ok := byLabel[label]
		if !ok {
			a = &acc{sum: m.Summary}
			byLabel[label] = a
		} else if err := a.sum.Merge(m.Summary); err != nil {
			return nil, mergeError(fmt.Sprintf("merging group %q", label), err)
		}
		a.keys++
	}
	if level >= depth {
		return nil, Errorf(CodeInvalid, "group_by must be a key-segment index in [0,%d)", depth)
	}
	out := make([]*group, 0, len(byLabel))
	for label, a := range byLabel {
		g := newGroup(a.sum, a.keys)
		g.label = label
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].label < out[j].label })
	return out, nil
}

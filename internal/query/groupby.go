package query

import (
	"context"
	"fmt"
	"strings"
)

// resolvePrefix rolls up the keys under prefix: into one group, or with
// groupBy into one group per distinct value of that separator-delimited key
// segment (0-based), keys with fewer segments grouping under "". The fold
// is the store's (shard.Store.MergeGroups): each group's keys merge from an
// empty summary in the store's fold order, so a group covering exactly a
// prefix's keys answers with that prefix's bits, and groups come back in
// ascending byte order of their label — the order a coordinator's partial
// merge restores too. What stays here is the label and the level check.
// Each group's Keys counts the keys folded into it; the fold is
// summary-agnostic, so the same path serves every backend.
func (e *Engine) resolvePrefix(ctx context.Context, prefix string, groupBy *int) ([]*group, *Error) {
	// depth is the most segments any key has, tracked only until some key
	// reaches the level: the error below needs it only when none does.
	depth, reached := 0, groupBy == nil
	label := func(key string) string {
		if groupBy == nil {
			return ""
		}
		seg, ok := segment(key, e.sep, *groupBy)
		if !ok && !reached {
			depth = max(depth, strings.Count(key, e.sep)+1)
		}
		reached = reached || ok
		return seg
	}
	groups, err := e.store.MergeGroups(ctx, prefix, label)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctxError(ctx.Err())
		}
		return nil, mergeError(fmt.Sprintf("merging prefix %q", prefix), err)
	}
	if len(groups) == 0 || groupBy == nil && groups[0].Summary.IsEmpty() {
		return nil, Errorf(CodeNotFound, "no keys with prefix %q", prefix)
	}
	if !reached {
		return nil, Errorf(CodeInvalid, "group_by must be a key-segment index in [0,%d)", depth)
	}
	out := make([]*group, len(groups))
	for i, g := range groups {
		out[i] = newGroup(g.Summary, g.Keys)
		out[i].label = g.Label
	}
	return out, nil
}

// segment returns key's level-th sep-delimited segment — what
// strings.Split(key, sep)[level] would be — without splitting. ok is false
// when key has no segment at level.
func segment(key, sep string, level int) (seg string, ok bool) {
	for ; level > 0; level-- {
		i := strings.Index(key, sep)
		if i < 0 {
			return "", false
		}
		key = key[i+len(sep):]
	}
	if i := strings.Index(key, sep); i >= 0 {
		key = key[:i]
	}
	return key, true
}

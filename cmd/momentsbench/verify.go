package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/query"
)

// truth is the exact multiset of values the daemon was sent, per key: the
// generator built every body, so the exact rank of any returned quantile in
// any selection is a lookup.
type truth struct {
	ks   *keyspace
	vals [][]float64 // per key, ascending
	cum  [][]float64 // cum[k][i] = weight of vals[k][:i+1]
	segs [][]string  // per key, its dot-separated segments
}

// sent is a set of bodies with how many times each was acknowledged.
type sent struct {
	bodies []ingestBody
	count  []int // nil: once each
}

func buildTruth(ks *keyspace, parts ...sent) *truth {
	type wv struct{ v, w float64 }
	per := make([][]wv, len(ks.keys))
	for _, p := range parts {
		for i, b := range p.bodies {
			w := 1.0
			if p.count != nil {
				w = float64(p.count[i])
			}
			if w == 0 {
				continue
			}
			for _, o := range b.obs {
				per[o.key] = append(per[o.key], wv{o.val, w})
			}
		}
	}
	t := &truth{ks: ks, vals: make([][]float64, len(per)), cum: make([][]float64, len(per)), segs: make([][]string, len(per))}
	for k, xs := range per {
		sort.Slice(xs, func(i, j int) bool { return xs[i].v < xs[j].v })
		vals, cum := make([]float64, len(xs)), make([]float64, len(xs))
		total := 0.0
		for i, x := range xs {
			total += x.w
			vals[i], cum[i] = x.v, total
		}
		t.vals[k], t.cum[k] = vals, cum
		t.segs[k] = strings.Split(ks.keys[k], ".")
	}
	return t
}

// observations is the total weight the truth holds.
func (t *truth) observations() int {
	n := 0.0
	for _, c := range t.cum {
		if len(c) > 0 {
			n += c[len(c)-1]
		}
	}
	return int(n)
}

// rank returns the exact share of the keys' values that are ≤ x, and the
// total weight.
func (t *truth) rank(keys []int, x float64) (float64, float64) {
	le, total := 0.0, 0.0
	for _, k := range keys {
		v := t.vals[k]
		if len(v) == 0 {
			continue
		}
		total += t.cum[k][len(v)-1]
		if i := sort.SearchFloat64s(v, math.Nextafter(x, math.Inf(1))); i > 0 {
			le += t.cum[k][i-1]
		}
	}
	if total == 0 {
		return math.NaN(), 0
	}
	return le / total, total
}

// groups resolves a subquery's selection to its result groups: label →
// keys holding data. Plain selections have the single label "".
func (t *truth) groups(s subquerySpec) map[string][]int {
	out := map[string][]int{}
	lo, hi := t.ks.prefixRange(s.sel)
	if s.kind == selKey {
		i := sort.SearchStrings(t.ks.keys, s.sel)
		lo, hi = i, i
		if i < len(t.ks.keys) && t.ks.keys[i] == s.sel {
			hi = i + 1
		}
	}
	for k := lo; k < hi; k++ {
		if len(t.vals[k]) == 0 {
			continue
		}
		label := ""
		if s.kind == selGroupBy {
			label = t.segs[k][s.groupBy]
		}
		out[label] = append(out[label], k)
	}
	return out
}

// thresholdMargin is how far, in rank, the tested value must sit from the
// tested quantile before a disagreeing threshold answer counts as wrong;
// inside the margin the max-ent estimate is allowed its error.
const thresholdMargin = 0.05

// accuracy accumulates the answer checks of one run.
type accuracy struct {
	subqueries   int // attempted; a /v1/windows scan counts as one
	scans        int
	failed       int // error, partial_result, missing or malformed
	rankErrSum   [len(datasetNames)]float64
	rankErrN     [len(datasetNames)]int
	thresholds   int
	wrongAbove   int
	degraded     int
	aggregations int
	respBytes    int
	firstFailure string
}

// fail counts n subqueries as failed and keeps the first reason.
func (a *accuracy) fail(n int, format string, args ...any) {
	a.failed += n
	if a.firstFailure == "" {
		a.firstFailure = fmt.Sprintf(format, args...)
	}
}

// rankErr is the mean |F_exact(q̂) − φ| over every checked quantile.
func (a *accuracy) rankErr() float64 {
	sum, n := 0.0, 0
	for d := range a.rankErrSum {
		sum += a.rankErrSum[d]
		n += a.rankErrN[d]
	}
	return sum / float64(n)
}

func (a *accuracy) datasetRankErr(d int) float64 {
	if a.rankErrN[d] == 0 {
		return 0
	}
	return a.rankErrSum[d] / float64(a.rankErrN[d])
}

// checkQuery verifies one /v1/query answer against the truth: every
// subquery answered without error, group sets as expected, and each
// returned quantile's exact rank error recorded. Windowed subqueries are
// checked for shape only — their contents depend on the server's clock.
func (a *accuracy) checkQuery(t *truth, q queryRequest, status int, body []byte) {
	a.subqueries += len(q.subs)
	a.respBytes += len(body)
	if status != 200 {
		a.fail(len(q.subs), "%s answered %d: %.200s", q.path, status, body)
		return
	}
	var resp query.Response
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Results) != len(q.subs) {
		a.fail(len(q.subs), "%s answer malformed (%v): %.200s", q.path, err, body)
		return
	}
	for i, s := range q.subs {
		a.checkResult(t, s, &resp.Results[i])
	}
}

func (a *accuracy) checkResult(t *truth, s subquerySpec, r *query.Result) {
	if r.Error != nil {
		a.fail(1, "subquery %v: %v", s, r.Error)
		return
	}
	if s.kind.windowed() {
		if len(r.Groups) != 1 || len(r.Groups[0].Aggregations) != 1 || r.Groups[0].Aggregations[0].Threshold == nil {
			a.fail(1, "window subquery %v: malformed groups", s)
		}
		a.countAggs(r)
		return
	}
	want := t.groups(s)
	if len(r.Groups) != len(want) {
		a.fail(1, "subquery %v: %d groups, want %d", s, len(r.Groups), len(want))
		return
	}
	ds := t.ks.dataset(s.sel)
	for gi := range r.Groups {
		g := &r.Groups[gi]
		keys, ok := want[g.Group]
		if !ok || g.Keys != len(keys) {
			a.fail(1, "subquery %v: group %q over %d keys, want %d", s, g.Group, g.Keys, len(keys))
			return
		}
		for _, ag := range g.Aggregations {
			if ag.Error != nil {
				a.fail(1, "subquery %v: aggregation %s: %v", s, ag.Op, ag.Error)
				return
			}
			for _, qp := range ag.Quantiles {
				f, _ := t.rank(keys, qp.Value)
				a.rankErrSum[ds] += math.Abs(f - qp.Q)
				a.rankErrN[ds]++
			}
			if th := ag.Threshold; th != nil {
				a.thresholds++
				f, _ := t.rank(keys, th.T)
				// q_φ > T exactly when less than φ of the data is ≤ T.
				if math.Abs(f-th.Phi) > thresholdMargin && th.Above != (f < th.Phi) {
					a.wrongAbove++
				}
			}
		}
	}
	a.countAggs(r)
}

func (a *accuracy) countAggs(r *query.Result) {
	for _, g := range r.Groups {
		for _, ag := range g.Aggregations {
			a.aggregations++
			if ag.Degraded {
				a.degraded++
			}
		}
	}
}

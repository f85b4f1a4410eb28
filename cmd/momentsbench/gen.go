package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/query"
)

// The generator: every input the daemon ever sees — keys, values, request
// bodies, the send schedule — is built here from the seed before timing
// starts. Each purpose draws from its own PCG stream so adding a draw to
// one never shifts another.

// obsPerBody is the observation count of every /ingest body.
const obsPerBody = 1000

// zipfS is the exponent of the key popularity distribution.
const zipfS = 1.1

// datasets are the value distributions, assigned per service, so any rollup
// inside one service is one dataset and the exact quantiles of any selection
// are known to the generator. The issue asked for Milan as the third, but a
// max-ent solve over a few hundred to a few thousand Milan values costs
// 20–300 ms one time in ten (0.2–0.5 ms, always, for these three): with two
// connections, everything queued behind such a solve measures only it.
// Milan's solves are timed on their own in the replay
// (maxent.solve_milan_us).
var datasets = []dataset.Spec{dataset.Power(), dataset.Hepmass(), dataset.Exponential()}

var datasetNames = [...]string{"power", "hepmass", "exponential", "mixed"}

const mixedDataset = len(datasetNames) - 1

func serviceDataset(svc int) uint8 { return uint8(svc % len(datasets)) }

const thresholdPhi = 0.99

// thresholds are, per dataset, the values that threshold aggregations test
// the 0.99-quantile against: the dataset's median (the cheap bounds decide
// "above"), its 0.9995-quantile (they decide "below") and its 0.99-quantile
// (only the max-ent solve can tell). They are read off a fixed sample, not
// off the seed: the questions asked do not depend on the run.
var thresholds = func() [][]float64 {
	const n = 60000
	r := stream(0, 0)
	out := make([][]float64, len(datasetNames))
	var all []float64
	for d, spec := range datasets {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = spec.Gen(r)
		}
		all = append(all, xs...)
		sort.Float64s(xs)
		out[d] = []float64{percentile(xs, 50), percentile(xs, 99.95), percentile(xs, 99)}
	}
	sort.Float64s(all)
	out[mixedDataset] = []float64{percentile(all, 50), percentile(all, 99.95), percentile(all, 99)}
	return out
}()

// keyspace is a sorted set of dot-separated key paths; sortedness makes
// every string prefix a contiguous index range.
type keyspace struct {
	keys []string
	ds   []uint8 // dataset index per key
}

// newKeyspace builds root+"svcNN.rX.azY.hZZ" paths. Fixed-width segments
// make generation order the lexicographic order.
func newKeyspace(root string, svcs, regions, azs, hosts int) *keyspace {
	ks := &keyspace{}
	for s := 0; s < svcs; s++ {
		for r := 0; r < regions; r++ {
			for a := 0; a < azs; a++ {
				for h := 0; h < hosts; h++ {
					ks.keys = append(ks.keys, fmt.Sprintf("%ssvc%02d.r%d.az%d.h%02d", root, s, r, a, h))
					ks.ds = append(ks.ds, serviceDataset(s))
				}
			}
		}
	}
	return ks
}

// prefixRange returns the index range [lo, hi) of keys with the prefix.
func (ks *keyspace) prefixRange(prefix string) (int, int) {
	lo := sort.SearchStrings(ks.keys, prefix)
	hi := lo + sort.Search(len(ks.keys)-lo, func(i int) bool {
		return !strings.HasPrefix(ks.keys[lo+i], prefix)
	})
	return lo, hi
}

// dataset names the dataset a key or prefix covers, or mixedDataset when it
// spans services of different datasets (or selects nothing).
func (ks *keyspace) dataset(sel string) int {
	lo, hi := ks.prefixRange(sel)
	if lo == hi {
		return mixedDataset
	}
	for _, d := range ks.ds[lo:hi] {
		if d != ks.ds[lo] {
			return mixedDataset
		}
	}
	return int(ks.ds[lo])
}

// join concatenates keyspaces whose roots sort in the given order.
func join(parts ...*keyspace) *keyspace {
	out := &keyspace{}
	for _, p := range parts {
		out.keys = append(out.keys, p.keys...)
		out.ds = append(out.ds, p.ds...)
	}
	if !sort.StringsAreSorted(out.keys) {
		panic("join: keyspaces out of order")
	}
	return out
}

// obs is one generated observation: a key index into its keyspace and a
// value.
type obs struct {
	key int32
	val float64
}

// ingestBody is one pre-built /ingest request.
type ingestBody struct {
	obs  []obs
	data []byte // NDJSON
}

// buildBody encodes observations as NDJSON. A non-zero ts (unix seconds)
// stamps every line, the shape of one scraper batch.
func buildBody(ks *keyspace, o []obs, ts float64) ingestBody {
	b := make([]byte, 0, len(o)*56)
	for _, x := range o {
		b = append(b, `{"key":"`...)
		b = append(b, ks.keys[x.key]...)
		b = append(b, `","value":`...)
		b = strconv.AppendFloat(b, x.val, 'g', -1, 64)
		if ts != 0 {
			b = append(b, `,"ts":`...)
			b = strconv.AppendFloat(b, ts, 'f', 3, 64)
		}
		b = append(b, "}\n"...)
	}
	return ingestBody{obs: o, data: b}
}

// stream returns the seed's independent random stream for one purpose.
func stream(seed uint64, purpose uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, purpose))
}

const (
	streamKeys = iota + 1
	streamValues
	streamQueries
	streamSchedule
	streamLiveKeys
	streamLiveValues
)

// zipfBodies draws n bodies of Zipf(1.1)-distributed keys from ks.keys
// [lo, hi): rank r of a seeded permutation of the range is drawn with weight
// (1+r)^-1.1.
func zipfBodies(ks *keyspace, lo, hi int, seed, keyStream, valStream uint64, n int) []ingestBody {
	kr, vr := stream(seed, keyStream), stream(seed, valStream)
	perm := kr.Perm(hi - lo)
	// rand/v2 has no Zipf; invert the CDF over the finite rank range.
	cdf := make([]float64, len(perm))
	sum := 0.0
	for r := range cdf {
		sum += math.Pow(float64(r+1), -zipfS)
		cdf[r] = sum
	}
	bodies := make([]ingestBody, n)
	for i := range bodies {
		o := make([]obs, obsPerBody)
		for j := range o {
			r := min(sort.SearchFloat64s(cdf, kr.Float64()*sum), len(perm)-1)
			k := lo + perm[r]
			o[j] = obs{key: int32(k), val: datasets[ks.ds[k]].Gen(vr)}
		}
		bodies[i] = buildBody(ks, o, 0)
	}
	return bodies
}

// stamp re-encodes bodies with timestamps: body i carries the instant it is
// due, t0+due[i].
func stamp(ks *keyspace, bodies []ingestBody, t0 time.Time, due []time.Duration) {
	for i := range bodies {
		ts := float64(t0.Add(due[i]).UnixMilli()) / 1000
		bodies[i] = buildBody(ks, bodies[i].obs, ts)
	}
}

// uniformBodies gives every key exactly perKey observations, in bodies of
// obsPerBody covering consecutive keys — the preload, where every key
// must hold enough data for a max-ent fit.
func uniformBodies(ks *keyspace, lo, hi int, seed uint64, perKey int) []ingestBody {
	vr := stream(seed, streamValues)
	all := make([]obs, 0, (hi-lo)*perKey)
	for k := lo; k < hi; k++ {
		for j := 0; j < perKey; j++ {
			all = append(all, obs{key: int32(k), val: datasets[ks.ds[k]].Gen(vr)})
		}
	}
	var bodies []ingestBody
	for len(all) > 0 {
		n := min(obsPerBody, len(all))
		bodies = append(bodies, buildBody(ks, all[:n], 0))
		all = all[n:]
	}
	return bodies
}

// selKind classifies a subquery's selection.
type selKind uint8

const (
	selKey selKind = iota
	selPrefix
	selGroupBy
	selWindowKey    // trailing-window threshold over one key
	selWindowPrefix // trailing-window threshold over a prefix rollup
)

func (k selKind) windowed() bool { return k >= selWindowKey }

// subquerySpec is what the generator remembers about one subquery so the
// answer can be checked: which keys it covers and what it asked.
type subquerySpec struct {
	kind    selKind
	sel     string // key or prefix
	groupBy int
	t       float64 // threshold value
}

// queryRequest is one pre-built /v1/query or /v1/windows request.
type queryRequest struct {
	path string
	subs []subquerySpec // empty for /v1/windows
	req  *query.Request // nil for /v1/windows
	scan *subquerySpec  // the scanned rollup, /v1/windows only
	data []byte
}

// trailingPanes is the width of every windowed selection and scan.
const trailingPanes = 10

func (s subquerySpec) subquery(id int) query.Subquery {
	sq := query.Subquery{ID: strconv.Itoa(id)}
	if s.kind == selKey || s.kind == selWindowKey {
		sq.Select.Key = s.sel
	} else {
		sq.Select.Prefix = &s.sel
	}
	phi, t := thresholdPhi, s.t
	threshold := query.Aggregation{Op: query.OpThreshold, T: &t, Phi: &phi}
	switch {
	case s.kind.windowed():
		sq.Select.Window = &query.WindowSpec{Last: trailingPanes}
		sq.Aggregations = []query.Aggregation{threshold}
		return sq
	case s.kind == selGroupBy:
		sq.Select.GroupBy = &s.groupBy
	}
	sq.Aggregations = []query.Aggregation{{Op: query.OpQuantiles, Phis: []float64{0.5, 0.9, 0.99}}, threshold}
	return sq
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and finite floats
	}
	return data
}

func buildQuery(subs []subquerySpec) queryRequest {
	req := &query.Request{}
	for i, s := range subs {
		req.Queries = append(req.Queries, s.subquery(i))
	}
	return queryRequest{path: "/v1/query", subs: subs, req: req, data: mustJSON(req)}
}

// buildScan is a /v1/windows alert scan over a prefix rollup.
func buildScan(prefix string, t float64) queryRequest {
	return queryRequest{
		path: "/v1/windows",
		scan: &subquerySpec{kind: selWindowPrefix, sel: prefix, t: t},
		data: mustJSON(map[string]any{"prefix": prefix, "width": trailingPanes, "t": t, "phi": thresholdPhi}),
	}
}

// cycler hands out the elements of a seeded permutation in order, wrapping
// around: cyclic access over a working set larger than an LRU cache misses
// on every lookup, and over one that fits hits on every lookup after the
// first lap.
type cycler struct {
	ks    *keyspace
	r     *rand.Rand
	items []subquerySpec
	next  int
}

func newCycler(r *rand.Rand, ks *keyspace, items []subquerySpec) *cycler {
	r.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return &cycler{ks: ks, r: r, items: items}
}

// take returns the next selection with one of its dataset's thresholds.
func (c *cycler) take() subquerySpec {
	s := c.items[c.next%len(c.items)]
	c.next++
	ts := thresholds[c.ks.dataset(s.sel)]
	s.t = ts[c.r.IntN(len(ts))]
	return s
}

// selections enumerates the distinct selections over the keys under root
// (a prefix ending in "." or empty), by class.
type selections struct {
	keys, prefix3, groupBy, groupBy2, wide []subquerySpec
}

func (ks *keyspace) selections(root string) selections {
	var out selections
	depth := strings.Count(root, ".")
	seen := map[string]bool{}
	lo, hi := ks.prefixRange(root)
	for _, k := range ks.keys[lo:hi] {
		out.keys = append(out.keys, subquerySpec{kind: selKey, sel: k})
		seg := strings.Split(k, ".")
		if three := strings.Join(seg[:depth+3], ".") + "."; !seen[three] {
			seen[three] = true
			out.prefix3 = append(out.prefix3, subquerySpec{kind: selPrefix, sel: three})
		}
		if two := strings.Join(seg[:depth+2], "."); !seen[two] {
			seen[two] = true
			// Four spellings of one service-region, grouped by az.
			for _, p := range []string{two, two + ".", two + ".a", two + ".az"} {
				out.groupBy2 = append(out.groupBy2, subquerySpec{kind: selGroupBy, sel: p, groupBy: depth + 2})
			}
		}
		if one := strings.Join(seg[:depth+1], "."); !seen[one] {
			seen[one] = true
			// "svcNN", "svcNN." and "svcNN.r" select the same keys under
			// different cache entries; group by region or az (by host
			// would be twenty solves per subquery).
			for _, p := range []string{one, one + ".", one + ".r"} {
				for g := 1; g <= 2; g++ {
					out.groupBy = append(out.groupBy, subquerySpec{kind: selGroupBy, sel: p, groupBy: depth + g})
				}
			}
		}
	}
	// The string prefixes of root+"svc" select every key under root, and
	// "svc0", "svc1", "svc2" about a third each. Distinct strings are
	// distinct cache entries, so cycling them keeps the big rollups out of
	// the solve cache as long as enough other entries pass in between.
	for i := len(root); i <= len(root)+len("svc"); i++ {
		out.wide = append(out.wide, subquerySpec{kind: selPrefix, sel: (root + "svc")[:i]})
	}
	for _, d := range "012" {
		out.wide = append(out.wide, subquerySpec{kind: selPrefix, sel: root + "svc" + string(d)})
	}
	return out
}

// coldQueries builds n four-subquery requests whose selections cycle
// through every distinct selection under root: two keys, one three-segment
// prefix and one wide slot — by turns a one-segment prefix grouped by region
// or az and a two-segment prefix grouped by az, or on every wholeEvery-th
// request a whole-store rollup. The cycles are long enough that, between two
// uses of any selection, several times the solve cache's capacity passes
// through it. keyOK limits key selections (nil = every key).
func coldQueries(ks *keyspace, seed uint64, root string, n, wholeEvery int, keyOK func(key string) bool) []queryRequest {
	r := stream(seed, streamQueries)
	sel := ks.selections(root)
	if keyOK != nil {
		kept := sel.keys[:0]
		for _, s := range sel.keys {
			if keyOK(s.sel) {
				kept = append(kept, s)
			}
		}
		sel.keys = kept
	}
	keys, p3 := newCycler(r, ks, sel.keys), newCycler(r, ks, sel.prefix3)
	gb, gb2, wide := newCycler(r, ks, sel.groupBy), newCycler(r, ks, sel.groupBy2), newCycler(r, ks, sel.wide)
	out := make([]queryRequest, n)
	for i := range out {
		subs := []subquerySpec{keys.take(), keys.take(), p3.take()}
		switch {
		case wholeEvery > 0 && i%wholeEvery == wholeEvery-1:
			subs = append(subs, wide.take())
		case i/2%2 == 0: // by pairs, so both connections see both classes
			subs = append(subs, gb.take())
		default:
			subs = append(subs, gb2.take())
		}
		out[i] = buildQuery(subs)
	}
	return out
}

// schedule returns n due offsets at the given rate: evenly spaced, each
// delayed by a seeded jitter below half an interval.
func schedule(seed uint64, purpose uint64, n int, perSecond float64) []time.Duration {
	r := stream(seed, streamSchedule+purpose<<8)
	gap := float64(time.Second) / perSecond
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration((float64(i) + r.Float64()/2) * gap)
	}
	return due
}

// digestInputs hashes bodies, queries and schedules in order; the unit test
// pins it for seed 17.
func digestInputs(bodies []ingestBody, queries []queryRequest, schedules ...[]time.Duration) string {
	h := sha256.New()
	var n [8]byte
	put := func(b []byte) {
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	for _, b := range bodies {
		put(b.data)
	}
	for _, q := range queries {
		put([]byte(q.path))
		put(q.data)
	}
	for _, s := range schedules {
		for _, d := range s {
			binary.LittleEndian.PutUint64(n[:], uint64(d))
			h.Write(n[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// dumpInputs writes a workload's bodies and send schedule under dir.
func dumpInputs(dir, workload string, bodies []ingestBody, queries []queryRequest, sched map[string][]time.Duration) error {
	dir = filepath.Join(dir, workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, b := range bodies {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("ingest-%05d.ndjson", i)), b.data, 0o644); err != nil {
			return err
		}
	}
	for i, q := range queries {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("query-%05d.json", i)), q.data, 0o644); err != nil {
			return err
		}
	}
	ms := map[string][]float64{}
	for name, s := range sched {
		for _, d := range s {
			ms[name] = append(ms[name], float64(d)/float64(time.Millisecond))
		}
	}
	data, err := json.MarshalIndent(map[string]any{"due_ms": ms, "sha256": digestInputs(bodies, queries)}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "schedule.json"), data, 0o644)
}

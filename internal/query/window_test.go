package query

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/maxent"
	"repro/internal/shard"
)

const windowTestEpoch = 1_700_000_000

// windowedFixture builds a windowed store fed by a manually advanced clock:
// `steps` pane transitions of `perPane` exponential observations per key,
// with a latency spike injected into panes [spikeLo, spikeHi) of every
// *.web key.
func windowedFixture(t *testing.T, paneWidth time.Duration, retention, steps, perPane int) (*Engine, *shard.Store, *time.Time) {
	t.Helper()
	now := time.Unix(windowTestEpoch, 0)
	store := shard.New(
		shard.WithShards(4),
		shard.WithWindow(paneWidth, retention),
		shard.WithClock(func() time.Time { return now }),
	)
	rng := rand.New(rand.NewPCG(41, 43))
	for s := 0; s < steps; s++ {
		if s > 0 {
			now = now.Add(paneWidth) // stay inside the last data pane at the end
		}
		spike := s >= steps-6 && s < steps-3
		for _, key := range []string{"us.web", "us.api", "eu.web"} {
			for i := 0; i < perPane; i++ {
				v := 10 + rng.ExpFloat64()*20
				if spike && key == "us.web" && rng.Float64() < 0.5 {
					v = 500 + rng.ExpFloat64()*50
				}
				store.Add(key, v)
			}
		}
	}
	return NewEngine(store, Config{}), store, &now
}

func windowSubquery(sel Selection, aggs ...Aggregation) *Request {
	if len(aggs) == 0 {
		aggs = []Aggregation{{Op: OpQuantiles, Phis: []float64{0.5, 0.99}}}
	}
	return &Request{Queries: []Subquery{{Select: sel, Aggregations: aggs}}}
}

// Tolerances against the full re-merge oracle. The rollup itself — counts,
// moments — must match to 1e-9 (turnstile Sub/Merge only reassociates the
// same float additions). Solved quantiles sit behind the maximum-entropy
// solver, which amplifies last-ulp moment differences through its own
// convergence tolerance, so they get an estimator-level bound.
const (
	rollupTol   = 1e-9
	quantileTol = 1e-6
)

func relErr(got, want float64) float64 {
	return math.Abs(got-want) / math.Max(1, math.Abs(want))
}

// oracleQuantile estimates phi on a full re-merge of panes[a:b] using the
// same estimator policy as the engine.
func oracleQuantile(t *testing.T, panes []*core.Sketch, a, b int, phi float64) float64 {
	t.Helper()
	sk := core.New(panes[0].K)
	for _, p := range panes[a:b] {
		if err := sk.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	sol, err := maxent.SolveSketch(sk, maxent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := sol.Quantile(phi)
	return q
}

// rawPanes extracts the moments view of a pane series (test helper).
func rawPanes(t *testing.T, ps *shard.PaneSeries) []*core.Sketch {
	t.Helper()
	raws, ok := ps.MomentsPanes()
	if !ok {
		t.Fatal("pane series is not moments-backed")
	}
	return raws
}

func execOne(t *testing.T, e *Engine, req *Request) Result {
	t.Helper()
	resp, qerr := e.Execute(context.Background(), req)
	if qerr != nil {
		t.Fatalf("request error: %v", qerr)
	}
	return resp.Results[0]
}

func TestWindowValidation(t *testing.T) {
	prefix := ""
	one := 1
	lo, hi := 5.0, 10.0
	cases := []struct {
		name string
		sel  Selection
	}{
		{"window+group_by", Selection{Prefix: &prefix, GroupBy: &one, Window: &WindowSpec{Last: 2}}},
		{"negative last", Selection{Key: "k", Window: &WindowSpec{Last: -1}}},
		{"negative step", Selection{Key: "k", Window: &WindowSpec{Last: 2, Step: -1}}},
		{"step without last", Selection{Key: "k", Window: &WindowSpec{Step: 2}}},
		{"half range", Selection{Key: "k", Window: &WindowSpec{StartUnix: &lo}}},
		{"inverted range", Selection{Key: "k", Window: &WindowSpec{StartUnix: &hi, EndUnix: &lo}}},
	}
	e, _, _ := windowedFixture(t, time.Second, 4, 2, 5)
	for _, tc := range cases {
		res := execOne(t, e, windowSubquery(tc.sel))
		if res.Error == nil || res.Error.Code != CodeInvalid {
			t.Errorf("%s: error = %v, want %s", tc.name, res.Error, CodeInvalid)
		}
	}
}

func TestWindowOnTimelessStore(t *testing.T) {
	store := shard.New(shard.WithShards(2))
	store.Add("k", 1)
	e := NewEngine(store, Config{})
	for _, sel := range []Selection{
		{Key: "k", Window: &WindowSpec{Last: 2}},
		{Key: "k", Window: &WindowSpec{}},
	} {
		res := execOne(t, e, windowSubquery(sel))
		if res.Error == nil || res.Error.Code != CodeInvalid {
			t.Errorf("window on timeless store: error = %v, want %s", res.Error, CodeInvalid)
		}
	}
}

func TestWindowNotFound(t *testing.T) {
	e, _, _ := windowedFixture(t, time.Second, 8, 4, 10)
	res := execOne(t, e, windowSubquery(Selection{Key: "absent", Window: &WindowSpec{Last: 2}}))
	if res.Error == nil || res.Error.Code != CodeNotFound {
		t.Errorf("missing key: error = %v, want %s", res.Error, CodeNotFound)
	}
	res = execOne(t, e, windowSubquery(Selection{Key: "absent", Window: &WindowSpec{}}))
	if res.Error == nil || res.Error.Code != CodeNotFound {
		t.Errorf("missing key via retained path: error = %v, want %s", res.Error, CodeNotFound)
	}
}

func TestWindowTrailingMatchesOracle(t *testing.T) {
	e, store, _ := windowedFixture(t, time.Second, 16, 16, 80)
	ps, err := store.Panes("us.web")
	if err != nil {
		t.Fatal(err)
	}
	for _, last := range []int{1, 4, 16, 100} {
		res := execOne(t, e, windowSubquery(Selection{Key: "us.web", Window: &WindowSpec{Last: last}}))
		if res.Error != nil {
			t.Fatalf("last=%d: %v", last, res.Error)
		}
		if len(res.Groups) != 1 {
			t.Fatalf("last=%d: %d groups, want 1", last, len(res.Groups))
		}
		g := res.Groups[0]
		width := min(last, len(ps.Panes))
		want := oracleQuantile(t, rawPanes(t, ps), len(ps.Panes)-width, len(ps.Panes), 0.99)
		got := g.Aggregations[0].Quantiles[1].Value
		if d := relErr(got, want); d > quantileTol {
			t.Errorf("last=%d: p99 = %v, oracle %v (rel diff %g)", last, got, want, d)
		}
		if g.Window == nil || g.Window.Panes != width {
			t.Errorf("last=%d: window meta %+v, want %d panes", last, g.Window, width)
		}
	}
}

func TestWindowRetainedFastPathMatchesOracle(t *testing.T) {
	e, store, _ := windowedFixture(t, time.Second, 8, 20, 60)
	// Whole-ring window (no last, no range): served from the rolling
	// turnstile-maintained retained sketch — pin it to a full re-merge of
	// the pane series after 20 transitions (12 turnstile expiries).
	for _, sel := range []Selection{
		{Key: "us.web", Window: &WindowSpec{}},
		{Prefix: ptr("us."), Window: &WindowSpec{}},
	} {
		res := execOne(t, e, windowSubquery(sel))
		if res.Error != nil {
			t.Fatal(res.Error)
		}
		var ps *shard.PaneSeries
		var err error
		if sel.Key != "" {
			ps, err = store.Panes(sel.Key)
		} else {
			ps, err = store.PanesPrefix(context.Background(), *sel.Prefix)
		}
		if err != nil {
			t.Fatal(err)
		}
		want := oracleQuantile(t, rawPanes(t, ps), 0, len(ps.Panes), 0.99)
		got := res.Groups[0].Aggregations[0].Quantiles[1].Value
		if d := relErr(got, want); d > quantileTol {
			t.Errorf("retained fast path p99 = %v, oracle %v (rel diff %g)", got, want, d)
		}
		if res.Groups[0].Window == nil || res.Groups[0].Window.Panes != 8 {
			t.Errorf("retained window meta = %+v, want whole 8-pane ring", res.Groups[0].Window)
		}
		if res.Groups[0].Keys != ps.Keys {
			t.Errorf("keys = %d, want %d", res.Groups[0].Keys, ps.Keys)
		}
	}
}

func TestWindowSlidingMatchesOracle(t *testing.T) {
	e, store, _ := windowedFixture(t, time.Second, 32, 32, 60)
	for _, tc := range []struct{ width, step int }{{4, 1}, {8, 2}, {6, 6}, {5, 9}} {
		sel := Selection{Prefix: ptr("us."), Window: &WindowSpec{Last: tc.width, Step: tc.step}}
		res := execOne(t, e, windowSubquery(sel,
			Aggregation{Op: OpStats},
			Aggregation{Op: OpQuantiles, Phis: []float64{0.5, 0.99}},
		))
		if res.Error != nil {
			t.Fatalf("width=%d step=%d: %v", tc.width, tc.step, res.Error)
		}
		ps, err := store.PanesPrefix(context.Background(), "us.")
		if err != nil {
			t.Fatal(err)
		}
		wantPositions := (len(ps.Panes)-tc.width)/tc.step + 1
		if len(res.Groups) != wantPositions {
			t.Fatalf("width=%d step=%d: %d groups, want %d", tc.width, tc.step, len(res.Groups), wantPositions)
		}
		raws := rawPanes(t, ps)
		for gi, g := range res.Groups {
			a := gi * tc.step
			oracle := core.New(raws[0].K)
			for _, p := range raws[a : a+tc.width] {
				if err := oracle.Merge(p); err != nil {
					t.Fatal(err)
				}
			}
			// The rollup itself: count exact, closed-form moments to 1e-9.
			st := g.Aggregations[0].Stats
			if g.Count != oracle.Count || st.Count != oracle.Count {
				t.Fatalf("width=%d step=%d pos=%d: count = %v, oracle %v", tc.width, tc.step, gi, g.Count, oracle.Count)
			}
			if st.Min != oracle.Min || st.Max != oracle.Max {
				t.Errorf("width=%d step=%d pos=%d: range [%v,%v], oracle [%v,%v]",
					tc.width, tc.step, gi, st.Min, st.Max, oracle.Min, oracle.Max)
			}
			if d := relErr(st.Mean, oracle.Mean()); d > rollupTol {
				t.Errorf("width=%d step=%d pos=%d: mean = %v, oracle %v (rel diff %g)",
					tc.width, tc.step, gi, st.Mean, oracle.Mean(), d)
			}
			// The solved estimate on top of it.
			sol, err := maxent.SolveSketch(oracle, maxent.Options{})
			if err != nil {
				t.Fatal(err)
			}
			wantQ := sol.Quantile(0.99)
			got := g.Aggregations[1].Quantiles[1].Value
			if d := relErr(got, wantQ); d > quantileTol {
				t.Errorf("width=%d step=%d pos=%d: p99 = %v, oracle %v (rel diff %g)",
					tc.width, tc.step, gi, got, wantQ, d)
			}
			wantStart := float64(ps.PaneStart(a).UnixNano()) / 1e9
			if g.Window == nil || g.Window.StartUnix != wantStart {
				t.Errorf("width=%d step=%d pos=%d: window %+v, want start %v",
					tc.width, tc.step, gi, g.Window, wantStart)
			}
		}
	}
}

func TestWindowSlidingThresholdMatchesScan(t *testing.T) {
	// The spike sits in the last panes of the fixture; a sliding threshold
	// scan over us.web must flag exactly the windows a per-position
	// re-merge plus the same cascade flags.
	e, store, _ := windowedFixture(t, time.Second, 24, 24, 100)
	thresh := 400.0
	sel := Selection{Key: "us.web", Window: &WindowSpec{Last: 4, Step: 1}}
	res := execOne(t, e, windowSubquery(sel, Aggregation{Op: OpThreshold, T: &thresh, Phi: ptrF(0.95)}))
	if res.Error != nil {
		t.Fatal(res.Error)
	}
	ps, err := store.Panes("us.web")
	if err != nil {
		t.Fatal(err)
	}
	var hot, wantHot []int
	for gi, g := range res.Groups {
		if g.Aggregations[0].Threshold.Above {
			hot = append(hot, gi)
		}
		sk := core.New(rawPanes(t, ps)[0].K)
		for _, p := range rawPanes(t, ps)[gi : gi+4] {
			if err := sk.Merge(p); err != nil {
				t.Fatal(err)
			}
		}
		sol, err := maxent.SolveSketch(sk, maxent.Options{})
		if err != nil {
			t.Fatal(err)
		}
		q := sol.Quantile(0.95)
		if q > thresh {
			wantHot = append(wantHot, gi)
		}
	}
	if len(wantHot) == 0 {
		t.Fatal("vacuous: oracle flags no windows")
	}
	if len(hot) != len(wantHot) {
		t.Fatalf("hot windows %v, oracle %v", hot, wantHot)
	}
	for i := range hot {
		if hot[i] != wantHot[i] {
			t.Fatalf("hot windows %v, oracle %v", hot, wantHot)
		}
	}
}

func TestWindowExplicitRange(t *testing.T) {
	e, store, _ := windowedFixture(t, time.Second, 16, 16, 40)
	ps, err := store.Panes("us.api")
	if err != nil {
		t.Fatal(err)
	}
	// Panes 4..10 of the series, by wall-clock range.
	start := float64(ps.PaneStart(4).Unix())
	end := float64(ps.PaneStart(10).Unix())
	sel := Selection{Key: "us.api", Window: &WindowSpec{StartUnix: &start, EndUnix: &end}}
	res := execOne(t, e, windowSubquery(sel))
	if res.Error != nil {
		t.Fatal(res.Error)
	}
	g := res.Groups[0]
	if g.Window.Panes != 6 || g.Window.StartUnix != start || g.Window.EndUnix != end {
		t.Fatalf("window meta %+v, want [%v,%v) over 6 panes", g.Window, start, end)
	}
	want := oracleQuantile(t, rawPanes(t, ps), 4, 10, 0.99)
	got := g.Aggregations[0].Quantiles[1].Value
	if d := relErr(got, want); d > quantileTol {
		t.Errorf("range window p99 = %v, oracle %v", got, want)
	}

	// A range entirely before the retained ring finds nothing.
	past := float64(windowTestEpoch - 10_000)
	pastEnd := past + 5
	res = execOne(t, e, windowSubquery(Selection{
		Key: "us.api", Window: &WindowSpec{StartUnix: &past, EndUnix: &pastEnd},
	}))
	if res.Error == nil || res.Error.Code != CodeNotFound {
		t.Errorf("out-of-ring range: error = %v, want %s", res.Error, CodeNotFound)
	}
}

func TestWindowTooManyPositions(t *testing.T) {
	now := time.Unix(windowTestEpoch, 0)
	store := shard.New(
		shard.WithShards(2),
		shard.WithWindow(time.Second, 2048),
		shard.WithClock(func() time.Time { return now }),
	)
	store.Add("k", 1)
	e := NewEngine(store, Config{})
	res := execOne(t, e, windowSubquery(Selection{Key: "k", Window: &WindowSpec{Last: 1, Step: 1}}))
	if res.Error == nil || res.Error.Code != CodeTooLarge {
		t.Errorf("2048 positions: error = %v, want %s", res.Error, CodeTooLarge)
	}
}

func TestWindowEmptyPositionsSkipped(t *testing.T) {
	now := time.Unix(windowTestEpoch, 0)
	store := shard.New(
		shard.WithShards(2),
		shard.WithWindow(time.Second, 8),
		shard.WithClock(func() time.Time { return now }),
	)
	// Data only in the newest pane: sliding width-2 windows over the ring
	// yield results only where a pane has data.
	store.Add("k", 5)
	store.Add("k", 7)
	e := NewEngine(store, Config{})
	res := execOne(t, e, windowSubquery(
		Selection{Key: "k", Window: &WindowSpec{Last: 2, Step: 1}},
		Aggregation{Op: OpStats},
	))
	if res.Error != nil {
		t.Fatal(res.Error)
	}
	if len(res.Groups) != 1 {
		t.Fatalf("%d groups, want only the populated position", len(res.Groups))
	}
	if c := res.Groups[0].Count; c != 2 {
		t.Errorf("count = %v, want 2", c)
	}
}

func TestWindowSelectionKeyDedup(t *testing.T) {
	p := ""
	a := Selection{Key: "k", Window: &WindowSpec{Last: 4, Step: 1}}
	b := Selection{Key: "k", Window: &WindowSpec{Last: 4, Step: 1}}
	if selectionKey(&a) != selectionKey(&b) {
		t.Error("identical window selections did not dedup")
	}
	variants := []Selection{
		{Key: "k"},
		{Key: "k", Window: &WindowSpec{}},
		{Key: "k", Window: &WindowSpec{Last: 4}},
		{Key: "k", Window: &WindowSpec{Last: 4, Step: 2}},
		{Key: "k", Window: &WindowSpec{Last: 4, Step: 1, StartUnix: ptrF(1), EndUnix: ptrF(9)}},
		{Prefix: &p, Window: &WindowSpec{Last: 4, Step: 1}},
	}
	seen := map[string]int{}
	for i, v := range variants {
		k := selectionKey(&v)
		if j, dup := seen[k]; dup {
			t.Errorf("selections %d and %d collide: %q", j, i, k)
		}
		seen[k] = i
	}

	// Keys are arbitrary bytes: one that embeds the window discriminator
	// must not collide with the windowed selection of the plain key.
	evil := Selection{Key: "us.web\x00w1,0"}
	windowed := Selection{Key: "us.web", Window: &WindowSpec{Last: 1}}
	if selectionKey(&evil) == selectionKey(&windowed) {
		t.Error("crafted key collides with a windowed selection")
	}
}

func ptr(s string) *string    { return &s }
func ptrF(f float64) *float64 { return &f }

package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sketch"
)

// rawOf extracts the moments view of a serving summary (test helper).
func rawOf(t *testing.T, s sketch.Serving) *core.Sketch {
	t.Helper()
	raw := sketch.RawMoments(s)
	if raw == nil {
		t.Fatal("summary is not moments-backed")
	}
	return raw
}

// momentsPanes extracts the moments view of a pane series (test helper).
func momentsPanes(t *testing.T, ps *PaneSeries) []*core.Sketch {
	t.Helper()
	raws, ok := ps.MomentsPanes()
	if !ok {
		t.Fatal("pane series is not moments-backed")
	}
	return raws
}

// fakeClock is a manually advanced wall clock for windowed-store tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newWindowedStore(clock *fakeClock, paneWidth time.Duration, retention int) *Store {
	return New(
		WithShards(4),
		WithWindow(paneWidth, retention),
		WithClock(clock.now),
	)
}

// relDiff returns |a-b| / max(1, |b|).
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Abs(b); m > 1 {
		d /= m
	}
	return d
}

// assertSketchClose checks count/min/max exactly and power sums to relative
// tolerance — the turnstile-vs-re-merge contract.
func assertSketchClose(t *testing.T, got, want *core.Sketch, tol float64, what string) {
	t.Helper()
	if got.Count != want.Count {
		t.Fatalf("%s: count = %v, want %v", what, got.Count, want.Count)
	}
	if want.Count == 0 {
		return
	}
	if got.Min != want.Min || got.Max != want.Max {
		t.Errorf("%s: range [%v,%v], want [%v,%v]", what, got.Min, got.Max, want.Min, want.Max)
	}
	for i := range want.Pow {
		if d := relDiff(got.Pow[i], want.Pow[i]); d > tol {
			t.Errorf("%s: Pow[%d] = %v, want %v (rel diff %g)", what, i, got.Pow[i], want.Pow[i], d)
		}
		if d := relDiff(got.LogPow[i], want.LogPow[i]); d > tol {
			t.Errorf("%s: LogPow[%d] = %v, want %v (rel diff %g)", what, i, got.LogPow[i], want.LogPow[i], d)
		}
	}
}

// remergePanes is the oracle: a full re-merge of a dense pane series.
func remergePanes(t *testing.T, panes []*core.Sketch) *core.Sketch {
	t.Helper()
	out := core.New(panes[0].K)
	for _, p := range panes {
		if err := out.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestRetainedMatchesRemergeAcrossExpiry(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	s := newWindowedStore(clock, time.Second, 8)
	rng := rand.New(rand.NewPCG(7, 11))

	// Stream values across 40 pane transitions — five full ring turnovers,
	// each expiry a turnstile Sub — and pin the rolling retained sketch to
	// a full re-merge of the live panes after every transition.
	for step := 0; step < 40; step++ {
		for i := 0; i < 50; i++ {
			s.Add("svc.latency", 5+rng.ExpFloat64()*20)
		}
		ps, err := s.Panes("svc.latency")
		if err != nil {
			t.Fatal(err)
		}
		retained, err := s.Retained("svc.latency")
		if err != nil {
			t.Fatal(err)
		}
		assertSketchClose(t, rawOf(t, retained), remergePanes(t, momentsPanes(t, ps)), 1e-9, "retained")
		clock.advance(time.Second)
	}
}

func TestPaneSeriesLayout(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	s := newWindowedStore(clock, time.Minute, 4)

	s.Add("k", 1) // pane now
	clock.advance(time.Minute)
	s.Add("k", 2) // next pane
	s.Add("k", 3)

	ps, err := s.Panes("k")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.Panes) != 4 {
		t.Fatalf("series has %d panes, want retention 4", len(ps.Panes))
	}
	if got := ps.Start + 3; got != clock.t.UnixNano()/int64(time.Minute) {
		t.Errorf("series ends at pane %d, want current pane", got)
	}
	if ps.Panes[2].Count() != 1 || ps.Panes[3].Count() != 2 {
		t.Errorf("pane counts = %v,%v, want 1,2", ps.Panes[2].Count(), ps.Panes[3].Count())
	}
	if ps.Panes[0].Count() != 0 || ps.Panes[1].Count() != 0 {
		t.Errorf("old panes not empty: %v,%v", ps.Panes[0].Count(), ps.Panes[1].Count())
	}
	if got := ps.PaneStart(3); !got.Equal(clock.t.Truncate(time.Minute)) {
		t.Errorf("PaneStart(3) = %v, want %v", got, clock.t.Truncate(time.Minute))
	}

	// Four minutes later everything has expired; the series is empty but
	// the all-time sketch still holds all three observations.
	clock.advance(4 * time.Minute)
	ps, err = s.Panes("k")
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ps.Panes {
		if p.Count() != 0 {
			t.Errorf("pane %d not expired: count %v", i, p.Count())
		}
	}
	if got := s.Count("k"); got != 3 {
		t.Errorf("all-time count = %v, want 3", got)
	}
	retained, err := s.Retained("k")
	if err != nil {
		t.Fatal(err)
	}
	if !retained.IsEmpty() {
		t.Errorf("retained not empty after full expiry: count %v", retained.Count())
	}
}

func TestLateObservationSkipsPanes(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	s := newWindowedStore(clock, time.Second, 4)

	s.AddAt("k", 10, clock.t.Add(-time.Hour)) // far older than retention
	if got := s.Count("k"); got != 1 {
		t.Fatalf("all-time count = %v, want 1", got)
	}
	retained, err := s.Retained("k")
	if err != nil {
		t.Fatal(err)
	}
	if !retained.IsEmpty() {
		t.Errorf("late observation landed in retained window (count %v)", retained.Count())
	}

	// A late observation inside the retained range lands in its own pane.
	s.AddAt("k", 20, clock.t.Add(-2*time.Second))
	ps, err := s.Panes("k")
	if err != nil {
		t.Fatal(err)
	}
	if ps.Panes[1].Count() != 1 {
		t.Errorf("in-range late observation missing: %v", ps.Panes[1].Count())
	}
}

func TestFutureObservationsClampToCurrentPane(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	s := newWindowedStore(clock, time.Second, 4)

	// Fill the ring, then ingest one observation stamped far in the
	// future. A data timestamp must never advance the ring — otherwise one
	// hostile or skewed observation would expire every live pane — so it
	// clamps into the current pane instead.
	s.Add("k", 1)
	s.AddAt("k", 9, clock.t.Add(1000*time.Hour))
	ps, err := s.Panes("k")
	if err != nil {
		t.Fatal(err)
	}
	if got := ps.Panes[len(ps.Panes)-1].Count(); got != 2 {
		t.Errorf("current pane count = %v, want both observations (clamped)", got)
	}
	retained, err := s.Retained("k")
	if err != nil {
		t.Fatal(err)
	}
	if retained.Count() != 2 {
		t.Errorf("retained count = %v after future-stamped ingest, want 2 (ring must not be wiped)", retained.Count())
	}
	// Mild skew — one pane ahead — clamps the same way.
	s.AddAt("k", 5, clock.t.Add(time.Second))
	if got := s.Count("k"); got != 3 {
		t.Errorf("all-time count = %v, want 3", got)
	}
}

func TestNegativeTimestampDoesNotPanic(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	s := newWindowedStore(clock, time.Second, 4)

	// A pre-1970 instant has a negative pane index; it must count toward
	// the all-time sketch only, not panic the ring's slot arithmetic.
	s.AddAt("k", 7, time.Unix(-90, 0))
	if got := s.Count("k"); got != 1 {
		t.Fatalf("all-time count = %v, want 1", got)
	}
	retained, err := s.Retained("k")
	if err != nil {
		t.Fatal(err)
	}
	if !retained.IsEmpty() {
		t.Errorf("pre-1970 observation landed in a pane (count %v)", retained.Count())
	}
}

func TestPanesPrefixMatchesPerKeyMerge(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	s := newWindowedStore(clock, time.Second, 6)
	rng := rand.New(rand.NewPCG(3, 9))
	keys := []string{"us.web", "us.api", "eu.web"}

	for step := 0; step < 10; step++ {
		for _, k := range keys {
			for i := 0; i < 20; i++ {
				s.Add(k, rng.NormFloat64()*5+50)
			}
		}
		clock.advance(time.Second)
	}

	got, err := s.PanesPrefix(context.Background(), "us.")
	if err != nil {
		t.Fatal(err)
	}
	if got.Keys != 2 {
		t.Fatalf("prefix series merged %d keys, want 2", got.Keys)
	}
	web, err := s.Panes("us.web")
	if err != nil {
		t.Fatal(err)
	}
	api, err := s.Panes("us.api")
	if err != nil {
		t.Fatal(err)
	}
	gotRaws := momentsPanes(t, got)
	webRaws, apiRaws := momentsPanes(t, web), momentsPanes(t, api)
	for i := range gotRaws {
		want := core.New(s.Order())
		if err := want.Merge(webRaws[i]); err != nil {
			t.Fatal(err)
		}
		if err := want.Merge(apiRaws[i]); err != nil {
			t.Fatal(err)
		}
		assertSketchClose(t, gotRaws[i], want, 1e-12, "prefix pane")
	}

	merged, keysMerged, err := s.RetainedPrefix(context.Background(), "us.")
	if err != nil {
		t.Fatal(err)
	}
	if keysMerged != 2 {
		t.Fatalf("RetainedPrefix merged %d keys, want 2", keysMerged)
	}
	assertSketchClose(t, rawOf(t, merged), remergePanes(t, gotRaws), 1e-9, "retained prefix")
}

// TestWindowedPrefixReadsDeterministic: windowed prefix reads walk the one
// sorted key order, so repeated reads of a quiescent store are
// byte-identical even where the float merges do not associate. One stripe
// holds all 200 keys, the case where a walk in map order reshuffles the
// most.
func TestWindowedPrefixReadsDeterministic(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	s := New(WithShards(1), WithWindow(time.Second, 8), WithClock(clock.now))
	rng := rand.New(rand.NewPCG(2, 5))
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("det.k%03d", i)
		for j := 0; j < 5; j++ {
			s.AddAt(key, math.Exp(rng.NormFloat64()*4), clock.t.Add(-time.Duration(rng.IntN(8))*time.Second))
		}
	}
	now, _ := s.CurrentPane()
	reads := func() [][]byte {
		var out [][]byte
		all, err := s.PanesPrefix(context.Background(), "det.")
		if err != nil {
			t.Fatal(err)
		}
		part, err := s.PanesRangePrefix(context.Background(), "det.", now-3, now+1)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range append(all.Panes, part.Panes...) {
			out = append(out, marshalOf(t, s, p))
		}
		ret, n, err := s.RetainedPrefix(context.Background(), "det.")
		if err != nil || n != 200 {
			t.Fatalf("RetainedPrefix merged %d keys, err %v", n, err)
		}
		return append(out, marshalOf(t, s, ret))
	}
	first := reads()
	for rep := 0; rep < 5; rep++ {
		for i, b := range reads() {
			if !bytes.Equal(b, first[i]) {
				t.Fatalf("repeat %d: read %d of %d differs from the first answer", rep, i, len(first))
			}
		}
	}
}

func TestPaneAccessorsErrors(t *testing.T) {
	plain := New(WithShards(2))
	if _, err := plain.Panes("k"); err != ErrNoWindow {
		t.Errorf("Panes on timeless store: %v, want ErrNoWindow", err)
	}
	if _, err := plain.Retained("k"); err != ErrNoWindow {
		t.Errorf("Retained on timeless store: %v, want ErrNoWindow", err)
	}
	if _, _, err := plain.RetainedPrefix(context.Background(), ""); err != ErrNoWindow {
		t.Errorf("RetainedPrefix on timeless store: %v, want ErrNoWindow", err)
	}
	if _, err := plain.PanesPrefix(context.Background(), ""); err != ErrNoWindow {
		t.Errorf("PanesPrefix on timeless store: %v, want ErrNoWindow", err)
	}

	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	s := newWindowedStore(clock, time.Second, 4)
	if _, err := s.Panes("missing"); err != ErrNoKey {
		t.Errorf("Panes on missing key: %v, want ErrNoKey", err)
	}
	if _, err := s.PanesPrefix(context.Background(), "missing."); err != ErrNoKey {
		t.Errorf("PanesPrefix with no match: %v, want ErrNoKey", err)
	}
}

func TestWindowedSnapshotRoundTrip(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	s := newWindowedStore(clock, time.Second, 8)
	rng := rand.New(rand.NewPCG(17, 23))
	keys := []string{"us.web", "us.api", "eu.web", "eu.api"}
	for step := 0; step < 12; step++ {
		for _, k := range keys {
			for i := 0; i < 25; i++ {
				s.Add(k, 1+rng.ExpFloat64()*10)
			}
		}
		clock.advance(time.Second)
	}

	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	restored := newWindowedStore(clock, time.Second, 8)
	if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		origAll, _ := s.Sketch(k)
		gotAll, ok := restored.Sketch(k)
		if !ok {
			t.Fatalf("key %s missing after restore", k)
		}
		assertSketchClose(t, gotAll, origAll, 0, "all-time "+k)

		orig, err := s.Panes(k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.Panes(k)
		if err != nil {
			t.Fatal(err)
		}
		if got.Start != orig.Start {
			t.Fatalf("restored series starts at pane %d, want %d", got.Start, orig.Start)
		}
		origRaws, gotRaws := momentsPanes(t, orig), momentsPanes(t, got)
		for i := range origRaws {
			assertSketchClose(t, gotRaws[i], origRaws[i], 0, "pane")
		}
		// Restore rebuilds retained by exact re-merge of the live panes.
		retained, err := restored.Retained(k)
		if err != nil {
			t.Fatal(err)
		}
		assertSketchClose(t, rawOf(t, retained), remergePanes(t, origRaws), 1e-9, "restored retained "+k)
	}

	// Restoring after time has passed drops the panes that expired while
	// the snapshot sat on disk but keeps the all-time sketches whole.
	clock.advance(5 * time.Second)
	late := newWindowedStore(clock, time.Second, 8)
	if err := late.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	lateSeries, err := late.Panes("us.web")
	if err != nil {
		t.Fatal(err)
	}
	// Data panes at snapshot covered indices p0+5..p0+11; five seconds
	// later the live range is (p0+9, p0+17], so only p0+10 and p0+11 —
	// series indices 0 and 1 — survive.
	for i, p := range lateSeries.Panes {
		if live := p.Count() > 0; live != (i < 2) {
			t.Errorf("pane %d live=%v after 5s-late restore", i, live)
		}
	}
	if got, _ := late.Sketch("us.web"); got.Count != 12*25 {
		t.Errorf("all-time count after late restore = %v, want %v", got.Count, 12*25)
	}
}

// TestSnapshotVersionMismatches: a windowed snapshot (the panes flag set)
// restores only into a store with the same pane configuration, while a
// timeless one loads into a windowed store with empty panes.
func TestSnapshotVersionMismatches(t *testing.T) {
	clock := &fakeClock{t: goldenClock}
	windowed := New(WithShards(2), WithWindow(time.Second, 8), WithClock(clock.now))
	windowed.Add("k", 1)
	timeless := New(WithShards(2))
	timeless.Add("k", 42)
	windowedSnap, plainSnap := snapshotBytes(t, windowed), snapshotBytes(t, timeless)

	plain := New(WithShards(2))
	if err := plain.Restore(bytes.NewReader(windowedSnap)); err == nil ||
		!strings.Contains(err.Error(), "without time panes") {
		t.Errorf("windowed restore into timeless store: %v", err)
	}
	other := New(WithShards(2), WithWindow(2*time.Second, 8), WithClock(clock.now))
	if err := other.Restore(bytes.NewReader(windowedSnap)); err == nil ||
		!strings.Contains(err.Error(), "pane config") {
		t.Errorf("windowed restore with mismatched pane config: %v", err)
	}

	// Timeless into a windowed store: accepted, panes start empty.
	if err := plain.Restore(bytes.NewReader(plainSnap)); err != nil {
		t.Fatal(err)
	}
	into := newWindowedStore(clock, time.Second, 4)
	if err := into.Restore(bytes.NewReader(plainSnap)); err != nil {
		t.Fatalf("timeless restore into windowed store: %v", err)
	}
	if got, want := into.TotalCount(), plain.TotalCount(); got != want || got == 0 {
		t.Errorf("all-time count = %v, want %v", got, want)
	}
	for _, k := range into.Keys("") {
		retained, err := into.Retained(k)
		if err != nil {
			t.Fatal(err)
		}
		if !retained.IsEmpty() {
			t.Errorf("timeless restore produced non-empty panes for %s (count %v)", k, retained.Count())
		}
	}
}

func TestRestoreRejectsDuplicatePaneIndex(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	s := newWindowedStore(clock, time.Second, 4)
	s.Add("k", 1)
	var snap bytes.Buffer
	if err := s.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	// Duplicate the key's single pane record: pane count 1 → 2, the same
	// pane record spliced in twice.
	forged := forgeDuplicatePaneSnapshot(t, snap.Bytes())
	if err := s.Restore(bytes.NewReader(forged)); err == nil ||
		!strings.Contains(err.Error(), "duplicate pane index") {
		t.Errorf("restore of duplicate-pane snapshot: %v, want duplicate pane index error", err)
	}
}

// forgeDuplicatePaneSnapshot rewrites a single-key, single-pane windowed
// snapshot so the pane record appears twice (pane count 2).
func forgeDuplicatePaneSnapshot(t *testing.T, blob []byte) []byte {
	t.Helper()
	// Layout: "MDSS" ver | uvarint(fpLen) fp flags | uvarint(width)
	// uvarint(retention) | uvarint(keyLen) key uvarint(allLen) all
	// uvarint(paneCount=1) uvarint(idx) uvarint(paneLen) pane | trailer.
	r := bytes.NewReader(blob[len(snapMagic)+1:])
	readUv := func() uint64 {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	skip := func(n uint64) {
		if _, err := r.Seek(int64(n), 1); err != nil {
			t.Fatal(err)
		}
	}
	skip(readUv() + 1) // fingerprint and flags
	readUv()           // pane width
	readUv()           // retention
	skip(readUv())     // key
	skip(readUv())     // all-time payload
	paneCount := readUv()
	if paneCount != 1 {
		t.Fatalf("fixture has %d panes, want 1", paneCount)
	}
	paneStart := len(blob) - r.Len() // offset of the pane record
	readUv()                         // pane index
	skip(readUv())                   // pane payload
	paneEnd := len(blob) - r.Len()

	var out []byte
	out = append(out, blob[:paneStart-1]...) // everything before pane count (count is 1 byte: value 1)
	out = append(out, 2)                     // pane count = 2
	out = append(out, blob[paneStart:paneEnd]...)
	out = append(out, blob[paneStart:paneEnd]...)
	out = append(out, blob[paneEnd:]...) // trailer
	return out
}

func TestWindowedStoreConcurrentIngest(t *testing.T) {
	// Race coverage: concurrent timestamped ingest and pane reads while the
	// clock moves. Correctness of the final state is pinned by the
	// single-threaded oracle tests; this one is for -race.
	s := New(WithShards(4), WithWindow(10*time.Millisecond, 8))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			s.Add("k", float64(i%97))
		}
	}()
	for i := 0; i < 200; i++ {
		if _, err := s.Panes("k"); err != nil && err != ErrNoKey {
			t.Error(err)
		}
		if _, _, err := s.RetainedPrefix(context.Background(), ""); err != nil {
			t.Error(err)
		}
	}
	<-done
}

package main

import (
	"testing"
	"time"
)

// A layer's self time is its span minus its children's, per span, summed
// per name; time a child spends is never also charged to its parent, and a
// child that overran its parent (replayed on a slower moment) cannot make
// the parent's self time negative.
func TestSelfTimesOnHandBuiltTree(t *testing.T) {
	us := func(n int64) int64 { return n * 1000 }
	spans := []span{
		{ID: 1, Req: 0, Name: "server.query", StartNS: 0, EndNS: us(100)},
		{ID: 2, Parent: 1, Req: 0, Name: "query.execute", StartNS: us(100), EndNS: us(180)},
		{ID: 3, Parent: 2, Req: 0, Name: "shard.resolve", StartNS: us(180), EndNS: us(190)},
		{ID: 4, Parent: 2, Req: 0, Name: "maxent.solve", StartNS: us(190), EndNS: us(240)},
		{ID: 5, Parent: 2, Req: 0, Name: "maxent.solve", StartNS: us(240), EndNS: us(250)},
		// A second request whose replayed child overran it.
		{ID: 6, Req: 1, Name: "server.query", StartNS: us(300), EndNS: us(330)},
		{ID: 7, Parent: 6, Req: 1, Name: "query.execute", StartNS: us(330), EndNS: us(370)},
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		"server.query":  {n: 2, total: 130 * time.Microsecond, self: 20 * time.Microsecond}, // (100-80) + max(30-40, 0)
		"query.execute": {n: 2, total: 120 * time.Microsecond, self: 50 * time.Microsecond}, // (80-10-50-10) + 40
		"shard.resolve": {n: 1, total: 10 * time.Microsecond, self: 10 * time.Microsecond},
		"maxent.solve":  {n: 2, total: 60 * time.Microsecond, self: 60 * time.Microsecond},
	}
	if len(got) != len(want) {
		t.Fatalf("layers %v, want %v", got, want)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: %+v, want %+v", name, got[name], w)
		}
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	ran := 0
	tr := newTracer(false)
	if id := tr.measure(0, 0, "x", func() { ran++ }); id != 0 || ran != 1 || len(tr.spans) != 0 {
		t.Errorf("untraced measure: id %d, ran %d, %d spans", id, ran, len(tr.spans))
	}
	tr = newTracer(true)
	root := tr.measure(0, 7, "root", func() {})
	child := tr.measure(root, 7, "child", func() { ran++ })
	if root != 1 || child != 2 || tr.spans[1].Parent != 1 || tr.spans[1].Req != 7 || tr.spans[1].EndNS < tr.spans[1].StartNS {
		t.Errorf("traced spans: %+v", tr.spans)
	}
}

package main

import (
	"testing"
	"time"
)

// fakeClock is a clock the test moves by hand.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) since() time.Duration  { return c.now }
func (c *fakeClock) sleep(d time.Duration) { c.now += d }

// A stalled request must be charged to the requests it delays: each is
// timed from the instant it was due, not from the instant the stall let it
// leave. Timing from the send would report 1 ms for all but the first
// (coordinated omission).
func TestOpenLoopChargesStallToDelayedRequests(t *testing.T) {
	const ms = time.Millisecond
	clk := &fakeClock{}
	due := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms, 40 * ms}
	service := []time.Duration{25 * ms, ms, ms, ms, ms} // the first request stalls
	rs := openLoop(clk, due, func(i int) (int, []byte, error) {
		clk.now += service[i]
		return 200, nil, nil
	})
	wantSent := []time.Duration{0, 25 * ms, 26 * ms, 30 * ms, 40 * ms}
	wantLatency := []time.Duration{25 * ms, 16 * ms, 7 * ms, ms, ms}
	for i, r := range rs {
		if r.sent != wantSent[i] {
			t.Errorf("request %d sent at %v, want %v", i, r.sent, wantSent[i])
		}
		if r.latency() != wantLatency[i] {
			t.Errorf("request %d latency %v, want %v (from its due time %v)", i, r.latency(), wantLatency[i], due[i])
		}
		// The generator itself was never late: each request left the
		// moment it was due and its connection was free.
		if r.late() != 0 {
			t.Errorf("request %d: generator lateness %v, want 0", i, r.late())
		}
	}
}

// A generator that oversleeps is late by its own doing, and says so.
func TestOpenLoopReportsGeneratorLateness(t *testing.T) {
	const ms = time.Millisecond
	clk := &oversleeper{}
	rs := openLoop(clk, []time.Duration{10 * ms}, func(int) (int, []byte, error) { return 200, nil, nil })
	if rs[0].late() != 3*ms {
		t.Errorf("lateness %v, want the 3 ms overslept", rs[0].late())
	}
	if rs[0].latency() != 3*ms {
		t.Errorf("latency %v, want 3 ms: lateness is part of what the user waits", rs[0].latency())
	}
}

type oversleeper struct{ fakeClock }

func (c *oversleeper) sleep(d time.Duration) { c.now += d + 3*time.Millisecond }

// The quiet third: a burst that doubles latency over half the phase must
// not move the reported median, and the throughput is that of the best
// windows.
func TestQuietThirdIgnoresABurst(t *testing.T) {
	const ms = time.Millisecond
	ok := func(result) bool { return true }
	var calm, burst []result
	for i := 0; i < 3000; i++ {
		due := time.Duration(i) * ms
		lat := 2*ms + time.Duration(i%5)*ms/10
		calm = append(calm, result{due: due, done: due + lat})
		if i >= 800 && i < 2600 { // three fifths of the phase at half speed
			lat *= 2
		}
		burst = append(burst, result{due: due, done: due + lat})
	}
	span := 3 * time.Second
	a, b := percentile(quietLatencies(calm, ok, span), 50), percentile(quietLatencies(burst, ok, span), 50)
	if a != b {
		t.Errorf("median over the quiet third moved from %g to %g ms under a burst", a, b)
	}
	if whole := percentile(latenciesMS(burst, ok), 50); whole <= a*1.5 {
		t.Errorf("the whole-phase median should show the burst: %g vs %g ms", whole, a)
	}
	for w, got := range byWindow(calm, span) {
		if len(got) != 100 {
			t.Errorf("window %d holds %d of 3000 evenly spaced requests, want 100", w, len(got))
		}
	}
}

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/encoding"
	"repro/internal/query"
)

// Doer issues HTTP requests; *http.Client satisfies it. Tests substitute
// fault-injecting transports.
type Doer interface {
	Do(req *http.Request) (*http.Response, error)
}

var (
	errNoNodes   = errors.New("cluster: coordinator needs at least one node")
	errNoBackend = errors.New("cluster: coordinator needs a serving backend")
)

// maxPartialsResponse bounds one node's partials response body. A hostile
// or confused node can therefore cost at most this much memory per attempt
// before the frame decoder rejects the truncated read.
const maxPartialsResponse = 32 << 20

func defaultTransport() Doer {
	return &http.Client{}
}

// queryNode sends one node its batched partials request and decodes the
// answer, under the node's deadline budget and with a hedged duplicate.
// Every failure — transport, frame, fingerprint, shape — counts against the
// node and surfaces as that node missing from the merged answer.
func (c *Coordinator) queryNode(ctx context.Context, n int, sels []query.Selection) ([]encoding.PartialSet, error) {
	body, err := json.Marshal(query.PartialsRequest{Selections: sels})
	if err != nil {
		return nil, err
	}
	budget := c.nodeTimeout
	if dl, ok := ctx.Deadline(); ok {
		// Reserve ~10% of the remaining request budget for merging and
		// solving at the coordinator, so a stalled shard cannot spend the
		// whole deadline and leave nothing for the answer.
		rem := time.Until(dl) * 9 / 10
		if rem <= 0 {
			c.nodeFailures[n].Add(1)
			return nil, context.DeadlineExceeded
		}
		if rem < budget {
			budget = rem
		}
	}
	actx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()

	data, err := c.fetch(actx, n, body)
	if err != nil {
		c.nodeFailures[n].Add(1)
		return nil, err
	}
	backend, sets, err := encoding.UnmarshalPartials(data)
	if err != nil {
		c.nodeFailures[n].Add(1)
		return nil, fmt.Errorf("node %s: %w", c.nodes[n], err)
	}
	if want := c.ev.Backend().Fingerprint(); backend != want {
		c.nodeFailures[n].Add(1)
		return nil, fmt.Errorf("node %s: serving backend %q, coordinator expects %q", c.nodes[n], backend, want)
	}
	if len(sets) != len(sels) {
		c.nodeFailures[n].Add(1)
		return nil, fmt.Errorf("node %s: %d partial sets for %d selections", c.nodes[n], len(sets), len(sels))
	}
	return sets, nil
}

// fetch races the node attempt against the hedge timer: if the first POST
// has not answered after the hedge delay, exactly one duplicate is
// launched, the first success wins, and cancelling the shared context (via
// queryNode's deferred cancel) suppresses the loser. Errors never trigger a
// hedge — hedging covers slowness, not brokenness.
func (c *Coordinator) fetch(ctx context.Context, n int, body []byte) ([]byte, error) {
	type attempt struct {
		data   []byte
		err    error
		hedged bool
		took   time.Duration
	}
	ch := make(chan attempt, 2)
	post := func(hedged bool) {
		c.nodeRequests[n].Add(1)
		c.fanouts.Add(1)
		start := time.Now()
		data, err := c.post(ctx, n, body)
		ch <- attempt{data: data, err: err, hedged: hedged, took: time.Since(start)}
	}
	go post(false)

	timer := time.NewTimer(c.hedgeDelay())
	defer timer.Stop()
	outstanding, hedged := 1, false
	var firstErr error
	for {
		select {
		case a := <-ch:
			outstanding--
			if a.err == nil {
				c.lat.record(a.took)
				if a.hedged {
					c.hedgeWins.Add(1)
				}
				return a.data, nil
			}
			if firstErr == nil {
				firstErr = a.err
			}
			if outstanding == 0 {
				return nil, firstErr
			}
		case <-timer.C:
			if !hedged {
				hedged = true
				c.hedges.Add(1)
				outstanding++
				go post(true)
			}
		}
	}
}

// hedgeDelay returns how long to wait before duplicating an attempt: the
// configured fixed delay, else the hedgeQuantile of recently observed node
// latencies, else a quarter of the node timeout while no latencies
// have been observed yet.
func (c *Coordinator) hedgeDelay() time.Duration {
	if c.hedgeAfter > 0 {
		return c.hedgeAfter
	}
	if d, ok := c.lat.quantile(hedgeQuantile); ok {
		if d < minHedgeDelay {
			d = minHedgeDelay
		}
		if d > c.nodeTimeout {
			d = c.nodeTimeout
		}
		return d
	}
	return c.nodeTimeout / 4
}

// post issues one POST /v1/partials attempt, reading at most
// maxPartialsResponse bytes of answer.
func (c *Coordinator) post(ctx context.Context, n int, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.nodes[n]+"/v1/partials", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.transport.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxPartialsResponse))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg := data
		if len(msg) > 256 {
			msg = msg[:256]
		}
		return nil, fmt.Errorf("node %s: HTTP %d: %s", c.nodes[n], resp.StatusCode, msg)
	}
	return data, nil
}

// latencyRing keeps the most recent successful attempt latencies for the
// adaptive hedge delay.
type latencyRing struct {
	mu      sync.Mutex
	samples [128]time.Duration
	n       int // live samples, ≤ len(samples)
	next    int // ring write cursor
}

func (r *latencyRing) record(d time.Duration) {
	r.mu.Lock()
	r.samples[r.next] = d
	r.next = (r.next + 1) % len(r.samples)
	if r.n < len(r.samples) {
		r.n++
	}
	r.mu.Unlock()
}

// quantile returns the q-quantile of the recorded latencies, or ok=false
// when none have been recorded yet.
func (r *latencyRing) quantile(q float64) (time.Duration, bool) {
	r.mu.Lock()
	live := make([]time.Duration, r.n)
	copy(live, r.samples[:r.n])
	r.mu.Unlock()
	if len(live) == 0 {
		return 0, false
	}
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
	idx := int(q * float64(len(live)))
	if idx >= len(live) {
		idx = len(live) - 1
	}
	return live[idx], true
}

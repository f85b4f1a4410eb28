package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Observation is one routed ingest record, matching the shard nodes'
// /ingest JSON shape. Ingest forwards it as one NDJSON line (appendNDJSON).
type Observation struct {
	Key   string   `json:"key"`
	Value *float64 `json:"value"`
	TS    *float64 `json:"ts,omitempty"`
}

// Ingest partitions observations by rendezvous owner and forwards one
// /ingest batch per owning node, concurrently. It returns the total count
// the nodes ingested and the nodes whose batch could not be delivered
// (their observations are dropped, never re-routed — re-routing would put
// keys on non-owner nodes and split their sketches). Ingest never hedges:
// a duplicated delivery would double-count, which no deduplication
// downstream could undo. It does retry failed deliveries (transport
// errors and 5xx, with capped jittered backoff inside the request
// deadline): unlike a hedge, a retry duplicates only in the narrow case
// where the node committed the batch but its answer was lost, trading
// that rare double-count for riding out node restarts and fsync stalls.
func (c *Coordinator) Ingest(ctx context.Context, obs []Observation) (int, []string, error) {
	batches := make([][]Observation, len(c.nodes))
	for _, o := range obs {
		n := c.Owner(o.Key)
		batches[n] = append(batches[n], o)
	}

	var (
		mu       sync.Mutex
		ingested int
		failed   []string
		firstErr error
	)
	var wg sync.WaitGroup
	for n := range c.nodes {
		if len(batches[n]) == 0 {
			continue
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			count, err := c.ingestNode(ctx, n, batches[n])
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				failed = append(failed, c.nodes[n])
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			ingested += count
		}(n)
	}
	wg.Wait()
	sort.Strings(failed)
	return ingested, failed, firstErr
}

// Ingest retries: a failed delivery to a node is re-attempted
// ingestRetries times (transport errors and 5xx answers only — a 4xx
// rejection will not become valid by repetition). The backoff starts small
// (a node riding out one group-commit stall answers on the first retry),
// doubles per attempt, caps so it cannot turn into multi-second sleeps,
// and never outlives the request deadline.
const (
	ingestRetries     = 2
	ingestBackoffBase = 5 * time.Millisecond
	ingestBackoffCap  = 100 * time.Millisecond
)

// ingestNode delivers one node's batch, retrying transient failures with
// capped jittered backoff. It gives up on non-retryable failures (4xx,
// undecodable replies), on an exhausted retry budget, and before any
// sleep that the request deadline could not absorb along with one more
// node timeout's worth of attempt.
func (c *Coordinator) ingestNode(ctx context.Context, n int, batch []Observation) (int, error) {
	body := appendNDJSON(make([]byte, 0, 64*len(batch)), batch)
	backoff := ingestBackoffBase
	for attempt := 0; ; attempt++ {
		count, retryable, err := c.postIngest(ctx, n, body)
		if err == nil || !retryable || attempt >= ingestRetries || ctx.Err() != nil {
			return count, err
		}
		// Full jitter in [backoff/2, backoff]: concurrent per-node
		// goroutines must not re-dogpile a node that just failed them all.
		sleep := backoff/2 + time.Duration(rand.Int64N(int64(backoff/2)+1))
		if deadline, ok := ctx.Deadline(); ok && time.Until(deadline) < sleep+ingestBackoffBase {
			return count, err
		}
		select {
		case <-ctx.Done():
			return count, err
		case <-time.After(sleep):
		}
		c.retriedIngests.Add(1)
		if backoff < ingestBackoffCap {
			backoff *= 2
		}
	}
}

// appendNDJSON appends batch to b as NDJSON, one line per observation in
// the canonical shape {"key":"…","value":N[,"ts":N]} that a node's /ingest
// decodes without encoding/json. Numbers are written by
// strconv.AppendFloat(…, 'g', -1, 64), the shortest form that parses back
// to the same bits. A key of printable ASCII without '"' or '\\' is written
// as is; any other goes through json.Marshal, which escapes it (and, as for
// every JSON body, replaces invalid UTF-8 with U+FFFD). A non-finite value
// comes out as NaN or ±Inf, which the node's /ingest rejects.
func appendNDJSON(b []byte, batch []Observation) []byte {
	for _, o := range batch {
		b = append(b, `{"key":`...)
		if plainKey(o.Key) {
			b = append(b, '"')
			b = append(b, o.Key...)
			b = append(b, '"')
		} else {
			q, _ := json.Marshal(o.Key) // a string always marshals
			b = append(b, q...)
		}
		b = append(b, `,"value":`...)
		b = strconv.AppendFloat(b, *o.Value, 'g', -1, 64)
		if o.TS != nil {
			b = append(b, `,"ts":`...)
			b = strconv.AppendFloat(b, *o.TS, 'g', -1, 64)
		}
		b = append(b, "}\n"...)
	}
	return b
}

// plainKey reports whether key is printable ASCII without '"' or '\\', so
// its JSON string is the key between quotes.
func plainKey(key string) bool {
	for i := 0; i < len(key); i++ {
		if c := key[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// postIngest delivers one node's NDJSON body over the standard /ingest
// endpoint. retryable reports whether the failure class could plausibly
// clear on a re-attempt: transport errors, short reads and 5xx answers
// qualify; a 4xx rejection or an undecodable 200 will only repeat.
func (c *Coordinator) postIngest(ctx context.Context, n int, body []byte) (count int, retryable bool, err error) {
	actx, cancel := context.WithTimeout(ctx, c.nodeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, c.nodes[n]+"/ingest", bytes.NewReader(body))
	if err != nil {
		return 0, false, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	c.nodeRequests[n].Add(1)
	start := time.Now()
	resp, err := c.transport.Do(req)
	if err != nil {
		c.nodeFailures[n].Add(1)
		return 0, true, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		c.nodeFailures[n].Add(1)
		return 0, true, err
	}
	if resp.StatusCode != http.StatusOK {
		c.nodeFailures[n].Add(1)
		msg := data
		if len(msg) > 256 {
			msg = msg[:256]
		}
		return 0, resp.StatusCode >= 500, fmt.Errorf("node %s: HTTP %d: %s", c.nodes[n], resp.StatusCode, msg)
	}
	c.lat.record(time.Since(start))
	var reply struct {
		Ingested int `json:"ingested"`
	}
	if err := json.Unmarshal(data, &reply); err != nil {
		c.nodeFailures[n].Add(1)
		return 0, false, fmt.Errorf("node %s: %w", c.nodes[n], err)
	}
	return reply.Ingested, true, nil
}

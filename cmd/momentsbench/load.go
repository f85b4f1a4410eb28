package main

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// conn is one keep-alive client connection: a transport capped at a single
// connection to its host, so "two connections" means two sockets.
type conn struct {
	client *http.Client
	base   string
}

func newConn(base string) *conn {
	return &conn{
		base: base,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// request is one pre-built HTTP request.
type request struct {
	path  string
	ctype string
	body  []byte
}

const (
	ctypeNDJSON = "application/x-ndjson"
	ctypeJSON   = "application/json"
)

func (b ingestBody) request() request {
	return request{path: "/ingest", ctype: ctypeNDJSON, body: b.data}
}

func (q queryRequest) request() request {
	return request{path: q.path, ctype: ctypeJSON, body: q.data}
}

// result is the outcome of one request. Times are offsets from the phase
// start; due equals sent in a closed loop. ready is when the request could
// first have left: its due time, or when its connection came free if that
// was later.
type result struct {
	idx             int
	due, sent, done time.Duration
	ready           time.Duration
	status          int
	body            []byte
	err             error
}

// latency is counted from the instant the request was due, so a stall that
// delays later sends is charged to them (no coordinated omission).
func (r result) latency() time.Duration { return r.done - r.due }

// late is how long the generator itself held the request back.
func (r result) late() time.Duration { return r.sent - r.ready }

func (c *conn) do(rq request) (int, []byte, error) {
	resp, err := c.client.Post(c.base+rq.path, rq.ctype, bytes.NewReader(rq.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// closedLoop drives each connection back to back — the next request goes
// out when the previous answer is in — until the deadline passes or limit
// requests have been taken (0 = no limit). Requests cycle through reqs.
func closedLoop(conns []*conn, start time.Time, run time.Duration, limit int, reqs func(i int) request) []result {
	var next atomic.Int64
	per := make([][]result, len(conns))
	var wg sync.WaitGroup
	for ci, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if limit > 0 && i >= limit {
					return
				}
				sent := time.Since(start)
				if run > 0 && sent >= run {
					return
				}
				status, body, err := c.do(reqs(i))
				per[ci] = append(per[ci], result{
					idx: i, due: sent, ready: sent, sent: sent, done: time.Since(start),
					status: status, body: body, err: err,
				})
			}
		}()
	}
	wg.Wait()
	var all []result
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// openLoop sends request i when due[i] arrives, whether or not the system
// kept up: a request whose predecessor is still in flight goes out late,
// and its latency still counts from its due time. One caller is one
// connection. The clock is injectable for the stall test.
func openLoop(clk clock, due []time.Duration, do func(i int) (int, []byte, error)) []result {
	out := make([]result, 0, len(due))
	free := time.Duration(0) // when the previous answer came in
	for i, d := range due {
		if wait := d - clk.since(); wait > 0 {
			clk.sleep(wait)
		}
		sent := clk.since()
		status, body, err := do(i)
		out = append(out, result{
			idx: i, due: d, ready: max(d, free), sent: sent, done: clk.since(),
			status: status, body: body, err: err,
		})
		free = out[i].done
	}
	return out
}

// clock is the open loop's time source: offsets from the phase start.
type clock interface {
	since() time.Duration
	sleep(time.Duration)
}

type wallClock struct{ start time.Time }

func (w wallClock) since() time.Duration  { return time.Since(w.start) }
func (w wallClock) sleep(d time.Duration) { time.Sleep(d) }

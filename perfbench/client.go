package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Result is the outcome of one op.
type Result struct {
	Answered bool
	Denied   bool
	Answer   float64
	// Err is set for transport errors and unexpected statuses.
	Err string
	// Latency is from send (closed phases) or from due time (open
	// phase) to the end of the response.
	Latency time.Duration
	// Lag is how late the open-phase dispatcher released the op.
	Lag time.Duration
}

// Failed reports whether the op counts as a failure: transport error,
// 5xx (503 admission refusals included) or an unexpected 4xx.
func (r Result) Failed() bool { return r.Err != "" }

// conn is one keep-alive HTTP connection to the server.
type conn struct {
	client *http.Client
	base   string
}

// Driver sends a schedule's ops to a server over a fixed set of
// connections. Each analyst is bound to one connection, so its requests
// are sent in schedule order; updates are barriers.
type Driver struct {
	conns   []*conn
	ops     []Op
	results []Result
}

func newDriver(base string, conns int, ops []Op) *Driver {
	d := &Driver{ops: ops, results: make([]Result, len(ops))}
	for i := 0; i < conns; i++ {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		d.conns = append(d.conns, &conn{client: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base})
	}
	return d
}

func (d *Driver) close() {
	for _, c := range d.conns {
		c.client.CloseIdleConnections()
	}
}

// runClosed sends the ops (one contiguous slice of d.ops) back to back:
// each connection works through its analysts' queries in order, and
// every update waits for all earlier queries to finish.
func (d *Driver) runClosed(ctx context.Context, first int, ops []Op) time.Duration {
	start := time.Now()
	pos := first
	for _, seg := range segments(ops) {
		queues := make([][]int, len(d.conns))
		var upd = -1
		for i, op := range seg {
			if op.Update {
				upd = pos + i
				continue
			}
			c := op.Slot % len(d.conns)
			queues[c] = append(queues[c], pos+i)
		}
		var wg sync.WaitGroup
		for c, q := range queues {
			if len(q) == 0 {
				continue
			}
			wg.Add(1)
			go func(c int, q []int) {
				defer wg.Done()
				for _, idx := range q {
					if ctx.Err() != nil {
						d.results[idx] = Result{Err: ctx.Err().Error()}
						continue
					}
					t := time.Now()
					d.results[idx] = d.conns[c].send(ctx, d.ops[idx], t)
				}
			}(c, q)
		}
		wg.Wait()
		if upd >= 0 {
			d.results[upd] = d.conns[0].send(ctx, d.ops[upd], time.Now())
		}
		pos += len(seg)
	}
	return time.Since(start)
}

// runOpen releases each op at its due time onto its analyst's
// connection queue. Latency runs from the due time, so a request that
// waits behind a slow one is charged for the wait; Lag records how late
// the dispatcher itself released each op. An update waits until every
// earlier op has completed.
func (d *Driver) runOpen(ctx context.Context, first int, ops []Op) time.Duration {
	queues := make([]chan int, len(d.conns))
	var inflight sync.WaitGroup
	var workers sync.WaitGroup
	var start time.Time
	for c := range queues {
		// Sized to the number of sends, so the dispatcher never blocks
		// on a busy connection.
		queues[c] = make(chan int, len(ops))
		workers.Add(1)
		go func(c int) {
			defer workers.Done()
			for idx := range queues[c] {
				due := start.Add(d.ops[idx].Due)
				lag := d.results[idx].Lag
				if ctx.Err() != nil {
					d.results[idx] = Result{Err: ctx.Err().Error(), Lag: lag}
				} else {
					d.results[idx] = d.conns[c].send(ctx, d.ops[idx], due)
					d.results[idx].Lag = lag
				}
				inflight.Done()
			}
		}(c)
	}
	start = time.Now()
	// barrierEnd is when the last update completed: ops that fell due
	// while it drained the connections are released late by the
	// schedule's own barrier, not by the dispatcher, so their lag is
	// counted from the barrier's end.
	var barrierEnd time.Time
	for i, op := range ops {
		idx := first + i
		due := start.Add(op.Due)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		lag := time.Since(due)
		if barrierEnd.After(due) {
			lag = time.Since(barrierEnd)
		}
		if op.Update {
			inflight.Wait()
			d.results[idx] = d.conns[0].send(ctx, op, due)
			d.results[idx].Lag = lag
			barrierEnd = time.Now()
			continue
		}
		d.results[idx].Lag = lag
		inflight.Add(1)
		queues[op.Slot%len(d.conns)] <- idx
	}
	for _, q := range queues {
		close(q)
	}
	workers.Wait()
	return time.Since(start)
}

type queryBody struct {
	SQL string `json:"sql"`
}

type querySetBody struct {
	Kind    string `json:"kind"`
	Indices []int  `json:"indices"`
}

type updateBody struct {
	Index int     `json:"index"`
	Value float64 `json:"value"`
}

type queryReply struct {
	Denied bool     `json:"denied"`
	Answer *float64 `json:"answer"`
}

// request builds the HTTP request for op.
func request(ctx context.Context, base string, op Op) (*http.Request, error) {
	var path string
	var body any
	switch {
	case op.Update:
		path, body = "/v1/update", updateBody{Index: op.Index, Value: op.Value}
	case op.SQL != "":
		path, body = "/v1/query", queryBody{SQL: op.SQL}
	default:
		idx := make([]int, 0, op.Hi-op.Lo)
		for i := op.Lo; i < op.Hi; i++ {
			idx = append(idx, i)
		}
		path, body = "/v1/queryset", querySetBody{Kind: op.Kind, Indices: idx}
	}
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if !op.Update {
		req.Header.Set("X-Analyst-ID", op.Analyst)
	}
	return req, nil
}

// send performs op and times it from t0.
func (c *conn) send(ctx context.Context, op Op, t0 time.Time) Result {
	req, err := request(ctx, c.base, op)
	if err != nil {
		return Result{Err: err.Error()}
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return Result{Err: err.Error(), Latency: time.Since(t0)}
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return Result{Err: "reading body: " + err.Error(), Latency: time.Since(t0)}
	}
	r := parseReply(op, resp.StatusCode, raw)
	r.Latency = time.Since(t0)
	return r
}

// parseReply classifies one HTTP reply to op.
func parseReply(op Op, status int, raw []byte) Result {
	var r Result
	switch {
	case status != http.StatusOK:
		r.Err = "status " + strconv.Itoa(status) + ": " + string(bytes.TrimSpace(raw))
	case op.Update:
		var ok map[string]bool
		if json.Unmarshal(raw, &ok) != nil || !ok["ok"] {
			r.Err = "update reply " + string(raw)
		}
	default:
		var qr queryReply
		switch {
		case json.Unmarshal(raw, &qr) != nil:
			r.Err = "bad reply " + string(raw)
		case qr.Denied:
			r.Denied = true
		case qr.Answer == nil:
			r.Err = fmt.Sprintf("reply has neither answer nor denial: %s", raw)
		default:
			r.Answered, r.Answer = true, *qr.Answer
		}
	}
	return r
}

package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"
)

func testConfig(t *testing.T) *Config {
	t.Helper()
	cfg, err := loadConfig(".")
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestScheduleIsPureFunctionOfSeed(t *testing.T) {
	cfg := testConfig(t)
	for name, w := range cfg.Workloads {
		a, err := buildSchedule(w, 3, 16)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildSchedule(w, 3, 16)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different schedules", name)
		}
		c, _ := buildSchedule(w, 4, 16)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave identical schedules", name)
		}
		// Different seeds interleave the same per-analyst histories,
		// with updates at the same points of every history.
		if !reflect.DeepEqual(histories(a), histories(c)) {
			t.Errorf("%s: seeds 3 and 4 give different per-analyst histories", name)
		}
	}
}

// histories returns each analyst's requests in order, with an update
// marker wherever an update falls in its history.
func histories(ops []Op) map[int][]Op {
	h := map[int][]Op{}
	for _, op := range ops {
		op.Due = 0
		if op.Update {
			for slot := range h {
				h[slot] = append(h[slot], op)
			}
			continue
		}
		h[op.Slot] = append(h[op.Slot], op)
	}
	return h
}

func TestPoissonScheduleHitsRate(t *testing.T) {
	w := &Workload{Name: "t", Family: "full", N: 1000, Shape: "ranges", Analysts: 4,
		RangeMin: 5, RangeMax: 10, ClosedQPS: 1, ClosedSeconds: 1, OpenRate: 40, OpenSeconds: 200}
	for seed := 0; seed < 3; seed++ {
		ops, err := buildSchedule(w, int64(seed), 201)
		if err != nil {
			t.Fatal(err)
		}
		var open []Op
		for _, op := range ops {
			if op.Phase == PhaseOpen {
				open = append(open, op)
			}
		}
		if len(open) != 8000 {
			t.Fatalf("open phase has %d ops, want 8000", len(open))
		}
		rate := float64(len(open)) / open[len(open)-1].Due.Seconds()
		if math.Abs(rate-w.OpenRate)/w.OpenRate > 0.05 {
			t.Errorf("seed %d: achieved rate %.2f/s, want %.0f/s within 5%%", seed, rate, w.OpenRate)
		}
		for i := 1; i < len(open); i++ {
			if open[i].Due < open[i-1].Due {
				t.Fatalf("due times not monotone at %d", i)
			}
		}
	}
}

// recorder is a fake auditserver that records arrivals.
type recorder struct {
	mu       sync.Mutex
	inflight int
	queries  int
	order    map[string][]int // analyst → arrival order of its Lo values
	barriers []int            // queries received before each update
	badBar   bool             // an update arrived with queries in flight
	delay    time.Duration
}

func (r *recorder) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	body, _ := io.ReadAll(req.Body)
	if req.URL.Path == "/v1/update" {
		r.mu.Lock()
		if r.inflight != 0 {
			r.badBar = true
		}
		r.barriers = append(r.barriers, r.queries)
		r.mu.Unlock()
		_, _ = w.Write([]byte(`{"ok":true}`))
		return
	}
	var qs querySetBody
	_ = json.Unmarshal(body, &qs)
	r.mu.Lock()
	r.inflight++
	r.order[req.Header.Get("X-Analyst-ID")] = append(r.order[req.Header.Get("X-Analyst-ID")], qs.Indices[0])
	r.mu.Unlock()
	time.Sleep(r.delay)
	r.mu.Lock()
	r.inflight--
	r.queries++
	r.mu.Unlock()
	_, _ = w.Write([]byte(`{"denied":true}`))
}

func TestDriverKeepsAnalystOrderAndBarriers(t *testing.T) {
	w := &Workload{Name: "t", Family: "full", N: 100000, Shape: "ranges", Analysts: 5,
		RangeMin: 1, RangeMax: 1, UpdateEvery: 7, Warmup: 60,
		ClosedQPS: 100, ClosedSeconds: 0.6, OpenRate: 400, OpenSeconds: 0.15}
	ops, err := buildSchedule(w, 1, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{order: map[string][]int{}, delay: 200 * time.Microsecond}
	ts := httptest.NewServer(rec)
	defer ts.Close()
	d := newDriver(ts.URL, 2, ops)
	defer d.close()
	ctx := context.Background()
	for _, ph := range []Phase{PhaseWarm, PhaseClosed} {
		lo, hi := phaseRange(ops, ph)
		d.runClosed(ctx, lo, ops[lo:hi])
	}
	lo, hi := phaseRange(ops, PhaseOpen)
	d.runOpen(ctx, lo, ops[lo:hi])

	want := map[string][]int{}
	var wantBarriers []int
	queries := 0
	for i, op := range ops {
		if r := d.results[i]; r.Failed() {
			t.Fatalf("op %d failed: %s", i, r.Err)
		}
		if op.Update {
			wantBarriers = append(wantBarriers, queries)
			continue
		}
		queries++
		want[op.Analyst] = append(want[op.Analyst], op.Lo)
	}
	if !reflect.DeepEqual(rec.order, want) {
		t.Errorf("per-analyst arrival order differs from schedule order")
	}
	if rec.badBar {
		t.Errorf("an update arrived while queries were in flight")
	}
	if !reflect.DeepEqual(rec.barriers, wantBarriers) {
		t.Errorf("updates arrived after %v queries, schedule says %v", rec.barriers, wantBarriers)
	}
}

func TestOpenLatencyIsFromDueTime(t *testing.T) {
	rec := &recorder{order: map[string][]int{}, delay: 100 * time.Millisecond}
	ts := httptest.NewServer(rec)
	defer ts.Close()
	// Two requests of one analyst, due 10ms apart: the second waits for
	// the first, and that wait is part of its latency.
	ops := []Op{
		{Phase: PhaseOpen, Analyst: "a", Kind: "sum", Lo: 0, Hi: 1, Due: 0},
		{Phase: PhaseOpen, Analyst: "a", Kind: "sum", Lo: 1, Hi: 2, Due: 10 * time.Millisecond},
	}
	d := newDriver(ts.URL, 2, ops)
	defer d.close()
	d.runOpen(context.Background(), 0, ops)
	second := d.results[1]
	if second.Latency < 180*time.Millisecond {
		t.Errorf("second request latency %v: want >= 180ms (waited ~90ms, then ~100ms of service)", second.Latency)
	}
	for i, r := range d.results {
		if r.Lag < 0 || r.Lag > 50*time.Millisecond {
			t.Errorf("op %d: dispatcher lag %v outside [0, 50ms]", i, r.Lag)
		}
	}
}

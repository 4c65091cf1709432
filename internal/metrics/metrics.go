// Package metrics is a tiny stdlib-only instrumentation layer for the
// serving path: atomic counters and fixed-bucket latency histograms,
// collected in a Registry that renders consistent snapshots for the
// GET /v1/metrics endpoint and for shutdown logs.
//
// All hot-path operations (Counter.Inc/Add, Histogram.Observe) are
// lock-free atomics, safe to call from request handlers and from inside
// the engine lock without extending the critical section measurably.
// Registration (get-or-create by name) takes a registry mutex and is
// expected at wiring time, not per request — handlers should capture the
// *Counter / *Histogram once.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (delta must be non-negative; counters only go up).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value that can move both ways
// (live sessions, current shard-lock waiters).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the value by delta (negative deltas allowed).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefaultLatencyBuckets covers 100µs … 10s, roughly logarithmic — wide
// enough for both the sub-millisecond full-disclosure deciders and the
// ~300ms probabilistic sum decisions noted in docs/DEPLOYMENT.md.
var DefaultLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram with atomic bucket counts. The
// bucket with upper bound bounds[i] counts observations v <= bounds[i];
// one implicit overflow bucket counts the rest. Sum is kept as float64
// bits updated by compare-and-swap.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is overflow
	count  atomic.Int64
	sumBit atomic.Uint64 // math.Float64bits of the running sum
}

// NewHistogram builds a histogram over the given ascending upper bounds.
// The bounds slice is copied. Passing nil uses DefaultLatencyBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBit.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBit.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBit.Load()) }

// HistogramSnapshot is a consistent-enough view of a histogram (bucket
// counts are read individually; under concurrent writes the snapshot may
// be mid-flight by a few observations, which is fine for monitoring).
type HistogramSnapshot struct {
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"` // len(Bounds)+1; last is overflow
}

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     h.Sum(),
		Bounds:  append([]float64(nil), h.bounds...),
		Buckets: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		s.Buckets[i] = h.counts[i].Load()
	}
	return s
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the snapshot by
// linear interpolation within the containing bucket. Returns the top
// bound for observations in the overflow bucket.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var seen float64
	lower := 0.0
	for i, c := range s.Buckets {
		if seen+float64(c) >= rank && c > 0 {
			if i >= len(s.Bounds) { // overflow bucket
				return s.Bounds[len(s.Bounds)-1]
			}
			upper := s.Bounds[i]
			frac := (rank - seen) / float64(c)
			return lower + frac*(upper-lower)
		}
		seen += float64(c)
		if i < len(s.Bounds) {
			lower = s.Bounds[i]
		}
	}
	if len(s.Bounds) > 0 {
		return s.Bounds[len(s.Bounds)-1]
	}
	return 0
}

// Registry holds named counters, gauges and histograms.
type Registry struct {
	mu     sync.Mutex
	ctrs   map[string]*Counter   // auditlint:guardedby(mu)
	gauges map[string]*Gauge     // auditlint:guardedby(mu)
	hists  map[string]*Histogram // auditlint:guardedby(mu)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:   map[string]*Counter{},
		gauges: map[string]*Gauge{},
		hists:  map[string]*Histogram{},
	}
}

// Counter returns the counter registered under name, creating it if
// needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given bounds (nil = DefaultLatencyBuckets) if needed. Bounds
// are fixed at first registration; later calls ignore the argument.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time export of every registered metric, with
// names sorted for stable rendering.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot exports all metrics.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.ctrs)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.ctrs {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// CounterNames returns the registered counter names, sorted.
func (r *Registry) CounterNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.ctrs))
	for n := range r.ctrs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

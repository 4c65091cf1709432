package main

import (
	"bytes"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"queryaudit/internal/audit"
	"queryaudit/internal/core"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/qindex"
	"queryaudit/internal/query"
	"queryaudit/internal/session"
)

// Tracer collects the traced run's spans and counts. Every span comes
// from the benchmark's own code: the ServeHTTP wrapper, the auditor
// decorator and the program's public observer hooks.
type Tracer struct {
	mu sync.Mutex
	// active maps a handler goroutine to its in-flight request, so the
	// engine and replay spans reported on that goroutine can be charged
	// to the request as child spans.
	active map[int64]*reqSpan

	serverSelf []time.Duration // ServeHTTP span minus engine and replay children (queries)
	updates    []time.Duration // ServeHTTP span of /v1/update
	engine     []time.Duration
	engineSum  time.Duration

	replays     int
	replayTotal time.Duration
	evictions   int
	shardWaits  int

	sqlHits, sqlMisses       int
	internHits, internMisses int

	mcDecisions         int
	mcEvaluated, mcBudg int
	mcBusy, mcCapacity  time.Duration

	auditors map[string]*auditorStats
}

type reqSpan struct{ child time.Duration }

func newTracer() *Tracer {
	return &Tracer{active: map[int64]*reqSpan{}, auditors: map[string]*auditorStats{}}
}

// reset drops everything recorded so far (the warm-up), keeping the
// sumfull rank high-water mark, which describes state, not work.
func (t *Tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.serverSelf, t.updates, t.engine, t.engineSum = nil, nil, nil, 0
	t.replays, t.replayTotal, t.evictions, t.shardWaits = 0, 0, 0, 0
	t.sqlHits, t.sqlMisses, t.internHits, t.internMisses = 0, 0, 0, 0
	t.mcDecisions, t.mcEvaluated, t.mcBudg, t.mcBusy, t.mcCapacity = 0, 0, 0, 0, 0
	for _, st := range t.auditors {
		st.mu.Lock()
		st.decide, st.record, st.noteUpdate, st.candidates = nil, 0, 0, 0
		st.mu.Unlock()
	}
}

// wrap decorates an auditor, recording into its package's stats.
func (t *Tracer) wrap(a audit.Auditor) audit.Auditor {
	name := layerName(a)
	t.mu.Lock()
	st, ok := t.auditors[name]
	if !ok {
		st = &auditorStats{}
		t.auditors[name] = st
	}
	t.mu.Unlock()
	return decorate(a, st)
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 123 [running]:").
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}

// addChild charges d to the request running on the calling goroutine.
func (t *Tracer) addChild(d time.Duration) {
	id := goid()
	t.mu.Lock()
	if rs := t.active[id]; rs != nil {
		rs.child += d
	}
	t.mu.Unlock()
}

// Handler wraps the server's ServeHTTP with the request span.
func (t *Tracer) Handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := goid()
		rs := &reqSpan{}
		t.mu.Lock()
		t.active[id] = rs
		t.mu.Unlock()
		t0 := time.Now()
		next.ServeHTTP(w, r)
		el := time.Since(t0)
		t.mu.Lock()
		delete(t.active, id)
		switch r.URL.Path {
		case "/v1/update":
			t.updates = append(t.updates, el)
		case "/v1/query", "/v1/queryset":
			t.serverSelf = append(t.serverSelf, el-rs.child)
		}
		t.mu.Unlock()
	})
}

// teeEngine forwards core.Observer events to the program's collector
// and to the tracer.
type teeEngine struct {
	next core.Observer
	t    *Tracer
}

func (o teeEngine) ObserveDecision(k query.Kind, denied bool, el time.Duration) {
	o.next.ObserveDecision(k, denied, el)
	o.t.mu.Lock()
	o.t.engine = append(o.t.engine, el)
	o.t.engineSum += el
	o.t.mu.Unlock()
	o.t.addChild(el)
}

func (o teeEngine) ObservePrime(committed int, ok bool) { o.next.ObservePrime(committed, ok) }

// teeSession forwards session.Observer events.
type teeSession struct {
	next session.Observer
	t    *Tracer
}

func (o teeSession) ObserveSessionCreated()  { o.next.ObserveSessionCreated() }
func (o teeSession) ObserveSessionExpired()  { o.next.ObserveSessionExpired() }
func (o teeSession) ObserveSessionRejected() { o.next.ObserveSessionRejected() }
func (o teeSession) ObserveLive(d int)       { o.next.ObserveLive(d) }

func (o teeSession) ObserveSessionEvicted() {
	o.next.ObserveSessionEvicted()
	o.t.mu.Lock()
	o.t.evictions++
	o.t.mu.Unlock()
}

func (o teeSession) ObserveReplay(events int, d time.Duration) {
	o.next.ObserveReplay(events, d)
	o.t.mu.Lock()
	o.t.replays++
	o.t.replayTotal += d
	o.t.mu.Unlock()
	o.t.addChild(d)
}

func (o teeSession) ObserveShardWait(shard, delta int) {
	o.next.ObserveShardWait(shard, delta)
	if delta > 0 {
		o.t.mu.Lock()
		o.t.shardWaits++
		o.t.mu.Unlock()
	}
}

// teeMC forwards mcpar.Observer events.
type teeMC struct {
	next mcpar.Observer
	t    *Tracer
}

func (o teeMC) ObserveMC(budget, evaluated, votes, workers int, wall, busy time.Duration) {
	o.next.ObserveMC(budget, evaluated, votes, workers, wall, busy)
	o.t.mu.Lock()
	o.t.mcDecisions++
	o.t.mcEvaluated += evaluated
	o.t.mcBudg += budget
	o.t.mcBusy += busy
	o.t.mcCapacity += wall * time.Duration(max(workers, 1))
	o.t.mu.Unlock()
}

// teeQIndex forwards qindex.Observer events.
type teeQIndex struct {
	next qindex.Observer
	t    *Tracer
}

func (o teeQIndex) ObserveEviction(layer string)           { o.next.ObserveEviction(layer) }
func (o teeQIndex) ObserveBuild(rows int, d time.Duration) { o.next.ObserveBuild(rows, d) }

func (o teeQIndex) ObserveResolve(layer string, hit bool) {
	o.next.ObserveResolve(layer, hit)
	if layer != "sql" {
		return
	}
	o.t.mu.Lock()
	if hit {
		o.t.sqlHits++
	} else {
		o.t.sqlMisses++
	}
	o.t.mu.Unlock()
}

func (o teeQIndex) ObserveIntern(hit bool) {
	o.next.ObserveIntern(hit)
	o.t.mu.Lock()
	if hit {
		o.t.internHits++
	} else {
		o.t.internMisses++
	}
	o.t.mu.Unlock()
}

// runtimeSample reads the Go runtime's cumulative allocation and CPU
// counters.
type runtimeSample struct {
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}

// layerMetrics turns the tracer's record of the measured phases into
// the per-layer metrics. wall is the measured phases' duration, requests
// their request count, rt0/rt1 the runtime counters around them.
func (t *Tracer) layerMetrics(wall time.Duration, requests int, rt0, rt1 runtimeSample) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := map[string]float64{
		"server.self_ms.p50":       ms(quantile(t.serverSelf, 0.5)),
		"session.replays":          float64(t.replays),
		"session.replay_ms.total":  ms(t.replayTotal),
		"session.evictions":        float64(t.evictions),
		"session.shard_waits":      float64(t.shardWaits),
		"session.update_ms.p50":    ms(quantile(t.updates, 0.5)),
		"core.engine_ms.p50":       ms(quantile(t.engine, 0.5)),
		"core.engine_ms.p99":       ms(quantile(t.engine, 0.99)),
		"core.engine_busy_frac":    ratio(t.engineSum.Seconds(), wall.Seconds()*float64(runtime.GOMAXPROCS(0))),
		"qindex.sql_hit_ratio":     ratio(float64(t.sqlHits), float64(t.sqlHits+t.sqlMisses)),
		"qindex.intern_hit_ratio":  ratio(float64(t.internHits), float64(t.internHits+t.internMisses)),
		"mcpar.samples_per_decide": ratio(float64(t.mcEvaluated), float64(t.mcDecisions)),
		"mcpar.saved_frac":         ratio(float64(t.mcBudg-t.mcEvaluated), float64(t.mcBudg)),
		"mcpar.busy_frac":          ratio(t.mcBusy.Seconds(), t.mcCapacity.Seconds()),
		"runtime.alloc_mb_per_req": ratio((rt1.allocBytes-rt0.allocBytes)/1e6, float64(requests)),
		"runtime.gc_cpu_frac":      ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU),
	}
	get := func(name string) *auditorStats {
		if st := t.auditors[name]; st != nil {
			return st
		}
		return &auditorStats{}
	}
	for _, name := range []string{"maxminfull", "sumfull", "sumprob", "maxminprob"} {
		st := get(name)
		st.mu.Lock()
		m[name+".decide_ms.p50"] = ms(quantile(st.decide, 0.5))
		m[name+".decide_ms.p99"] = ms(quantile(st.decide, 0.99))
		m[name+".decide_ms.total"] = ms(sum(st.decide))
		m[name+".record_ms.total"] = ms(st.record)
		m[name+".note_update_ms.total"] = ms(st.noteUpdate)
		if name == "maxminfull" {
			m[name+".candidates_per_decide"] = ratio(float64(st.candidates), float64(len(st.decide)))
		}
		if name == "sumfull" {
			m[name+".rank"] = float64(st.rank)
		}
		st.mu.Unlock()
	}
	return m
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

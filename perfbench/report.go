package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// openStats summarizes the open phase: due-time latencies of queries
// and of updates, dispatcher lag, and queries completed within the SLO.
type openStats struct {
	queries, updates, lags []time.Duration
	withinSLO              int
}

func (rd *runData) open(w *Workload) openStats {
	var s openStats
	slo := time.Duration(w.SLOms * float64(time.Millisecond))
	lo, hi := phaseRange(rd.ops, PhaseOpen)
	for i := lo; i < hi; i++ {
		r := rd.results[i]
		s.lags = append(s.lags, r.Lag)
		if rd.ops[i].Update {
			s.updates = append(s.updates, r.Latency)
			continue
		}
		s.queries = append(s.queries, r.Latency)
		if !r.Failed() && r.Latency <= slo {
			s.withinSLO++
		}
	}
	return s
}

// withinSLO is the open phase's queries answered or denied within the
// workload's SLO, timed from their due time, per second.
func (rd *runData) withinSLO(w *Workload) float64 {
	return ratio(float64(rd.open(w).withinSLO), rd.openWall.Seconds())
}

// throughput is the closed phase's answered plus denied requests per
// second.
func (rd *runData) throughput() float64 {
	done, _ := rd.closedDone()
	return ratio(float64(done), rd.closedWall.Seconds())
}

// closedDone counts the closed phase's answered plus denied requests.
func (rd *runData) closedDone() (done, total int) {
	lo, hi := phaseRange(rd.ops, PhaseClosed)
	for i := lo; i < hi; i++ {
		total++
		if r := rd.results[i]; r.Answered || r.Denied {
			done++
		}
	}
	return done, total
}

// beyond is how many of n samples lie above the q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// measured counts the requests of the closed and open phases.
func (rd *runData) measured() int {
	lo, _ := phaseRange(rd.ops, PhaseClosed)
	return len(rd.ops) - lo
}

// setupSeconds is the median boot time as measured.
func (rd *runData) setupSeconds() float64 {
	setup := make([]float64, len(rd.setup))
	for i, d := range rd.setup {
		setup[i] = d.Seconds()
	}
	return medianFloat(setup)
}

// cpuPerReq is the server's CPU time per measured request as measured.
func (rd *runData) cpuPerReq() float64 {
	return ratio(ms(rd.measureCPU), float64(rd.measured()))
}

// endToEnd computes the end-to-end metrics of an untraced run; setup_s
// and cpu_ms_per_req are at the reference speed (see calib.go).
func (rd *runData) endToEnd() map[string]metric {
	wall, cpu := speedScale(rd.calib)
	rss := make([]float64, len(rd.rss))
	for i, v := range rd.rss {
		rss[i] = float64(v) / (1 << 20)
	}
	return map[string]metric{
		"setup_s":        {rd.setupSeconds() * wall, "s"},
		"cpu_ms_per_req": {rd.cpuPerReq() * cpu, "ms"},
		"rss_mb":         {medianFloat(rss), "MB"},
	}
}

// printSummary prints the run's end-to-end figures with their sample
// counts, plus the figures that are not bounded metrics: the error
// fraction, update latency and the generator's lag.
func (rd *runData) printSummary(out io.Writer, label string, w *Workload) {
	done, total := rd.closedDone()
	op := rd.open(w)
	o := rd.outcome
	attempted := len(rd.ops)
	fmt.Fprintf(out, "%s: attempted %d, answered %d, denied %d, updates %d, failed %d (error_frac %.4f)\n",
		label, attempted, o.Answered, o.Denied, o.Updates, o.Failed, ratio(float64(o.Failed), float64(attempted)))
	wall, cpu := speedScale(rd.calib)
	if len(rd.calib) > 0 {
		fmt.Fprintf(out, "  setup_s          %10.4f s    median of %d boots, at reference speed (as measured %.4f s)\n",
			rd.setupSeconds()*wall, len(rd.setup), rd.setupSeconds())
	} else {
		fmt.Fprintf(out, "  setup_s          %10.4f s    as measured, %d boot\n", rd.setupSeconds(), len(rd.setup))
	}
	fmt.Fprintf(out, "  throughput_qps   %10.2f 1/s  closed phase, %d of %d requests answered or denied in %.2fs (not bounded: see NOTES.md)\n",
		rd.throughput(), done, total, rd.closedWall.Seconds())
	for _, q := range []float64{0.5, 0.9, 0.95} {
		fmt.Fprintf(out, "  p%-2.0f_ms           %10.3f ms   open phase, %d queries due at %.4g/s, %d beyond (not bounded: see NOTES.md)\n",
			q*100, ms(quantile(op.queries, q)), len(op.queries), w.OpenRate, beyond(len(op.queries), q))
	}
	fmt.Fprintf(out, "  qps_within_slo   %10.2f 1/s  open phase, %d queries within %gms in %.2fs (not bounded: see NOTES.md)\n",
		rd.withinSLO(w), op.withinSLO, w.SLOms, rd.openWall.Seconds())
	if rd.measureCPU > 0 {
		fmt.Fprintf(out, "  cpu_ms_per_req   %10.3f ms   server utime+stime over %d closed- and open-phase requests, at reference speed (as measured %.3f; closed phase alone %.3f)\n",
			rd.cpuPerReq()*cpu, rd.measured(), rd.cpuPerReq(), ratio(ms(rd.serverCPU), float64(total)))
		fmt.Fprintf(out, "  rss_mb           %10.1f MB   median of %d server VmRSS samples over both phases (VmHWM %.1f MB)\n",
			rd.endToEnd()["rss_mb"].Value, len(rd.rss), float64(rd.peakRSS)/(1<<20))
		fmt.Fprintf(out, "  speed scale      wall %.4f CPU %.4f: %gms over the median of %d calibration units (%.3f ms wall, %.3f ms CPU)\n",
			wall, cpu, ms(calibRef), len(rd.calib), ms(calibRef)/wall, ms(calibRef)/cpu)
		fmt.Fprintf(out, "  server CPU       %10.1f%%      of %d CPUs over the open phase\n",
			100*ratio((rd.measureCPU-rd.serverCPU).Seconds(), rd.openWall.Seconds()*float64(runtime.NumCPU())), runtime.NumCPU())
	}
	byKind := map[string][]time.Duration{}
	lo, hi := phaseRange(rd.ops, PhaseOpen)
	for i := lo; i < hi; i++ {
		if !rd.ops[i].Update {
			byKind[rd.ops[i].Kind] = append(byKind[rd.ops[i].Kind], rd.results[i].Latency)
		}
	}
	for _, k := range []string{"sum", "max", "min"} {
		if ds := byKind[k]; len(ds) > 0 {
			fmt.Fprintf(out, "  open %-4s        p50 %9.3f ms  p95 %9.3f ms  (%d queries)\n", k, ms(quantile(ds, 0.5)), ms(quantile(ds, 0.95)), len(ds))
		}
	}
	if len(op.updates) > 0 {
		fmt.Fprintf(out, "  update_p50_ms    %10.3f ms   open phase, %d updates\n", ms(quantile(op.updates, 0.5)), len(op.updates))
	}
	fmt.Fprintf(out, "  gen.lag_ms.p99   %10.3f ms   open-phase dispatcher lateness over %d releases\n", ms(quantile(op.lags, 0.99)), len(op.lags))
}

// layerMetrics assembles the --trace 1 metrics: the per-layer figures,
// the traced run's own end-to-end numbers, and its overhead against the
// untraced run.
func (b *bench) layerMetrics(u, t *runData) map[string]metric {
	vals := map[string]float64{}
	for name, v := range t.extra {
		vals[name] = v
	}
	vals["traced.setup_s"] = t.setupSeconds()
	vals["traced.qps_within_slo"] = t.withinSLO(b.w)
	vals["untraced.qps_within_slo"] = u.withinSLO(b.w)
	vals["traced.throughput_qps"] = t.throughput()
	vals["untraced.throughput_qps"] = u.throughput()
	for label, rd := range map[string]*runData{"untraced": u, "traced": t} {
		qs := rd.open(b.w).queries
		vals[label+".p50_ms"] = ms(quantile(qs, 0.5))
		vals[label+".p90_ms"] = ms(quantile(qs, 0.9))
	}
	vals["trace.overhead_frac"] = 1 - ratio(t.throughput(), u.throughput())
	vals["gen.lag_ms.p99"] = ms(quantile(t.open(b.w).lags, 0.99))
	// The share of the untraced server's CPU over the same measured
	// phases that the traced run spent in maxminfull.Decide.
	vals["maxminfull.decide_cpu_share"] = ratio(t.extra["maxminfull.decide_ms.total"], ms(u.measureCPU))
	out := map[string]metric{}
	for _, ln := range b.cfg.Layers {
		v, ok := vals[ln.Metric]
		if !ok {
			b.chk.failf("per-layer metric %s was not measured", ln.Metric)
		}
		out[ln.Metric] = metric{v, ln.Unit}
	}
	return out
}

// resolveMean times the server's SQL resolver over the workload's
// statement sequence, after the run (memos warm, as in steady state),
// and returns the mean per statement in microseconds.
func resolveMean(st *Stack, ops []Op) float64 {
	res := st.Server.Resolver()
	n := 0
	t0 := time.Now()
	for _, op := range ops {
		if op.SQL != "" {
			_, _ = res.ResolveSQL("salary", op.SQL)
			n++
		}
	}
	return ratio(float64(time.Since(t0).Microseconds()), float64(n))
}

// applySequential applies a schedule's ops one at a time, in order,
// straight into the stack's handler: no network and no concurrency.
// Because each analyst's requests keep their order and updates are
// barriers, its outcome is the outcome every run must reproduce.
func applySequential(st *Stack, ops []Op) ([]Result, error) {
	res := make([]Result, len(ops))
	for i, op := range ops {
		req, err := request(context.Background(), "http://perfbench", op)
		if err != nil {
			return nil, err
		}
		rec := httptest.NewRecorder()
		st.Server.ServeHTTP(rec, req)
		res[i] = parseReply(op, rec.Code, rec.Body.Bytes())
	}
	return res, nil
}

// writePins computes the workload's outcome in-process, applying the
// schedule of two different seeds, and records it in pins.json.
func writePins(w *Workload, dir string, seconds float64) error {
	var pin Pin
	for seed := int64(0); seed < 2; seed++ {
		ops, err := buildSchedule(w, seed, seconds)
		if err != nil {
			return err
		}
		st, err := buildStack(w, nil, "")
		if err != nil {
			return err
		}
		t0 := time.Now()
		res, err := applySequential(st, ops)
		st.Mgr.Close()
		if err != nil {
			return err
		}
		chk := checker{w: w}
		chk.checkAnswers(ops, res)
		o := tally(ops, res)
		infos := st.Mgr.Sessions()
		chk.checkOutcome("pin", o, len(ops), infos, nil)
		if len(chk.errors) > 0 || o.Failed > 0 {
			return fmt.Errorf("seed %d: %d failed requests; %v", seed, o.Failed, chk.errors)
		}
		hash, _, _ := digestOf(infos)
		p := Pin{Answered: o.Answered, Denied: o.Denied, Digest: hash}
		fmt.Printf("%s %s seed %d: answered %d denied %d digest %s (%d requests in %.1fs)\n",
			w.Name, pinKey(seconds), seed, p.Answered, p.Denied, p.Digest, len(ops), time.Since(t0).Seconds())
		if seed > 0 && p != pin {
			return fmt.Errorf("seeds 0 and %d reach different outcomes: %+v, %+v", seed, pin, p)
		}
		pin = p
	}
	pins, err := loadPins(dir)
	if os.IsNotExist(err) {
		pins, err = Pins{}, nil
	}
	if err != nil {
		return err
	}
	if pins[w.Name] == nil {
		pins[w.Name] = map[string]Pin{}
	}
	pins[w.Name][pinKey(seconds)] = pin
	raw, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "pins.json"), append(raw, '\n'), 0o644)
}

// Command perfbench is the repository's benchmark. It drives the real
// auditserver binary over loopback HTTP with a request schedule derived
// from --seed, checks every output, and prints the end-to-end metrics;
// with --trace 1 it then repeats the schedule against the same stack
// built in-process under a tracer and prints the per-layer metrics.
//
// Run it from the repository root through run.py, which builds both
// binaries first:
//
//	python3 perfbench/run.py --workload dashboard --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit code is 1
// when any output check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"queryaudit/internal/session"
)

// calibPause is how many calibUnit timings are taken, with the server
// idle, after the warm-up, between the measured phases and after them,
// on top of one before each boot, so that the calibration spans the run.
const calibPause = 5

// deadline bounds a whole run, so a hung server cannot hold the
// benchmark past its time limit.
const deadline = 170 * time.Second

func main() {
	var (
		workload = flag.String("workload", "", "workload name (see workloads.json)")
		seed     = flag.Int64("seed", 1, "schedule seed")
		seconds  = flag.Float64("seconds", 30, "measured time per run at the seed's speed; sizes the fixed work of the measured phases")
		trace    = flag.Int("trace", 0, "1 = also run the traced in-process stack and print per-layer metrics")
		dir      = flag.String("dir", "perfbench", "directory holding workloads.json and pins.json")
		bin      = flag.String("bin", ".bench_build/bin/auditserver", "auditserver binary")
		work     = flag.String("work", ".bench_build/run", "directory for server logs and snapshots")
		pin      = flag.Bool("pin", false, "compute the workload's pinned outcome in-process and write it to pins.json")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	cfg, err := loadConfig(*dir)
	if err != nil {
		log.Fatal(err)
	}
	w, err := cfg.workload(*workload)
	if err != nil {
		log.Fatal(err)
	}
	if *pin {
		if err := writePins(w, *dir, *seconds); err != nil {
			log.Fatal(err)
		}
		return
	}
	pins, err := loadPins(*dir)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	p, ok := pins[w.Name][pinKey(*seconds)]
	if !ok {
		// Without a pin a flipped verdict would pass unnoticed.
		log.Fatalf("pins.json has no pin for %s at %s; compute one with --pin", w.Name, pinKey(*seconds))
	}
	b := &bench{cfg: cfg, w: w, seed: *seed, seconds: *seconds, bin: *bin, work: *work, conns: min(runtime.NumCPU(), 2), pin: p}
	os.Exit(b.run(ctx, *trace == 1, os.Stdout))
}

// bench is one benchmark run.
type bench struct {
	cfg     *Config
	w       *Workload
	seed    int64
	seconds float64
	bin     string
	work    string
	conns   int
	pin     Pin
	chk     checker
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (b *bench) run(ctx context.Context, traced bool, out io.Writer) int {
	b.chk.w = b.w
	ops, err := buildSchedule(b.w, b.seed, b.seconds)
	if err != nil {
		log.Print(err)
		return 1
	}
	fmt.Fprintf(out, "workload %s seed %d: %d requests, %d connections\n",
		b.w.Name, b.seed, len(ops), b.conns)
	u, err := b.runBinary(ctx, ops)
	if err != nil {
		log.Print(err)
		return 1
	}
	b.chk.checkAnswers(ops, u.results)
	b.chk.checkOutcome("untraced", u.outcome, len(ops), u.sessions, &b.pin)
	u.printSummary(out, "untraced", b.w)
	metrics := u.endToEnd()
	if traced {
		t, err := b.runTraced(ctx, ops, u)
		if err != nil {
			log.Print(err)
			return 1
		}
		b.chk.checkAnswers(ops, t.results)
		b.chk.checkOutcome("traced", t.outcome, len(ops), t.sessions, &b.pin)
		uh, _, _ := digestOf(u.sessions)
		th, _, _ := digestOf(t.sessions)
		if t.outcome.Answered != u.outcome.Answered || t.outcome.Denied != u.outcome.Denied || th != uh {
			b.chk.failf("traced run answered/denied/digest %d/%d/%s != untraced %d/%d/%s",
				t.outcome.Answered, t.outcome.Denied, th, u.outcome.Answered, u.outcome.Denied, uh)
		}
		t.printSummary(out, "traced", b.w)
		metrics = b.layerMetrics(u, t)
		printLayers(out, metrics)
	}
	correct := len(b.chk.errors) == 0
	for _, e := range b.chk.errors {
		fmt.Fprintf(out, "CHECK FAILED: %s\n", e)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, len(ops), u.outcome.Failed, metrics})
	if err != nil {
		log.Print(err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !correct {
		return 1
	}
	return 0
}

// phaseRange returns the [lo, hi) op indices of a phase.
func phaseRange(ops []Op, ph Phase) (int, int) {
	lo, hi := -1, -1
	for i, op := range ops {
		if op.Phase == ph {
			if lo < 0 {
				lo = i
			}
			hi = i + 1
		}
	}
	if lo < 0 {
		return 0, 0
	}
	return lo, hi
}

// runData is what one pass over the schedule measured.
type runData struct {
	ops        []Op
	results    []Result
	setup      []time.Duration
	calib      []calibSample // calibUnit times around the boots and phases
	closedWall time.Duration
	openWall   time.Duration
	serverCPU  time.Duration // closed phase
	measureCPU time.Duration // closed + open phases
	rss        []int64       // server VmRSS samples over the measured phases
	peakRSS    int64         // server VmHWM at the end
	outcome    Outcome
	sessions   []session.Info
	snapshot   string
	extra      map[string]float64
}

// drive runs the warm-up and the two measured phases against base.
// before is called after the warm-up, mid after the closed phase, and
// after after the open phase.
func (b *bench) drive(ctx context.Context, base string, ops []Op, rd *runData, before, mid, after func()) {
	d := newDriver(base, b.conns, ops)
	defer d.close()
	if lo, hi := phaseRange(ops, PhaseWarm); hi > lo {
		d.runClosed(ctx, lo, ops[lo:hi])
	}
	before()
	lo, hi := phaseRange(ops, PhaseClosed)
	rd.closedWall = d.runClosed(ctx, lo, ops[lo:hi])
	mid()
	lo, hi = phaseRange(ops, PhaseOpen)
	rd.openWall = d.runOpen(ctx, lo, ops[lo:hi])
	after()
	// Prep ops went to the prep server; their results are recorded
	// there (see prepare) and copied in by the caller.
	for i := range d.results {
		if ops[i].Phase != PhasePrep {
			rd.results[i] = d.results[i]
		}
	}
}

// runBinary runs the schedule against the auditserver binary.
func (b *bench) runBinary(ctx context.Context, ops []Op) (*runData, error) {
	rd := &runData{ops: ops, results: make([]Result, len(ops))}
	var prep string
	if b.w.Prep > 0 {
		var err error
		if prep, err = b.prepare(ctx, ops, rd); err != nil {
			return nil, err
		}
		rd.snapshot = prep
	}
	var srv *Proc
	for boot := 0; boot < b.w.Boots; boot++ {
		snap := ""
		if prep != "" {
			snap = filepath.Join(b.work, fmt.Sprintf("boot%d.json", boot))
			if err := copyFile(prep, snap); err != nil {
				return nil, err
			}
		}
		rd.calib = append(rd.calib, calibUnit())
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		p, took, err := startServer(ctx, b.bin, serverArgs(b.w, addr, snap), filepath.Join(b.work, fmt.Sprintf("server%d.log", boot)))
		if err != nil {
			return nil, err
		}
		rd.setup = append(rd.setup, took)
		if boot < b.w.Boots-1 {
			if err := p.stop(); err != nil {
				return nil, fmt.Errorf("stopping boot %d: %w", boot, err)
			}
			continue
		}
		srv = p
	}
	defer srv.kill()
	var cpu0, cpu1, cpu2 time.Duration
	readCPU := func(dst *time.Duration) {
		c, err := srv.cpuTime()
		if err != nil {
			b.chk.failf("reading server CPU time: %v", err)
		}
		*dst = c
	}
	calibrate := func() {
		for i := 0; i < calibPause; i++ {
			rd.calib = append(rd.calib, calibUnit())
		}
	}
	stop := make(chan struct{})
	var samples <-chan []int64
	b.drive(ctx, srv.Base, ops, rd,
		func() { calibrate(); readCPU(&cpu0); samples = srv.sampleRSS(100*time.Millisecond, stop) },
		func() { readCPU(&cpu1); calibrate() },
		func() { readCPU(&cpu2); close(stop) })
	rd.rss = <-samples
	calibrate()
	rd.serverCPU, rd.measureCPU = cpu1-cpu0, cpu2-cpu0
	infos, err := fetchSessions(srv.Base)
	if err != nil {
		return nil, err
	}
	rd.sessions = infos
	if rd.peakRSS, err = srv.memory("VmHWM"); err != nil {
		return nil, err
	}
	rd.outcome = tally(rd.ops, rd.results)
	return rd, nil
}

// prepare sends the prep phase to a fresh server with a session
// snapshot, stops it gracefully so the snapshot is written, and returns
// the snapshot's path.
func (b *bench) prepare(ctx context.Context, ops []Op, rd *runData) (string, error) {
	snap := filepath.Join(b.work, "prep.json")
	if err := os.Remove(snap); err != nil && !os.IsNotExist(err) {
		return "", err
	}
	addr, err := freeAddr()
	if err != nil {
		return "", err
	}
	p, _, err := startServer(ctx, b.bin, serverArgs(b.w, addr, snap), filepath.Join(b.work, "prep.log"))
	if err != nil {
		return "", err
	}
	lo, hi := phaseRange(ops, PhasePrep)
	d := newDriver(p.Base, b.conns, ops)
	d.runClosed(ctx, lo, ops[lo:hi])
	d.close()
	copy(rd.results[lo:hi], d.results[lo:hi])
	if err := p.stop(); err != nil {
		return "", fmt.Errorf("stopping prep server: %w", err)
	}
	if _, err := os.Stat(snap); err != nil {
		return "", fmt.Errorf("prep server wrote no snapshot: %w", err)
	}
	return snap, nil
}

// runTraced runs the schedule against the stack built in-process under
// the tracer, served on loopback.
func (b *bench) runTraced(ctx context.Context, ops []Op, u *runData) (*runData, error) {
	rd := &runData{ops: ops, results: make([]Result, len(ops))}
	prepSnap := u.snapshot
	if prepSnap != "" {
		// The prep phase's verdicts are the untraced prep server's: the
		// traced stack boots from the same snapshot.
		lo, hi := phaseRange(ops, PhasePrep)
		copy(rd.results[lo:hi], u.results[lo:hi])
	}
	tr := newTracer()
	t0 := time.Now()
	st, err := buildStack(b.w, tr, prepSnap)
	if err != nil {
		return nil, err
	}
	defer st.Mgr.Close()
	rd.setup = []time.Duration{time.Since(t0)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: tr.Handler(st.Server), ReadHeaderTimeout: 5 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		_ = hs.Shutdown(context.Background())
		<-served
	}()
	base := "http://" + ln.Addr().String()
	var rt0, rt1 runtimeSample
	b.drive(ctx, base, ops, rd,
		func() { tr.reset(); rt0 = readRuntime() }, func() {}, func() { rt1 = readRuntime() })
	infos, err := fetchSessions(base)
	if err != nil {
		return nil, err
	}
	rd.sessions = infos
	rd.outcome = tally(rd.ops, rd.results)
	rd.extra = tr.layerMetrics(rd.closedWall+rd.openWall, rd.measured(), rt0, rt1)
	rd.extra["session.restore_s"] = st.Restore.Seconds()
	rd.extra["qindex.resolve_us.mean"] = resolveMean(st, ops)
	return rd, nil
}

func copyFile(src, dst string) error {
	raw, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, raw, 0o644)
}

// printLayers prints the per-layer metrics, one per line.
func printLayers(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  layer %-34s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

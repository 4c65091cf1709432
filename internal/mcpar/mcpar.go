// Package mcpar is the shared parallel Monte Carlo decision engine behind
// the probabilistic simulatable auditors (Section 3). Every decision of
// maxprob, maxminprob and sumprob reduces to the same shape: run up to
// `budget` independent sample evaluations, count how many vote "unsafe",
// and deny iff the unsafe fraction exceeds the δ/(2T) threshold. This
// package schedules that budget — across the caller and a process-wide
// assist pool shared by ALL concurrent decisions (see Scheduler) — while
// keeping the decision bit-identical at ANY worker count, including 1.
//
// # Determinism
//
// Sample i draws all of its randomness from a counter-based stream keyed
// by (seed, i) — randx.Stream — so its verdict is a pure function of the
// sample index, never of scheduling. Verdicts commit into a per-index
// result table and every stopping rule is evaluated only at contiguous
// prefixes of it, in index order (see run), so the decision, the vote
// count, and the certificate point are all deterministic values of the
// seed: identical at every worker count and under any interleaving with
// other analysts' decisions.
//
// # Early exit
//
// Votes only accumulate, so prefix counts yield sound certificates about
// the full-budget outcome:
//
//   - votes > barrier            ⇒ U > barrier (deny), stop sampling;
//   - votes + remaining ≤ barrier ⇒ U ≤ barrier (answer), stop sampling.
//
// Either certificate proves the decision the full budget would have made,
// so early exit never changes a decision. With Config.AdaptiveAlpha > 0 a
// third, variance-aware rule joins them: an empirical-Bernstein
// sequential test that stops once the full-budget unsafe fraction is
// pinned on one side of the barrier with confidence 1-alpha. It can save
// most of the budget when the unsafe fraction is far from the threshold,
// at the cost of a ≤ alpha chance of deciding differently from the full
// budget — still deterministically: the test reads only prefix counts,
// so a given seed stops at the same point at every worker count.
//
// The caller evaluates position 0 alone before it offers the scheduler
// any work token, so a decision its first sample settles (a deny under
// barrier 0) costs one sample and no assist, while one that needs more
// loses at most one sample-time of overlap.
//
// Workers can have samples in flight when a rule fires. The claim window
// bounds them (evaluated + cancelled ≤ CertPoint + Workers), and the
// run's Stop signal tells them their verdicts will never be read: a long
// sample polls it and returns early, and Vote waits only for those
// returns. Outcome.Evaluated counts samples committed before the rule
// fired; the in-flight ones are Outcome.Cancelled.
//
// # Worker isolation
//
// Samples run on "lanes": paired (source, rand.Rand, scratch) pooled per
// run, at most one per worker, never shared between two in-flight
// samples. The source is reseeded to (seed, i) before sample i, so lanes
// affect only allocation reuse, never randomness. CI runs the auditor
// tests under -race to enforce the isolation.
package mcpar

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"queryaudit/internal/randx"
)

// Config selects the scheduling and the random seed of one Vote run.
type Config struct {
	// Workers caps this decision's parallelism; 0 means
	// runtime.GOMAXPROCS(0), and 1 forces the fully sequential inline
	// path (same decisions, no goroutines, no scheduler).
	Workers int
	// Seed keys the per-sample random streams. Two runs with the same
	// seed, budget and sample function reach the same decision at any
	// worker count.
	Seed int64
	// Observer, when non-nil, receives one report per Vote run.
	Observer Observer
	// Sched is the assist pool to draw spare capacity from; nil selects
	// the process-wide Default(). The pool is shared by all concurrent
	// decisions — Workers only caps how much of it one decision may use.
	Sched *Scheduler
	// AdaptiveAlpha, when positive, arms the adaptive sequential test
	// (see package doc): stop as soon as the decision is pinned with
	// confidence 1-AdaptiveAlpha. Zero keeps the exact certificates only,
	// which never change a decision.
	AdaptiveAlpha float64
	// Stop, when non-nil, is the run's stop signal for samples to poll:
	// Vote lowers it when the run starts and raises it when a stopping
	// rule fires. nil gives the run a private signal.
	Stop *Stop
}

// Observer receives per-decision Monte Carlo accounting — sample budget
// vs samples actually evaluated (early-exit savings) and wall vs busy
// time (parallel speedup). internal/metrics.MCCollector implements it.
type Observer interface {
	ObserveMC(budget, evaluated, votes, workers int, wall, busy time.Duration)
}

// Outcome reports one Vote run.
type Outcome struct {
	// Budget is the sample budget requested.
	Budget int
	// Evaluated is how many samples ran to completion before a stopping
	// rule fired. It may vary with scheduling but is bounded:
	// CertPoint ≤ Evaluated ≤ CertPoint+Workers.
	Evaluated int
	// Cancelled is how many samples were still in flight when the rule
	// fired. Their verdicts are discarded, and each either returned early
	// on the Stop signal or finished unread. Evaluated+Cancelled ≤
	// CertPoint+Workers.
	Cancelled int
	// Votes counts "unsafe" verdicts among the first CertPoint samples —
	// the prefix the decision is taken on. Deterministic at any worker
	// count, unlike Evaluated.
	Votes int
	// Workers is the resolved per-decision cap.
	Workers int
	// Exceeded reports the decision: deny (the unsafe count provably — or,
	// under the adaptive rule, confidently — exceeds the barrier) versus
	// answer.
	Exceeded bool
	// CertPoint is the deterministic sample count at which a stopping
	// rule fired (== Budget when none fired early). Identical at every
	// worker count, and identical to the sequential loop's stop point.
	CertPoint int
	// Adaptive reports that the stop came from the adaptive sequential
	// test rather than an exact certificate.
	Adaptive bool
	// busy is the summed per-worker time inside the sample loop;
	// observers receive it via ObserveMC.
	busy time.Duration
}

// resolveWorkers maps the Workers knob onto a concrete pool size.
func (c Config) resolveWorkers(budget int) int {
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > budget {
		w = budget
	}
	if w < 1 {
		w = 1
	}
	return w
}

// DenyBarrier returns the largest vote count k such that k out of budget
// does NOT exceed threshold under the auditors' historical float
// comparison float64(k)/float64(budget) > threshold. A decision denies
// iff votes > DenyBarrier(budget, threshold).
func DenyBarrier(budget int, threshold float64) int {
	if budget <= 0 {
		return 0
	}
	k := int(threshold * float64(budget))
	if k > budget {
		k = budget
	}
	for k < budget && float64(k+1)/float64(budget) <= threshold {
		k++
	}
	for k > 0 && float64(k)/float64(budget) > threshold {
		k--
	}
	return k
}

// chunkFor sizes the assist work quantum: small enough that a token
// cycles back through the queue often (fairness across concurrent
// decisions), large enough to amortize the queue round-trip.
func chunkFor(budget, workers int) int {
	c := budget / (4 * workers)
	if c < 1 {
		c = 1
	}
	if c > 64 {
		c = 64
	}
	return c
}

// lane pairs one rand.Rand (over a reseedable splitmix source) with one
// scratch value. A lane serves one in-flight sample at a time; the pool
// hands it to whichever claimant runs the next sample. Reseeding before
// every sample makes lane identity irrelevant to randomness — it only
// carries allocation reuse.
type lane[S any] struct {
	src *randx.SplitMix
	// rng is confined to the lane: exactly one in-flight sample holds a
	// lane at any time (taken from and returned to a buffered channel).
	rng     *rand.Rand //auditlint:allow rngshare lane is held by exactly one in-flight sample at a time via the lanes channel
	scratch S
}

// Stop is a run's stop signal (Config.Stop), raised when a stopping rule
// fires. From then on no sample's verdict is read, so a long sample may
// poll Stopped and return at once; the verdict it returns is discarded.
type Stop struct{ flag atomic.Bool }

// Stopped reports whether the run's stopping rule has fired.
func (s *Stop) Stopped() bool { return s.flag.Load() }

// Vote runs sample(i, rng, scratch) for i ∈ [0, budget), counting true
// returns as unsafe votes, and reports whether the full-budget vote count
// exceeds barrier. Each sample's rng is the (cfg.Seed, i) stream; scratch
// is per-lane state from newScratch (at most Workers lanes; may build
// reusable buffers). sample must not touch anything mutable outside its
// scratch — shared inputs (the synopsis, the query) are read-only. A
// sample may poll cfg.Stop to return early once its verdict is no longer
// needed. Vote returns only after every sample it started has returned.
//
// The calling goroutine always participates: with Workers == 1 the whole
// run is inline and allocation-light. With Workers > 1 the caller first
// evaluates position 0 alone; only if that verdict fires no certificate
// are up to Workers-1 work tokens offered to the scheduler, and the
// caller races the assists for the remaining samples. A lone decision
// therefore loses at most one sample-time of overlap. An assist starts a
// sample only on a free CPU slot of the scheduler (see Scheduler), so
// under load the caller runs the decision alone.
func Vote[S any](cfg Config, budget, barrier int, newScratch func() S, sample func(i int, rng *rand.Rand, scratch S) bool) Outcome {
	workers := cfg.resolveWorkers(budget)
	start := time.Now() //auditlint:allow detrand latency metric stamp, never a decision input
	if budget <= 0 {
		out := Outcome{Workers: workers}
		if cfg.Observer != nil {
			wall := time.Since(start) //auditlint:allow detrand latency metric stamp, never a decision input
			cfg.Observer.ObserveMC(0, 0, 0, workers, wall, wall)
		}
		return out
	}

	var sched *Scheduler
	if workers > 1 {
		sched = cfg.Sched
		if sched == nil {
			sched = Default()
		}
	}
	stop := cfg.Stop
	if stop == nil {
		stop = new(Stop)
	}
	stop.flag.Store(false)
	r := newRun(budget, barrier, workers, chunkFor(budget, workers), cfg.AdaptiveAlpha, sched, stop)
	lanes := make(chan *lane[S], workers)
	var created int32
	var busy atomic.Int64
	r.eval = func(i int) bool {
		var l *lane[S]
		select {
		case l = <-lanes:
		default:
			if int(atomic.AddInt32(&created, 1)) <= workers {
				src := randx.NewSplitMix(cfg.Seed, uint64(i))
				l = &lane[S]{src: src, rng: rand.New(src), scratch: newScratch()}
			} else {
				l = <-lanes
			}
		}
		l.src.Reseed(cfg.Seed, uint64(i))
		begin := time.Now() //auditlint:allow detrand latency metric stamp, never a decision input
		unsafe := sample(i, l.rng, l.scratch)
		busy.Add(int64(time.Since(begin))) //auditlint:allow detrand latency metric stamp, never a decision input
		lanes <- l
		return unsafe
	}

	if sched != nil {
		sched.acquire()
	}
	// Probe, then fan out (see above).
	callerRan := r.work(1, false)
	tokens := 0
	if sched != nil && r.claimable() {
		tokens = sched.offer(r, workers-1)
	}
	callerRan += r.work(0, false)
	if sched != nil {
		sched.release()
	}
	<-r.done

	r.mu.Lock()
	out := Outcome{
		Budget:    budget,
		Evaluated: r.evaluated,
		Cancelled: r.cancelled,
		Votes:     r.prefixVote,
		Workers:   workers,
		Exceeded:  r.deny,
		CertPoint: r.certPoint,
		Adaptive:  r.adaptive,
		busy:      time.Duration(busy.Load()),
	}
	declined := r.declined
	r.mu.Unlock()

	if tokens > 0 {
		sched.observe(SchedRun{
			Tokens:    tokens,
			Declined:  declined,
			Assisted:  int(r.assisted.Load()),
			Caller:    callerRan,
			Cancelled: out.Cancelled,
		})
	}
	if cfg.Observer != nil {
		wall := time.Since(start) //auditlint:allow detrand latency metric stamp, never a decision input
		b := out.busy
		if b <= 0 {
			b = wall
		}
		cfg.Observer.ObserveMC(budget, out.Evaluated, out.Votes, workers, wall, b)
	}
	return out
}

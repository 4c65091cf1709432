package mcpar

// The decision scheduler: one bounded pool of assist workers multiplexing
// every concurrent Vote run in the process, replacing the per-decision
// goroutine fan-out that PR 2 shipped. The old design paid a full pool
// spin-up per decision and could not overlap two analysts' decisions —
// with S sessions each capped at W workers it wanted S·W goroutines while
// the machine has NumCPU cores. Here the pool is sized once for the
// machine and decisions *share* it: a Vote enqueues up to cap-1 work
// tokens and then participates in its own run from the calling goroutine,
// so a decision always makes progress even when the pool is saturated by
// other analysts, and aggregate throughput is bounded by the pool size
// rather than by per-decision latency.
//
// A token is a claim on one bounded chunk of a run's samples. Workers
// dequeue a token, evaluate up to chunk samples of that run, and — if the
// run still has claimable samples — re-enqueue the token behind every
// other waiting run. That round-robin keeps one slow decision (sumprob's
// polytope chains) from starving the cheap ones (maxprob) behind it.
//
// # CPU slots
//
// The pool has min(Size(), GOMAXPROCS) CPU slots, fixed when it is
// built: a pool larger than the CPUs the runtime schedules on would hand
// assists "slots" with no CPU behind them. A deciding caller holds one
// slot for its whole run; an assist takes one per sample and only while
// one is free. An assist that finds every slot busy drops (declines) its
// token and the caller finishes the run alone. So assists only fill idle
// CPUs: decisions that already occupy every slot run without speculative
// help, and a lone decision, which offers its tokens only after its first
// sample certified nothing (see Vote), loses at most one sample-time of
// overlap. At most slots assist samples run at once, and Monte Carlo work
// occupies at most max(slots, deciding callers) CPUs, apart from assist
// samples already running when more callers arrive, which finish and
// then yield.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// SchedRun is the scheduler's accounting of one assisted Vote run.
// Assisted + Caller = Outcome.Evaluated + Outcome.Cancelled.
type SchedRun struct {
	Tokens    int // work tokens the run enqueued
	Declined  int // tokens dropped because every CPU slot was busy
	Assisted  int // samples run by pool workers
	Caller    int // samples run by the deciding goroutine
	Cancelled int // samples in flight when the stopping rule fired
}

// SchedObserver receives one report per scheduler-assisted Vote run.
// internal/metrics.SchedCollector implements it.
type SchedObserver interface {
	ObserveSchedRun(SchedRun)
}

// Scheduler is a shared assist pool. The zero value is not usable; build
// one with NewScheduler or use the process-wide Default.
type Scheduler struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*run // FIFO of work tokens
	closed bool
	size   int
	slots  int // CPU slots: min(size, GOMAXPROCS at construction)
	wg     sync.WaitGroup
	obs    SchedObserver
	// running counts occupied CPU slots: one per deciding caller of a
	// scheduled run, one per assist sample in progress.
	running atomic.Int64
}

// NewScheduler starts a pool of size assist workers (0 or negative means
// runtime.GOMAXPROCS(0)). The pool's CPU slots, min(size, GOMAXPROCS),
// bound how many samples it evaluates concurrently ACROSS all decisions;
// each decision's own cap is Config.Workers. A size-0 pool is impossible
// — callers wanting fully sequential decisions set Config.Workers to 1,
// which never enqueues tokens at all.
func NewScheduler(size int) *Scheduler {
	s := newScheduler(size)
	s.start()
	return s
}

// newScheduler builds the pool without starting its workers.
func newScheduler(size int) *Scheduler {
	procs := runtime.GOMAXPROCS(0)
	if size <= 0 {
		size = procs
	}
	s := &Scheduler{size: size, slots: min(size, procs)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// start launches the assist workers.
func (s *Scheduler) start() {
	s.wg.Add(s.size)
	for i := 0; i < s.size; i++ {
		go s.worker()
	}
}

// SetObserver installs the per-run accounting hook (nil disables).
// Install before the scheduler serves decisions.
func (s *Scheduler) SetObserver(o SchedObserver) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs = o
}

// Size returns the assist-pool size.
func (s *Scheduler) Size() int { return s.size }

// Close drains the pool. Runs already enqueued finish through their
// callers (a Vote never depends on the pool for progress); new offers are
// refused. Close is for tests and orderly shutdown — the package Default
// is never closed.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.queue = nil
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// offer enqueues n work tokens for r and reports how many were accepted
// (0 when the pool is closed). Tokens are hints, not obligations: a run
// completes through its caller even if every token is dropped.
func (s *Scheduler) offer(r *run, n int) int {
	if s == nil || n <= 0 {
		return 0
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0
	}
	for i := 0; i < n; i++ {
		s.queue = append(s.queue, r)
	}
	for i := 0; i < n; i++ {
		s.cond.Signal()
	}
	s.mu.Unlock()
	return n
}

// worker is the assist loop: dequeue a token, evaluate one chunk of that
// run, put the token back if the run still has claimable samples.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		r := s.queue[0]
		s.queue[0] = nil
		s.queue = s.queue[1:]
		s.mu.Unlock()
		// A short chunk means the run stopped, ran out of samples, or
		// found no free slot: the token is spent either way.
		if r.work(r.chunk, true) == r.chunk && r.claimable() {
			s.offer(r, 1)
		}
	}
}

// acquire occupies a CPU slot unconditionally (a deciding caller).
func (s *Scheduler) acquire() { s.running.Add(1) }

// tryAcquire occupies a CPU slot if one is free (an assist sample).
func (s *Scheduler) tryAcquire() bool {
	for {
		n := s.running.Load()
		if n >= int64(s.slots) {
			return false
		}
		if s.running.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// release frees a slot taken by acquire or tryAcquire.
func (s *Scheduler) release() { s.running.Add(-1) }

// observe reports a finished run to the observer, if any.
func (s *Scheduler) observe(run SchedRun) {
	s.mu.Lock()
	obs := s.obs
	s.mu.Unlock()
	if obs != nil {
		obs.ObserveSchedRun(run)
	}
}

var (
	defaultOnce  sync.Once
	defaultSched *Scheduler
)

// Default returns the lazily-started process-wide scheduler, sized
// runtime.GOMAXPROCS(0). Votes with a nil Config.Sched share it, so every
// auditor in the process draws from one machine-sized pool by default.
func Default() *Scheduler {
	defaultOnce.Do(func() { defaultSched = NewScheduler(0) })
	return defaultSched
}

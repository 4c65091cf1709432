package mcpar

// One Vote's shared state while its samples are in flight on the caller
// and (possibly) the scheduler's assist workers.
//
// # Deterministic certificates
//
// Verdicts commit into results[] by vote position, and a frontier sweeps
// the contiguous evaluated prefix in position order. Stopping rules are
// checked only at frontier positions — i.e. against the vote count of the
// prefix [0, m) — so the stop point (certPoint, a count of positions) and
// the decision are pure functions of the per-position verdicts. Those
// are pure functions of (seed, position): position j runs on stream
// (seed, j), or on the stream of whichever sample the caller's own
// seed-determined order puts at j (sumprob's ranked votes). Worker count,
// scheduling, and commit order cannot change either. certPoint equals exactly the
// position at which a sequential loop over the same order stops.
//
// # Bounded overshoot and cancellation
//
// Claims are throttled to a window of `window` indices past the frontier
// (window = the run's worker cap). Every claimed index is < frontier +
// window at claim time, and the frontier freezes at certPoint, so
//
//	evaluated + cancelled ≤ certPoint + window
//
// holds unconditionally. When a rule fires the run also raises its stop
// signal: every sample still in flight has an index ≥ certPoint (all
// smaller ones are committed), so its verdict can never be read, and a
// long sample that polls the signal returns early instead of finishing
// work nobody reads. Those samples commit as cancelled, not evaluated.
// A full window with an un-fired certificate always has at least one
// sample in flight (a committed prefix would have advanced the
// frontier), so blocking in claim() cannot deadlock: the in-flight
// commit broadcasts.

import (
	"math"
	"sync"
	"sync/atomic"
)

// adaptiveMinSamples is the smallest prefix the adaptive sequential test
// may stop at: below it the empirical variance estimate is noise.
const adaptiveMinSamples = 16

type run struct {
	budget  int
	barrier int
	window  int     // claim window == resolved worker cap
	chunk   int     // samples an assist evaluates per token
	alpha   float64 // adaptive error budget (0 = exact certificates only)
	// sched is the pool whose CPU slots this run's samples occupy; nil
	// for a sequential run, which never touches a scheduler.
	sched *Scheduler

	// eval evaluates sample i and returns its verdict: acquire a lane,
	// reseed its stream to (seed, i), run the sample. Set by Vote; closes
	// over the generic lane pool.
	eval func(i int) bool

	// stop is raised when a stopping rule fires; samples may poll it.
	stop *Stop

	mu   sync.Mutex
	cond sync.Cond // signals frontier/claimability changes; init by newRun

	next       int // claim dispenser
	inflight   int // claimed, not yet committed
	evaluated  int // samples committed before a rule fired
	cancelled  int // samples still in flight when a rule fired
	declined   int // assist tokens dropped for want of a free CPU slot
	frontier   int // contiguous committed prefix length
	prefixVote int // unsafe verdicts inside [0, frontier)
	results    []uint8
	certPoint  int // deterministic stop point, -1 until a rule fires
	deny       bool
	adaptive   bool // stop came from the adaptive test, not an exact cert

	done     chan struct{}
	assisted atomic.Int64 // samples started by pool workers
}

func newRun(budget, barrier, window, chunk int, alpha float64, sched *Scheduler, stop *Stop) *run {
	r := &run{
		budget:    budget,
		barrier:   barrier,
		window:    window,
		chunk:     chunk,
		alpha:     alpha,
		sched:     sched,
		stop:      stop,
		results:   make([]uint8, budget),
		certPoint: -1,
		done:      make(chan struct{}),
	}
	r.cond.L = &r.mu
	return r
}

// work claims and evaluates samples until the run stops or, when limit is
// positive, until limit samples ran. It returns the number run. The
// deciding goroutine calls it as a non-assist and holds its own CPU slot
// for the whole run; the scheduler's assists call it with limit = chunk
// and take a slot per sample, so an assist stops early — declining its
// token — when every slot is busy. Assisted samples are tallied before
// they run so the count is complete when the run's done channel closes.
func (r *run) work(limit int, assist bool) int {
	n := 0
	for limit <= 0 || n < limit {
		i, ok := r.claim(assist)
		if !ok {
			break
		}
		if assist {
			r.assisted.Add(1)
		}
		unsafe := r.eval(i)
		if assist {
			r.sched.release()
		}
		r.commit(i, unsafe)
		n++
	}
	return n
}

// claim returns the next sample index, blocking while the claim window is
// full. ok is false once the run has stopped or the budget is exhausted,
// and, for an assist, when no CPU slot of the scheduler is free.
func (r *run) claim(assist bool) (i int, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.certPoint >= 0 || r.next >= r.budget {
			return 0, false
		}
		if r.next < r.frontier+r.window {
			break
		}
		r.cond.Wait()
	}
	if assist && !r.sched.tryAcquire() {
		r.declined++
		return 0, false
	}
	i = r.next
	r.next++
	r.inflight++
	return i, true
}

// claimable reports whether unclaimed samples remain — whether a
// scheduler token for this run is still worth re-enqueueing.
func (r *run) claimable() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.certPoint < 0 && r.next < r.budget
}

// commit records sample i's verdict, advances the contiguous frontier,
// and applies the stopping rules at each newly committed prefix length.
// A sample committing after a rule fired was in flight when it fired: it
// counts as cancelled and its verdict is dropped. The commit that both
// sees a fired rule and drains the last in-flight sample completes the
// run.
func (r *run) commit(i int, unsafe bool) {
	v := uint8(1)
	if unsafe {
		v = 2
	}
	r.mu.Lock()
	r.inflight--
	if r.certPoint >= 0 {
		r.cancelled++
	} else {
		r.results[i] = v
		r.evaluated++
	}
	for r.certPoint < 0 && r.frontier < r.budget && r.results[r.frontier] != 0 {
		if r.results[r.frontier] == 2 {
			r.prefixVote++
		}
		r.frontier++
		if deny, adaptive, stop := r.ruleAt(r.frontier, r.prefixVote); stop {
			r.certPoint = r.frontier
			r.deny = deny
			r.adaptive = adaptive
			r.stop.flag.Store(true)
		}
	}
	finished := r.certPoint >= 0 && r.inflight == 0
	r.cond.Broadcast()
	r.mu.Unlock()
	if finished {
		close(r.done)
	}
}

// ruleAt evaluates the stopping rules for the prefix [0, m) with votes
// unsafe verdicts. The two exact certificates prove the full-budget
// decision outright; the optional adaptive rule (alpha > 0) is an
// empirical-Bernstein sequential test that stops once the full-budget
// unsafe fraction is pinned on one side of the barrier with confidence
// 1-alpha. All three depend only on (m, votes), so the stop point is
// invariant under worker count and scheduling.
func (r *run) ruleAt(m, votes int) (deny, adaptive, stop bool) {
	if votes > r.barrier {
		return true, false, true
	}
	if votes+(r.budget-m) <= r.barrier {
		return false, false, true
	}
	if r.alpha > 0 && m >= adaptiveMinSamples && m < r.budget {
		fm := float64(m)
		phat := float64(votes) / fm
		// Union bound over checkpoints: alpha_m = alpha / (m·(m+1))
		// sums below alpha over all m, so the whole sequential test is
		// wrong with probability at most alpha.
		l := math.Log(3 * fm * (fm + 1) / r.alpha)
		eps := math.Sqrt(2*phat*(1-phat)*l/fm) + 3*l/fm
		// tau separates answer (final votes ≤ barrier) from deny
		// (final votes ≥ barrier+1) as fractions of the budget.
		tau := (float64(r.barrier) + 0.5) / float64(r.budget)
		if phat-eps > tau {
			return true, true, true
		}
		if phat+eps < tau {
			return false, true, true
		}
	}
	return false, false, false
}

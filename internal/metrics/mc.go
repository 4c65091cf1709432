// Monte Carlo instrumentation: an mcpar.Observer implementation backed by
// a Registry. Lives here (not in mcpar) so the decision engine stays free
// of any metrics dependency — mcpar defines the observer interfaces, this
// file implements them.
package metrics

import (
	"time"

	"queryaudit/internal/mcpar"
)

// MCSampleBuckets bound the per-decision sample-count histogram: the
// Chernoff budgets run from a handful of samples (tiny T/δ) to the
// O((T/δ)·log(T/δ)) thousands of the paper-scale runs.
var MCSampleBuckets = []float64{
	4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384,
}

// MCSpeedupBuckets bound the per-decision parallel-speedup histogram
// (busy/wall — 1.0 means sequential, GOMAXPROCS is the ceiling).
var MCSpeedupBuckets = []float64{
	0.5, 0.75, 1, 1.25, 1.5, 2, 3, 4, 6, 8, 12, 16, 24, 32,
}

// MCCollector implements mcpar.Observer over a Registry. Its callback is
// atomic-only, safe to run inside the engine lock (auditor decisions run
// under it).
//
// Exported names:
//
//	mc_decisions_total            Monte Carlo decisions taken
//	mc_samples_total              samples actually evaluated
//	mc_samples_saved_total        budgeted samples skipped by early exit
//	mc_unsafe_votes_total         unsafe verdicts across all decisions
//	mc_samples_per_decision       histogram of evaluated samples/decision
//	mc_parallel_speedup           histogram of busy/wall per decision
type MCCollector struct {
	decisions *Counter
	samples   *Counter
	saved     *Counter
	votes     *Counter
	perDec    *Histogram
	speedup   *Histogram
}

// NewMCCollector wires a collector into reg.
func NewMCCollector(reg *Registry) *MCCollector {
	return &MCCollector{
		decisions: reg.Counter("mc_decisions_total"),
		samples:   reg.Counter("mc_samples_total"),
		saved:     reg.Counter("mc_samples_saved_total"),
		votes:     reg.Counter("mc_unsafe_votes_total"),
		perDec:    reg.Histogram("mc_samples_per_decision", MCSampleBuckets),
		speedup:   reg.Histogram("mc_parallel_speedup", MCSpeedupBuckets),
	}
}

// ObserveMC implements mcpar.Observer.
func (c *MCCollector) ObserveMC(budget, evaluated, votes, workers int, wall, busy time.Duration) {
	c.decisions.Inc()
	c.samples.Add(int64(evaluated))
	if budget > evaluated {
		c.saved.Add(int64(budget - evaluated))
	}
	c.votes.Add(int64(votes))
	c.perDec.Observe(float64(evaluated))
	if wall > 0 {
		c.speedup.Observe(busy.Seconds() / wall.Seconds())
	}
}

// SchedCollector implements mcpar.SchedObserver over a Registry: how the
// shared decision scheduler splits sample work between the assist pool
// and the deciding goroutines themselves, and how much speculative work
// it skipped. Atomic-only, like MCCollector.
//
// Exported names:
//
//	mcsched_runs_total               scheduler-assisted decisions
//	mcsched_tokens_total             work tokens enqueued
//	mcsched_tokens_declined_total    tokens dropped: every CPU slot busy
//	mcsched_assist_samples_total     samples run by pool workers
//	mcsched_caller_samples_total     samples run by deciding callers
//	mcsched_samples_cancelled_total  samples in flight when the
//	                                 certificate fired (verdict discarded)
//
// assist + caller samples = mc_samples_total + cancelled samples, over
// the scheduler-assisted decisions.
type SchedCollector struct {
	runs      *Counter
	tokens    *Counter
	declined  *Counter
	assist    *Counter
	callers   *Counter
	cancelled *Counter
}

// NewSchedCollector wires a collector into reg.
func NewSchedCollector(reg *Registry) *SchedCollector {
	return &SchedCollector{
		runs:      reg.Counter("mcsched_runs_total"),
		tokens:    reg.Counter("mcsched_tokens_total"),
		declined:  reg.Counter("mcsched_tokens_declined_total"),
		assist:    reg.Counter("mcsched_assist_samples_total"),
		callers:   reg.Counter("mcsched_caller_samples_total"),
		cancelled: reg.Counter("mcsched_samples_cancelled_total"),
	}
}

// ObserveSchedRun implements mcpar.SchedObserver.
func (c *SchedCollector) ObserveSchedRun(r mcpar.SchedRun) {
	c.runs.Inc()
	c.tokens.Add(int64(r.Tokens))
	c.declined.Add(int64(r.Declined))
	c.assist.Add(int64(r.Assisted))
	c.callers.Add(int64(r.Caller))
	c.cancelled.Add(int64(r.Cancelled))
}

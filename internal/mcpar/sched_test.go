package mcpar

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The overshoot bound from the claim window: however samples land across
// the caller and the assist pool, at most Workers samples beyond the
// deterministic certificate point ever run.
func TestVoteOvershootBoundedByWorkers(t *testing.T) {
	sched := NewScheduler(4)
	defer sched.Close()
	for _, workers := range []int{1, 2, 4, 8} {
		for seed := int64(0); seed < 20; seed++ {
			out := Vote(Config{Workers: workers, Seed: seed, Sched: sched}, 50_000, 3,
				func() struct{} { return struct{}{} },
				func(_ int, rng *rand.Rand, _ struct{}) bool { return rng.Float64() < 0.9 })
			if !out.Exceeded {
				t.Fatalf("seed %d: 90%% unsafe run must deny", seed)
			}
			if out.Evaluated > out.CertPoint+out.Workers {
				t.Fatalf("workers=%d seed=%d: evaluated %d > certificate point %d + workers %d",
					workers, seed, out.Evaluated, out.CertPoint, out.Workers)
			}
			if out.Evaluated < out.CertPoint {
				t.Fatalf("workers=%d seed=%d: evaluated %d below certificate point %d",
					workers, seed, out.Evaluated, out.CertPoint)
			}
		}
	}
}

// CertPoint and Votes — not just the decision — must be bit-identical at
// every worker count: the frontier commits prefixes in index order, so
// the stop point is a pure function of the seed. Workers=1 is the
// sequential reference the parallel configurations must match exactly.
func TestVoteCertPointInvariantAcrossWorkers(t *testing.T) {
	sched := NewScheduler(4)
	defer sched.Close()
	for _, budget := range []int{16, 200, 3000} {
		for _, thr := range []float64{0.05, 0.3, 0.7} {
			barrier := DenyBarrier(budget, thr)
			for seed := int64(0); seed < 8; seed++ {
				var want Outcome
				for wi, workers := range []int{1, 2, 8} {
					out := Vote(Config{Workers: workers, Seed: seed, Sched: sched}, budget, barrier,
						func() struct{} { return struct{}{} },
						func(_ int, rng *rand.Rand, _ struct{}) bool { return rng.Float64() < 0.31 })
					if wi == 0 {
						want = out
						continue
					}
					if out.Exceeded != want.Exceeded || out.CertPoint != want.CertPoint || out.Votes != want.Votes {
						t.Fatalf("budget=%d thr=%g seed=%d workers=%d: (deny=%v cert=%d votes=%d), sequential (deny=%v cert=%d votes=%d)",
							budget, thr, seed, workers,
							out.Exceeded, out.CertPoint, out.Votes,
							want.Exceeded, want.CertPoint, want.Votes)
					}
				}
			}
		}
	}
}

// Many concurrent Vote runs multiplexed over one small scheduler — the
// serving shape of many analysts' sessions deciding at once — must each
// reach the same decision, certificate point and vote count as the same
// run executed alone and sequentially. Run under -race in CI.
func TestSchedulerConcurrentRunsDeterministic(t *testing.T) {
	sched := NewScheduler(3)
	defer sched.Close()
	const runs = 24
	const budget = 400
	barrier := DenyBarrier(budget, 0.3)
	sample := func(_ int, rng *rand.Rand, _ struct{}) bool { return rng.Float64() < 0.29 }

	want := make([]Outcome, runs)
	for i := range want {
		want[i] = Vote(Config{Workers: 1, Seed: int64(i)}, budget, barrier,
			func() struct{} { return struct{}{} }, sample)
	}

	var wg sync.WaitGroup
	got := make([]Outcome, runs)
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = Vote(Config{Workers: 4, Seed: int64(i), Sched: sched}, budget, barrier,
				func() struct{} { return struct{}{} }, sample)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i].Exceeded != want[i].Exceeded || got[i].CertPoint != want[i].CertPoint || got[i].Votes != want[i].Votes {
			t.Fatalf("run %d diverged under concurrent scheduling: (deny=%v cert=%d votes=%d), want (deny=%v cert=%d votes=%d)",
				i, got[i].Exceeded, got[i].CertPoint, got[i].Votes,
				want[i].Exceeded, want[i].CertPoint, want[i].Votes)
		}
	}
}

// A closed scheduler refuses tokens; the run must still complete through
// its caller with the identical decision.
func TestVoteCompletesOnClosedScheduler(t *testing.T) {
	sched := NewScheduler(2)
	sched.Close()
	barrier := DenyBarrier(256, 0.3)
	ref := Vote(Config{Workers: 1, Seed: 9}, 256, barrier,
		func() struct{} { return struct{}{} },
		func(_ int, rng *rand.Rand, _ struct{}) bool { return rng.Float64() < 0.4 })
	out := Vote(Config{Workers: 8, Seed: 9, Sched: sched}, 256, barrier,
		func() struct{} { return struct{}{} },
		func(_ int, rng *rand.Rand, _ struct{}) bool { return rng.Float64() < 0.4 })
	if out.Exceeded != ref.Exceeded || out.CertPoint != ref.CertPoint || out.Votes != ref.Votes {
		t.Fatalf("closed-scheduler run diverged: %+v vs %+v", out, ref)
	}
}

// The adaptive sequential test must (a) stop earlier than the exact
// certificates when the unsafe fraction sits far from the barrier, and
// (b) remain a pure function of the seed — same stop point and decision
// at every worker count.
func TestVoteAdaptiveStopsEarlyAndDeterministically(t *testing.T) {
	sched := NewScheduler(4)
	defer sched.Close()
	const budget = 4096
	barrier := DenyBarrier(budget, 0.5)
	// Unsafe fraction ~0.1, far below the 0.5 barrier: the exact answer
	// certificate needs ~half the budget, the adaptive test a few dozen.
	sample := func(_ int, rng *rand.Rand, _ struct{}) bool { return rng.Float64() < 0.1 }

	exact := Vote(Config{Workers: 1, Seed: 7}, budget, barrier,
		func() struct{} { return struct{}{} }, sample)
	if exact.Adaptive {
		t.Fatal("alpha=0 run reported an adaptive stop")
	}

	var want Outcome
	for wi, workers := range []int{1, 2, 8} {
		out := Vote(Config{Workers: workers, Seed: 7, Sched: sched, AdaptiveAlpha: 0.05}, budget, barrier,
			func() struct{} { return struct{}{} }, sample)
		if !out.Adaptive {
			t.Fatalf("workers=%d: adaptive rule never fired (cert=%d)", workers, out.CertPoint)
		}
		if out.Exceeded {
			t.Fatalf("workers=%d: 10%% unsafe vs 50%% barrier must answer", workers)
		}
		if out.CertPoint >= exact.CertPoint {
			t.Fatalf("workers=%d: adaptive stop %d not earlier than exact certificate %d",
				workers, out.CertPoint, exact.CertPoint)
		}
		if wi == 0 {
			want = out
			continue
		}
		if out.CertPoint != want.CertPoint || out.Votes != want.Votes || out.Exceeded != want.Exceeded {
			t.Fatalf("workers=%d: adaptive stop diverged (cert=%d votes=%d) vs (cert=%d votes=%d)",
				workers, out.CertPoint, out.Votes, want.CertPoint, want.Votes)
		}
	}
}

// Lanes cap at Workers even when the scheduler could lend more hands, so
// newScratch (potentially expensive: walkers, buffers) runs a bounded
// number of times per decision.
func TestVoteLaneCountBounded(t *testing.T) {
	sched := NewScheduler(8)
	defer sched.Close()
	var mu sync.Mutex
	made := 0
	out := Vote(Config{Workers: 3, Seed: 2, Sched: sched}, 10_000, 10_000,
		func() struct{} {
			mu.Lock()
			made++
			mu.Unlock()
			return struct{}{}
		},
		func(_ int, rng *rand.Rand, _ struct{}) bool { return rng.Float64() < 0.5 })
	mu.Lock()
	defer mu.Unlock()
	if made > out.Workers {
		t.Fatalf("built %d scratches for a %d-worker decision", made, out.Workers)
	}
	if made == 0 {
		t.Fatal("no scratch was ever built")
	}
}

// schedCapture collects SchedRun reports.
type schedCapture struct {
	mu   sync.Mutex
	runs []SchedRun
}

func (c *schedCapture) ObserveSchedRun(r SchedRun) {
	c.mu.Lock()
	c.runs = append(c.runs, r)
	c.mu.Unlock()
}

func (c *schedCapture) total() (sum SchedRun, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.runs {
		sum.Tokens += r.Tokens
		sum.Declined += r.Declined
		sum.Assisted += r.Assisted
		sum.Caller += r.Caller
		sum.Cancelled += r.Cancelled
	}
	return sum, len(c.runs)
}

// waitFor is spinUntil for the test goroutine: it fails the test on
// timeout.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	if !spinUntil(cond) {
		t.Fatalf("timed out waiting for %s", what)
	}
}

// spinUntil polls cond until it holds or a deadline generous enough for
// a loaded machine passes, and reports whether it held. Safe on any
// goroutine.
func spinUntil(cond func() bool) bool {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// withProcs runs the rest of the test at GOMAXPROCS n, so a scheduler
// built after the call has n CPU slots whatever the host offers.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// When sample 1 fires the deny certificate, samples still in flight see
// the stop signal and return: Vote must not wait for them to finish
// their work, and the decision, certificate point and votes must match
// the sequential run. Sample 0 is the caller's lone probe and certifies
// nothing; sample 1 waits until another sample has started beside it,
// so a parallel run always has one in flight at the certificate.
func TestVoteCancelsInFlightSamplesOnCertificate(t *testing.T) {
	withProcs(t, 8)
	sched := NewScheduler(8)
	defer sched.Close()
	obs := &schedCapture{}
	sched.SetObserver(obs)
	for _, workers := range []int{1, 2, 8} {
		stop := new(Stop)
		var started atomic.Int32
		start := time.Now()
		out := Vote(Config{Workers: workers, Seed: 4, Sched: sched, Stop: stop}, 1000, 0,
			func() struct{} { return struct{}{} },
			func(i int, _ *rand.Rand, _ struct{}) bool {
				started.Add(1)
				switch i {
				case 0:
					return false
				case 1:
					if workers > 1 && !spinUntil(func() bool { return started.Load() >= 3 }) {
						t.Errorf("workers=%d: no other sample started beside sample 1", workers)
					}
					return true
				}
				if !spinUntil(stop.Stopped) {
					t.Errorf("workers=%d: sample %d never saw the stop signal", workers, i)
				}
				return false
			})
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("workers=%d: Vote took %v waiting for cancelled samples", workers, elapsed)
		}
		if !out.Exceeded || out.CertPoint != 2 || out.Votes != 1 {
			t.Fatalf("workers=%d: (deny=%v cert=%d votes=%d), want (true 2 1)",
				workers, out.Exceeded, out.CertPoint, out.Votes)
		}
		if out.Evaluated < out.CertPoint || out.Evaluated+out.Cancelled > out.CertPoint+out.Workers {
			t.Fatalf("workers=%d: evaluated %d + cancelled %d outside [cert %d, cert+workers %d]",
				workers, out.Evaluated, out.Cancelled, out.CertPoint, out.CertPoint+out.Workers)
		}
		if wantCancelled := out.Cancelled > 0; wantCancelled != (workers > 1) {
			t.Fatalf("workers=%d: %d samples cancelled", workers, out.Cancelled)
		}
	}
	sum, n := obs.total()
	if n != 2 {
		t.Fatalf("%d assisted runs reported, want 2 (workers 2 and 8)", n)
	}
	if sum.Cancelled == 0 || sum.Assisted+sum.Caller < sum.Cancelled {
		t.Fatalf("run split %+v: want cancelled samples, no more than ran", sum)
	}
}

// A deny certificate at position 0 settles the decision on the caller's
// lone probe: exactly one sample runs, no token is offered, and the
// scheduler reports no assisted run, at every worker count.
func TestVoteProbeDenyRunsOneSample(t *testing.T) {
	withProcs(t, 8)
	sched := NewScheduler(8)
	defer sched.Close()
	obs := &schedCapture{}
	sched.SetObserver(obs)
	for _, workers := range []int{1, 2, 8} {
		var ran atomic.Int32
		out := Vote(Config{Workers: workers, Seed: 3, Sched: sched}, 64, 0,
			func() struct{} { return struct{}{} },
			func(int, *rand.Rand, struct{}) bool {
				ran.Add(1)
				return true
			})
		if got := ran.Load(); got != 1 {
			t.Fatalf("workers=%d: %d samples ran, want 1", workers, got)
		}
		if !out.Exceeded || out.CertPoint != 1 || out.Evaluated != 1 || out.Cancelled != 0 {
			t.Fatalf("workers=%d: %+v, want a deny at 1 with one sample evaluated", workers, out)
		}
	}
	if _, n := obs.total(); n != 0 {
		t.Fatalf("%d assisted runs reported, want none: a probe deny offers no token", n)
	}
	sched.mu.Lock()
	defer sched.mu.Unlock()
	if len(sched.queue) != 0 {
		t.Fatalf("%d tokens left queued after probe denies", len(sched.queue))
	}
}

// A pool built larger than GOMAXPROCS has only GOMAXPROCS CPU slots:
// assists must not see "free" slots with no CPU behind them.
func TestSchedulerSlotsCappedAtGOMAXPROCS(t *testing.T) {
	withProcs(t, 2)
	s := newScheduler(8)
	granted := 0
	for i := 0; i < 8 && s.tryAcquire(); i++ {
		granted++
	}
	if granted != 2 || s.Size() != 8 {
		t.Fatalf("newScheduler(8) at GOMAXPROCS 2: %d slots granted, size %d; want 2 slots, size 8", granted, s.Size())
	}
}

// A pool of size P with P callers deciding at once has no idle CPU slot:
// every assist token is declined and no assist sample runs. The callers
// still reach the sequential decisions on their own. Tokens are offered
// after each caller's lone probe of sample 0, so the callers meet inside
// sample 1.
func TestAssistsDeclinedWhenCallersFillSlots(t *testing.T) {
	const p, budget = 3, 64
	sched := newScheduler(p) // workers start once every caller is inside sample 1
	obs := &schedCapture{}
	sched.SetObserver(obs)
	var entered atomic.Int32
	release := make(chan struct{})
	sample := func(i int, rng *rand.Rand, _ struct{}) bool {
		if i == 1 {
			entered.Add(1)
			<-release
		}
		return rng.Float64() < 0.01
	}
	var wg sync.WaitGroup
	got := make([]Outcome, p)
	for c := 0; c < p; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			got[c] = Vote(Config{Workers: p, Seed: int64(c), Sched: sched}, budget, 0,
				func() struct{} { return struct{}{} }, sample)
		}(c)
	}
	waitFor(t, "every caller inside sample 1", func() bool { return entered.Load() == p })
	sched.start()
	waitFor(t, "the pool to take every token", func() bool {
		sched.mu.Lock()
		defer sched.mu.Unlock()
		return len(sched.queue) == 0
	})
	sched.Close() // returns once every worker finished the token it held
	close(release)
	wg.Wait()

	sum, n := obs.total()
	if n != p {
		t.Fatalf("%d runs reported, want %d", n, p)
	}
	if sum.Assisted != 0 {
		t.Fatalf("%d assist samples ran with every CPU slot held by a caller", sum.Assisted)
	}
	if sum.Declined != p*(p-1) || sum.Tokens != p*(p-1) {
		t.Fatalf("tokens %d, declined %d; want %d of each", sum.Tokens, sum.Declined, p*(p-1))
	}
	for c := range got {
		want := Vote(Config{Workers: 1, Seed: int64(c)}, budget, 0,
			func() struct{} { return struct{}{} }, sample)
		if got[c].Exceeded != want.Exceeded || got[c].CertPoint != want.CertPoint || got[c].Votes != want.Votes {
			t.Fatalf("caller %d: (deny=%v cert=%d votes=%d), sequential (deny=%v cert=%d votes=%d)",
				c, got[c].Exceeded, got[c].CertPoint, got[c].Votes, want.Exceeded, want.CertPoint, want.Votes)
		}
	}
}

// A lone decision leaves CPU slots idle, so the pool does assist it once
// its probe of sample 0 certified nothing: sample 1 returns only once
// another sample has started beside it, which whoever of caller and
// assist did not take sample 1 must run.
func TestLoneCallerGetsAssists(t *testing.T) {
	withProcs(t, 2)
	sched := NewScheduler(2)
	defer sched.Close()
	obs := &schedCapture{}
	sched.SetObserver(obs)
	var started atomic.Int32
	out := Vote(Config{Workers: 2, Seed: 1, Sched: sched}, 16, 0,
		func() struct{} { return struct{}{} },
		func(i int, _ *rand.Rand, _ struct{}) bool {
			started.Add(1)
			if i == 1 && !spinUntil(func() bool { return started.Load() >= 3 }) {
				t.Error("no other sample ran beside sample 1")
			}
			return false
		})
	if out.Exceeded || out.CertPoint != 16 {
		t.Fatalf("all-safe run: deny=%v cert=%d, want answer at 16", out.Exceeded, out.CertPoint)
	}
	sum, n := obs.total()
	if n != 1 || sum.Assisted == 0 || sum.Declined != 0 {
		t.Fatalf("lone caller: %d runs, split %+v; want one run with assists and no declines", n, sum)
	}
	if sum.Assisted+sum.Caller != out.Evaluated+out.Cancelled {
		t.Fatalf("split %+v does not add up to evaluated %d + cancelled %d", sum, out.Evaluated, out.Cancelled)
	}
}

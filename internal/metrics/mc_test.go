package metrics

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"queryaudit/internal/mcpar"
)

func TestSchedCollector(t *testing.T) {
	r := NewRegistry()
	c := NewSchedCollector(r)
	c.ObserveSchedRun(mcpar.SchedRun{Tokens: 3, Declined: 2, Assisted: 5, Caller: 9, Cancelled: 1})
	c.ObserveSchedRun(mcpar.SchedRun{Tokens: 1, Declined: 1, Caller: 4})
	s := r.Snapshot()
	checks := map[string]int64{
		"mcsched_runs_total":              2,
		"mcsched_tokens_total":            4,
		"mcsched_tokens_declined_total":   3,
		"mcsched_assist_samples_total":    5,
		"mcsched_caller_samples_total":    13,
		"mcsched_samples_cancelled_total": 1,
	}
	for name, want := range checks {
		if got := s.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// Through a real scheduler: sample 0 is the caller's lone probe and
// certifies nothing; sample 1 denies only after sample 2 started beside
// it, and sample 2 then runs until the stop signal, so exactly one
// sample is cancelled. The counters must account for every sample:
// assist + caller = evaluated + cancelled.
func TestSchedCollectorCountsCancelledSamples(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // two CPU slots on any host
	r := NewRegistry()
	sched := mcpar.NewScheduler(2)
	defer sched.Close()
	sched.SetObserver(NewSchedCollector(r))
	stop := new(mcpar.Stop)
	var started atomic.Int32
	wait := func(what string, cond func() bool) bool {
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Errorf("timed out waiting for %s", what)
				return false
			}
			runtime.Gosched()
		}
		return true
	}
	out := mcpar.Vote(mcpar.Config{Workers: 2, Seed: 1, Sched: sched, Stop: stop, Observer: NewMCCollector(r)}, 100, 0,
		func() struct{} { return struct{}{} },
		func(i int, _ *rand.Rand, _ struct{}) bool {
			started.Add(1)
			switch i {
			case 0:
				return false
			case 1:
				wait("a sample beside sample 1", func() bool { return started.Load() >= 3 })
				return true
			}
			wait("the stop signal", stop.Stopped)
			return false
		})
	if !out.Exceeded || out.CertPoint != 2 || out.Evaluated != 2 || out.Cancelled != 1 {
		t.Fatalf("outcome %+v, want deny at 2 with two samples evaluated and one cancelled", out)
	}
	s := r.Snapshot().Counters
	if s["mcsched_samples_cancelled_total"] != 1 || s["mc_samples_total"] != 2 {
		t.Fatalf("cancelled %d, evaluated %d; want 1 and 2", s["mcsched_samples_cancelled_total"], s["mc_samples_total"])
	}
	if ran := s["mcsched_assist_samples_total"] + s["mcsched_caller_samples_total"]; ran != 3 {
		t.Fatalf("assist + caller samples = %d, want 3", ran)
	}
	if s["mcsched_tokens_declined_total"] != 0 {
		t.Fatalf("lone decision declined %d tokens", s["mcsched_tokens_declined_total"])
	}
}

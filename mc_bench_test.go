// Micro-benchmarks for the parallel Monte Carlo decision engine: the
// three probabilistic auditors' Decide hot paths per worker-pool size,
// plus the coloring-chain sample unit that dominates maxminprob. Run
// with -benchmem to see the per-worker scratch reuse (the steady-state
// sample loop should not allocate per sample beyond the synopsis clone).
package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"queryaudit/internal/audit/sumprob"
	"queryaudit/internal/coloring"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
	"queryaudit/internal/synopsis"
)

// benchWorkerCounts returns the deduplicated, sorted per-decision caps
// the Decide benchmarks sweep: sequential, 2, 4, 8, and whatever the
// runner offers. The sweep is fixed (not GOMAXPROCS-relative) so BENCH
// archives from different machines hold the same rows.
func benchWorkerCounts() []int {
	set := map[int]bool{1: true, 2: true, 4: true, 8: true, runtime.GOMAXPROCS(0): true}
	counts := make([]int, 0, len(set))
	for w := range set {
		counts = append(counts, w)
	}
	sort.Ints(counts)
	return counts
}

// sampleCounter tallies evaluated samples across decisions — the
// "samples" column of the bench archive, which exposes both the
// early-exit savings and any overshoot regression (evaluated should be
// within workers of the deterministic certificate point).
type sampleCounter struct{ evaluated, budget atomic.Int64 }

func (c *sampleCounter) ObserveMC(budget, evaluated, votes, workers int, wall, busy time.Duration) {
	c.evaluated.Add(int64(evaluated))
	c.budget.Add(int64(budget))
}

// BenchmarkSumProbDecide measures one Section 3.3-style sum decision
// (hit-and-run polytope sampling per hypothetical dataset), per
// per-decision worker cap. The outer Monte Carlo loop is what the
// shared scheduler parallelizes; each sample runs its own short chain
// warm-started from the session's posterior state. One untimed warm
// decision precedes the loop: the cold first decision of a session pays
// the full polytope burn-in once, while every decision after it rides
// the posterior cache — the steady-state cost is what an analyst's
// stream pays per decision (the archive's p50).
func BenchmarkSumProbDecide(b *testing.B) {
	const n = 32
	set := make([]int, n)
	for i := range set {
		set[i] = i
	}
	q := query.New(query.Sum, set...)
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			a, err := sumprob.New(n, sumprob.Params{
				Lambda: 0.6, Gamma: 4, Delta: 0.2, T: 10,
				OuterSamples: 32, InnerSamples: 300,
				Workers: workers, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := a.Decide(q); err != nil { // warm the posterior cache
				b.Fatal(err)
			}
			var samples sampleCounter
			a.SetMCObserver(&samples)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.Decide(q); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(samples.evaluated.Load())/float64(b.N), "samples/op")
		})
	}
}

// BenchmarkSumProbDecideDefaultBudget is the deployment-default decision
// cost (OuterSamples/InnerSamples zero → the auditor's own defaults):
// the latency a single analyst pays per sum decision on a served
// instance. One untimed warm decision precedes the loop (see
// BenchmarkSumProbDecide), so the archived figure is the steady-state
// per-decision cost — the "p50 under default budget" acceptance row is
// read straight off the bench stream.
func BenchmarkSumProbDecideDefaultBudget(b *testing.B) {
	const n = 32
	set := make([]int, n)
	for i := range set {
		set[i] = i
	}
	q := query.New(query.Sum, set...)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			a, err := sumprob.New(n, sumprob.Params{
				Lambda: 0.6, Gamma: 4, Delta: 0.2, T: 10,
				Workers: workers, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := a.Decide(q); err != nil { // warm the posterior cache
				b.Fatal(err)
			}
			var samples sampleCounter
			a.SetMCObserver(&samples)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.Decide(q); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(samples.evaluated.Load())/float64(b.N), "samples/op")
		})
	}
}

// BenchmarkSumProbServingDecide is the sumprob layer at the perfbench
// prob workload's shape: n=40, the server's default parameters and
// budget, an empty history (the workload answers no sum), and query sets
// of 6, 8, 12 and 22 records in turn. Every such decision is a denial,
// so its cost is what the vote spends before its deny certificate:
// positions/decision counts the vote positions whose inner chain ran to
// completion, cpu-ms/decision the process CPU including assists.
func BenchmarkSumProbServingDecide(b *testing.B) {
	const n = 40
	rng := randx.New(40)
	var qs []query.Query
	for _, size := range []int{6, 8, 12, 22} {
		qs = append(qs, query.New(query.Sum, rng.Perm(n)[:size]...))
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sched := mcpar.NewScheduler(0)
			defer sched.Close()
			a, err := sumprob.New(n, sumprob.Params{
				Lambda: 0.45, Gamma: 4, Delta: 0.2, T: 12,
				Workers: workers, Seed: 2,
			})
			if err != nil {
				b.Fatal(err)
			}
			a.SetScheduler(sched)
			if _, err := a.Decide(qs[0]); err != nil { // warm the posterior cache
				b.Fatal(err)
			}
			var samples sampleCounter
			a.SetMCObserver(&samples)
			b.ResetTimer()
			cpu0 := processCPU(b)
			for i := 0; i < b.N; i++ {
				if _, err := a.Decide(qs[i%len(qs)]); err != nil {
					b.Fatal(err)
				}
			}
			cpu := processCPU(b) - cpu0
			b.ReportMetric(cpu.Seconds()*1000/float64(b.N), "cpu-ms/decision")
			b.ReportMetric(float64(samples.evaluated.Load())/float64(b.N), "positions/decision")
		})
	}
}

// BenchmarkAggregateDecideQPS measures the serving-shape throughput the
// scheduler rework targets: many analysts' sessions (one sumprob auditor
// each, as the session manager builds them) deciding concurrently over
// ONE shared assist pool. The metric is aggregate decisions per second
// across all sessions — the number that regressed when every decision
// spun up its own worker pool — plus the process CPU time per decision,
// which shows speculative samples (work past a certificate, assists on
// busy CPUs) as cost even when decisions/s cannot see it.
func BenchmarkAggregateDecideQPS(b *testing.B) {
	const n = 32
	const analysts = 4
	set := make([]int, n)
	for i := range set {
		set[i] = i
	}
	q := query.New(query.Sum, set...)
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sched := mcpar.NewScheduler(workers)
			defer sched.Close()
			auds := make([]*sumprob.Auditor, analysts)
			for i := range auds {
				a, err := sumprob.New(n, sumprob.Params{
					Lambda: 0.6, Gamma: 4, Delta: 0.2, T: 10,
					OuterSamples: 32, InnerSamples: 300,
					Workers: workers, Seed: int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				a.SetScheduler(sched)
				if _, err := a.Decide(q); err != nil { // warm the posterior cache
					b.Fatal(err)
				}
				auds[i] = a
			}
			b.ResetTimer()
			start := time.Now()
			cpu0 := processCPU(b)
			var wg sync.WaitGroup
			var decisions atomic.Int64
			for i := range auds {
				wg.Add(1)
				go func(a *sumprob.Auditor) {
					defer wg.Done()
					for j := 0; j < b.N; j++ {
						if _, err := a.Decide(q); err != nil {
							b.Error(err)
							return
						}
						decisions.Add(1)
					}
				}(auds[i])
			}
			wg.Wait()
			cpu := processCPU(b) - cpu0
			b.ReportMetric(float64(decisions.Load())/time.Since(start).Seconds(), "decisions/s")
			b.ReportMetric(cpu.Seconds()*1000/float64(decisions.Load()), "cpu-ms/decision")
		})
	}
}

// processCPU returns the user plus system CPU time the process has used.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestSumProbWorkerScalingGuard is the workers>1 regression tripwire:
// with per-decision state hoisted out of the sample loop, a parallel cap
// must never cost materially more wall time than the sequential run of
// the identical decision. Before the fix, workers=4 rebuilt the polytope
// factorization per SAMPLE and lost to workers=1 outright. Env-gated
// (MC_BENCH_GUARD=1, set by `make bench-guard`): wall-clock assertions
// have no place in a default `go test` on a loaded CI box.
func TestSumProbWorkerScalingGuard(t *testing.T) {
	if os.Getenv("MC_BENCH_GUARD") == "" {
		t.Skip("set MC_BENCH_GUARD=1 (make bench-guard) to run the wall-clock scaling guard")
	}
	const n, rounds = 32, 8
	set := make([]int, n)
	for i := range set {
		set[i] = i
	}
	q := query.New(query.Sum, set...)
	timeWorkers := func(workers int) time.Duration {
		a, err := sumprob.New(n, sumprob.Params{
			Lambda: 0.6, Gamma: 4, Delta: 0.2, T: 10,
			OuterSamples: 32, InnerSamples: 300,
			Workers: workers, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Decide(q); err != nil { // warm the caches
			t.Fatal(err)
		}
		start := time.Now()
		for i := 0; i < rounds; i++ {
			if _, err := a.Decide(q); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	seq := timeWorkers(1)
	par := timeWorkers(4)
	t.Logf("workers=1: %v for %d decisions; workers=4: %v", seq, rounds, par)
	// 1.5× headroom absorbs scheduling noise; the pre-fix regression was
	// integer multiples, not percentages.
	if par > seq+seq/2 {
		t.Fatalf("workers=4 wall time %v exceeds 1.5× workers=1 (%v): per-decision state is leaking back into the sample loop", par, seq)
	}
}

// BenchmarkColoringChain measures maxminprob's per-sample unit — rebase
// the chain on the initial coloring, mix, draw a dataset — in the two
// forms the engine can run it: allocating a fresh sampler and dataset
// per sample ("fresh", the pre-scratch behaviour) versus reusing a
// per-worker sampler and output buffers ("scratch", what mcpar workers
// do). The -benchmem delta between the two is the allocation the
// scratch design removes from the hot loop.
func BenchmarkColoringChain(b *testing.B) {
	const n = 60
	rng := randx.New(1)
	syn := synopsis.NewMaxMin(n, 0, 1)
	xs := randx.DuplicateFreeDataset(rng, n, 0, 1)
	for t := 0; t < 10; t++ {
		set := query.NewSet(randx.SubsetSizeBetween(rng, n, 20, 50)...)
		q := query.Query{Set: set, Kind: query.Max}
		if t%2 == 1 {
			q.Kind = query.Min
		}
		ans := q.Eval(xs)
		var err error
		if q.Kind == query.Max {
			err = syn.AddMax(set, ans)
		} else {
			err = syn.AddMin(set, ans)
		}
		if err != nil {
			b.Fatalf("building synopsis: %v", err)
		}
	}
	g, err := coloring.Build(syn)
	if err != nil {
		b.Fatal(err)
	}
	init, err := g.InitialColoring()
	if err != nil {
		b.Fatal(err)
	}
	const mixFactor = 2

	b.Run("fresh", func(b *testing.B) {
		rng := randx.New(2)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, err := coloring.NewSamplerFrom(g, rng, init)
			if err != nil {
				b.Fatal(err)
			}
			s.Mix(mixFactor)
			if ds := s.SampleDataset(rng); len(ds) != n {
				b.Fatal("short dataset")
			}
		}
	})
	b.Run("scratch", func(b *testing.B) {
		rng := randx.New(2)
		s, err := coloring.NewSamplerFrom(g, rng, init)
		if err != nil {
			b.Fatal(err)
		}
		ds := make([]float64, n)
		fixed := make([]bool, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Reset(rng, init); err != nil {
				b.Fatal(err)
			}
			s.Mix(mixFactor)
			s.SampleDatasetInto(rng, ds, fixed)
		}
	})
}

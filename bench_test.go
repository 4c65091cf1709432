// Benchmark harness: one testing.B target per figure and per
// quantitative claim of the paper. Each bench regenerates its experiment
// at a reduced-but-faithful scale and reports the headline shape numbers
// as custom metrics, so `go test -bench=. -benchmem` doubles as a
// regression check on the reproduction (see EXPERIMENTS.md for the
// paper-scale runs).
package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"queryaudit/internal/audit"
	"queryaudit/internal/audit/boolrange"
	"queryaudit/internal/audit/maxfull"
	"queryaudit/internal/audit/maxminfull"
	"queryaudit/internal/audit/maxminprob"
	"queryaudit/internal/audit/maxprob"
	"queryaudit/internal/audit/sumfull"
	"queryaudit/internal/audit/sumprob"
	"queryaudit/internal/auditlog"
	"queryaudit/internal/coloring"
	"queryaudit/internal/core"
	"queryaudit/internal/experiments"
	"queryaudit/internal/field"
	"queryaudit/internal/persist"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
	"queryaudit/internal/synopsis"
	"queryaudit/internal/workload"
)

// BenchmarkFig1TimeToFirstDenialSum regenerates Figure 1: mean number of
// random sum queries answered before the first denial, per database
// size. Metric tden/n is the paper's headline ("almost exactly equal to
// the size of the database" ⇒ ≈ 1.0).
func BenchmarkFig1TimeToFirstDenialSum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig1(experiments.Fig1Config{
			Sizes: []int{100, 200, 400}, Trials: 5, Seed: int64(i + 1),
		})
		last := rows[len(rows)-1]
		b.ReportMetric(last.MeanTDen/float64(last.N), "tden/n")
	}
}

// BenchmarkFig2DenialProbabilitySum regenerates Figure 2's three plots.
// Metrics: the long-run denial probability of each plot — the paper's
// shape is plot1 → 1.0, plot2 and plot3 strictly below it.
func BenchmarkFig2DenialProbabilitySum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.Fig2Config{
			N: 150, Queries: 400, Trials: 5,
			UpdatePeriod: 10, RangeMin: 20, RangeMax: 40,
			Stride: 20, Seed: int64(i + 1),
		}
		curves := experiments.Fig2(cfg)
		b.ReportMetric(curves[0].Tail(0.3), "p1-tail")
		b.ReportMetric(curves[1].Tail(0.3), "p2-tail")
		b.ReportMetric(curves[2].Tail(0.3), "p3-tail")
	}
}

// BenchmarkFig3DenialProbabilityMax regenerates Figure 3: the denial
// probability of the classical max auditor rises to a plateau strictly
// below 1 — ≈ 0.63 for the paper's duplicates-allowed [21] auditor
// (paper: ≈ 0.68) and higher for this paper's more conservative
// no-duplicates auditor.
func BenchmarkFig3DenialProbabilityMax(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.Fig3Config{
			N: 150, Queries: 500, Trials: 4, Stride: 25, Seed: int64(i + 1),
			AllowDuplicates: true,
		}
		b.ReportMetric(experiments.Fig3(cfg).Tail(0.3), "plateau-dup")
		cfg.AllowDuplicates = false
		b.ReportMetric(experiments.Fig3(cfg).Tail(0.3), "plateau-nodup")
	}
}

// BenchmarkThm67UtilityBounds checks n/4 ≤ E[T_denial] ≤ n + lg n + 1.
// Metric holds=1.0 means every size satisfied both bounds.
func BenchmarkThm67UtilityBounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.UtilityBounds(experiments.Fig1Config{
			Sizes: []int{100, 200, 400}, Trials: 5, Seed: int64(i + 1),
		})
		ok := 0
		for _, r := range rows {
			if r.Holds {
				ok++
			}
		}
		b.ReportMetric(float64(ok)/float64(len(rows)), "holds")
	}
}

// BenchmarkDJLBaselineUtility reproduces the Section 2.1 bound: the DJL
// auditor answers ≈ c disjoint queries (k = n/c, r = 1) and essentially
// none under random workloads.
func BenchmarkDJLBaselineUtility(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.DJLBaseline(300, 5, 3, int64(i+1))
		b.ReportMetric(float64(r.AnsweredDisjoint), "disjoint")
		b.ReportMetric(float64(r.AnsweredRandom), "random")
	}
}

// BenchmarkAttackDenialLeakage reproduces the Section 2.2 motivating
// example at scale: fraction of values the attacker extracts from the
// naive auditor vs from the simulatable one.
func BenchmarkAttackDenialLeakage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AttackDemo(50, 4000, int64(i+1))
		b.ReportMetric(r.NaiveCorrectFrac, "naive-frac")
		b.ReportMetric(r.SimulatableCorrectFrac, "sim-frac")
	}
}

// BenchmarkMaxProbAuditor runs the Section 3.1 (λ, δ, γ, T) game: the
// empirical breach fraction must stay within δ while utility remains
// positive.
func BenchmarkMaxProbAuditor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultMaxProb()
		cfg.Trials, cfg.Rounds, cfg.Seed = 6, 8, int64(i+1)
		r := experiments.MaxProb(cfg)
		b.ReportMetric(r.AnsweredFrac, "answered")
		b.ReportMetric(r.BreachFrac, "breach")
	}
}

// BenchmarkMaxMinFullAuditor measures the Section 4 auditor's denial
// curve (no figure in the paper; recorded for completeness).
func BenchmarkMaxMinFullAuditor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := experiments.MaxMinFull(experiments.MaxMinFullConfig{
			N: 100, Queries: 150, Trials: 3, Stride: 10, Seed: int64(i + 1),
		})
		b.ReportMetric(c.Tail(0.3), "plateau")
	}
}

// BenchmarkMaxMinProbAuditor exercises the Section 3.2 MCMC auditor
// end-to-end.
func BenchmarkMaxMinProbAuditor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultMaxMinProb()
		cfg.N, cfg.Trials, cfg.Rounds, cfg.Seed = 24, 2, 4, int64(i+1)
		r := experiments.MaxMinProb(cfg)
		b.ReportMetric(r.AnsweredFrac, "answered")
	}
}

// BenchmarkSimulatabilityPrice quantifies Section 7's open question:
// the fraction of the simulatable max auditor's denials whose true
// answer would have been safe to release.
func BenchmarkSimulatabilityPrice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.SimulatabilityPrice(experiments.SimulatabilityPriceConfig{
			N: 100, Queries: 250, Trials: 4, Seed: int64(i + 1),
		})
		b.ReportMetric(r.ConservativeFrac(), "conservative")
	}
}

// BenchmarkCollusion contrasts per-user auditing (breaches under
// collusion) with the pooled auditing the paper assumes.
func BenchmarkCollusion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Collusion(experiments.CollusionConfig{
			N: 60, Queries: 80, Users: 2, Trials: 10, Seed: int64(i + 1),
		})
		b.ReportMetric(float64(r.SeparateBreaches)/float64(r.Trials), "sep-breach")
		b.ReportMetric(float64(r.PooledBreaches)/float64(r.Trials), "pool-breach")
	}
}

// BenchmarkCrossAggregate quantifies Section 4's motivation: split
// max/min auditors leak under equal-answer collisions; the joint auditor
// never does.
func BenchmarkCrossAggregate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.CrossAggregate(experiments.CrossAggregateConfig{
			N: 30, Queries: 50, Trials: 15, Seed: int64(i + 1),
		})
		b.ReportMetric(float64(r.SplitBreaches)/float64(r.Trials), "split-breach")
		b.ReportMetric(float64(r.JointBreaches)/float64(r.Trials), "joint-breach")
	}
}

// BenchmarkColoringMixing measures the coloring chain's per-step cost
// and the O(k log k) mixing budget of Lemma 3.
func BenchmarkColoringMixing(b *testing.B) {
	rng := randx.New(1)
	syn := synopsis.NewMaxMin(60, 0, 1)
	xs := randx.DuplicateFreeDataset(rng, 60, 0, 1)
	// Build a bag of interleaved max/min queries to create a non-trivial
	// graph.
	for t := 0; t < 10; t++ {
		set := query.NewSet(randx.SubsetSizeBetween(rng, 60, 20, 50)...)
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
	s, err := coloring.NewSampler(g, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Mix(3)
	}
	b.ReportMetric(float64(coloring.MixSteps(g.K(), 3)), "steps/mix")
}

// BenchmarkProbSumVsMax quantifies the paper's Section 3.1 remark that
// its probabilistic max auditor "is decidedly more efficient than the
// probabilistic sum auditor of [21] which needs to estimate volumes of
// convex polytopes": one decision each, identical (λ, γ, δ, T) and
// database size.
func BenchmarkProbSumVsMax(b *testing.B) {
	const n = 32
	set := make([]int, n)
	for i := range set {
		set[i] = i
	}
	b.Run("max-closed-form", func(b *testing.B) {
		a, err := maxprob.New(n, maxprob.Params{
			Lambda: 0.6, Gamma: 4, Delta: 0.2, T: 10, Samples: 64, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		q := query.New(query.Max, set...)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := a.Decide(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sum-polytope-sampling", func(b *testing.B) {
		a, err := sumprob.New(n, sumprob.Params{
			Lambda: 0.6, Gamma: 4, Delta: 0.2, T: 10,
			OuterSamples: 8, InnerSamples: 300, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		q := query.New(query.Sum, set...)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := a.Decide(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSumAuditorDecide measures one sum-auditing decision at n=500
// with a saturated history — the inner loop of Figures 1–2.
func BenchmarkSumAuditorDecide(b *testing.B) {
	const n = 500
	rng := randx.New(2)
	a := sumfull.New(n)
	gen := workload.UniformRandom{N: n, Kind: query.Sum, Rng: rng}
	for t := 0; t < n/2; t++ {
		q := gen.Next()
		if d, _ := a.Decide(q); d == audit.Answer {
			a.Record(q, 0)
		}
	}
	qs := make([]query.Query, 64)
	for i := range qs {
		qs[i] = gen.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Decide(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// sumRangesAuditor warms a sum auditor into the ranges-updates serving
// shape (paper Fig. 2, plots 2–3): n=10000, contiguous 50–100-wide sums
// answered until the rank reaches 1000, and a NoteUpdate on a random
// record every 10th query. It returns the auditor, its rng and a pool of
// 64 further range queries.
func sumRangesAuditor() (*sumfull.Auditor[field.Elem61, field.GF61], *rand.Rand, []query.Query) {
	const n = 10000
	rng := randx.New(13)
	next := func() query.Query {
		return query.New(query.Sum, randx.Range(rng, n, 50+rng.Intn(51))...)
	}
	a := sumfull.New(n)
	for t := 1; a.Rank() < 1000; t++ {
		if t%10 == 0 {
			a.NoteUpdate(rng.Intn(n))
		}
		q := next()
		if d, _ := a.Decide(q); d == audit.Answer {
			a.Record(q, 0)
		}
	}
	qs := make([]query.Query, 64)
	for i := range qs {
		qs[i] = next()
	}
	return a, rng, qs
}

// BenchmarkSumFullRangesDecide measures one sum decision at serving
// scale: a contiguous-range query against the rank-1000 ranges-updates
// history of sumRangesAuditor.
func BenchmarkSumFullRangesDecide(b *testing.B) {
	a, _, qs := sumRangesAuditor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Decide(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSumFullNoteUpdate measures one record update (a fresh version
// column) against the rank-1000 ranges-updates history of
// sumRangesAuditor.
func BenchmarkSumFullNoteUpdate(b *testing.B) {
	a, rng, _ := sumRangesAuditor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.NoteUpdate(rng.Intn(a.N()))
	}
}

// BenchmarkMaxAuditorDecide measures one max-auditing decision at n=500
// with a saturated history — the inner loop of Figure 3.
func BenchmarkMaxAuditorDecide(b *testing.B) {
	const n = 500
	rng := randx.New(3)
	xs := randx.DuplicateFreeDataset(rng, n, 0, 1)
	a := maxfull.New(n)
	gen := workload.UniformRandom{N: n, Kind: query.Max, Rng: rng}
	for t := 0; t < 2*n; t++ {
		q := gen.Next()
		if d, _ := a.Decide(q); d == audit.Answer {
			a.Record(q, q.Eval(xs))
		}
	}
	qs := make([]query.Query, 64)
	for i := range qs {
		qs[i] = gen.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Decide(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaxMinFullDecide measures one Section 4 max∧min decision at
// serving scale: the n=10000 company table, max/min statements of the
// four dashboard WHERE shapes (age range, department, zip plus age
// floor, age floor) and a history warmed by answering the first half of
// them. Each op decides the next statement of the whole pool.
func BenchmarkMaxMinFullDecide(b *testing.B) {
	cfg := auditlog.StackConfig{Family: "full", N: 10000, Seed: 1}
	ds := cfg.NewDataset()
	rng := randx.New(11)
	zips := []string{"94305", "94301", "94025", "95014", "94040"}
	depts := []string{"eng", "sales", "hr", "finance", "legal"}
	var qs []query.Query
	for len(qs) < 64 {
		var where string
		switch rng.Intn(4) {
		case 0:
			lo := 21 + rng.Intn(35)
			where = fmt.Sprintf("age BETWEEN %d AND %d", lo, lo+4+rng.Intn(18))
		case 1:
			where = fmt.Sprintf("dept = '%s'", depts[rng.Intn(len(depts))])
		case 2:
			where = fmt.Sprintf("zip = '%s' AND age >= %d", zips[rng.Intn(len(zips))], 21+rng.Intn(25))
		default:
			where = fmt.Sprintf("age >= %d", 21+rng.Intn(35))
		}
		kind := [2]string{"max", "min"}[len(qs)%2]
		q, err := core.ResolveSQL(ds, "salary", fmt.Sprintf("SELECT %s(salary) WHERE %s", kind, where))
		if err != nil || len(q.Set) == 0 {
			continue
		}
		qs = append(qs, q)
	}
	a := maxminfull.New(ds.N())
	for _, q := range qs[:len(qs)/2] {
		if d, _ := a.Decide(q); d == audit.Answer {
			a.Record(q, ds.Eval(q))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Decide(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaxProbDecide measures one probabilistic (Section 3.1)
// decision including its Monte Carlo sampling, per worker-pool size.
// Decisions are bit-identical across the sub-benchmarks (same seed, same
// counter-based streams); only the wall clock may differ.
func BenchmarkMaxProbDecide(b *testing.B) {
	const n = 100
	rng := randx.New(5)
	set := query.New(query.Max, randx.SubsetSizeBetween(rng, n, 40, 90)...)
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			a, err := maxprob.New(n, maxprob.Params{
				Lambda: 0.45, Gamma: 4, Delta: 0.2, T: 50,
				Samples: 512, Workers: workers, Seed: 4,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.Decide(set); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMaxMinProbDecide measures one Section 3.2 decision (Lemma 2
// pre-check plus nested MCMC estimation), per worker-pool size.
func BenchmarkMaxMinProbDecide(b *testing.B) {
	const n = 30
	rng := randx.New(7)
	q := query.New(query.Max, randx.SubsetSizeBetween(rng, n, 15, 30)...)
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			a, err := maxminprob.New(n, maxminprob.Params{
				Lambda: 0.45, Gamma: 4, Delta: 0.2, T: 10,
				OuterSamples: 32, InnerSamples: 16, MixFactor: 2,
				Workers: workers, Seed: 6,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.Decide(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBoolRangeOfflineAudit measures the 1-D boolean offline
// auditor (difference-constraint analysis) on a published-table-sized
// history.
func BenchmarkBoolRangeOfflineAudit(b *testing.B) {
	const n = 100
	rng := randx.New(8)
	bits := make([]int, n)
	for i := range bits {
		bits[i] = rng.Intn(2)
	}
	var hist []query.Answered
	for k := 0; k < 20; k++ {
		i := rng.Intn(n)
		j := i + rng.Intn(n-i)
		var idx []int
		for t := i; t <= j; t++ {
			idx = append(idx, t)
		}
		q := query.New(query.Count, idx...)
		c := 0
		for _, t := range idx {
			c += bits[t]
		}
		hist = append(hist, query.Answered{Query: q, Answer: float64(c)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := boolrange.OfflineAudit(n, hist); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPersistRoundTrip measures snapshotting and restoring a
// saturated sum audit trail (n = 300).
func BenchmarkPersistRoundTrip(b *testing.B) {
	const n = 300
	rng := randx.New(9)
	a := sumfull.New(n)
	for t := 0; t < 2*n; t++ {
		q := query.Query{Set: query.NewSet(randx.Subset(rng, n)...), Kind: query.Sum}
		if d, _ := a.Decide(q); d == audit.Answer {
			a.Record(q, 0)
		}
	}
	var snapshotBytes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := persist.Save(&buf, a); err != nil {
			b.Fatal(err)
		}
		snapshotBytes = buf.Len()
		if _, _, err := persist.Load(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(snapshotBytes), "snapshot-bytes")
}

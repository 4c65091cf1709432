// Package sumprob implements the probabilistic (partial-disclosure) sum
// auditor of [Kenthapadi–Mishra–Nissim '05] that this paper's Section 3
// improves upon: data uniform on [0,1]^n, answered sum queries carving
// the consistent-dataset polytope, and a simulatable decision rule that
// estimates — by sampling that polytope — whether answering the new
// query would push any element's interval posterior outside the
// λ-window.
//
// The auditor is deliberately the expensive comparator: every decision
// runs nested hit-and-run sampling over convex polytopes, which is what
// the paper means by its max auditor being "decidedly more efficient".
// BenchmarkProbSumVsMax quantifies the gap.
//
// # Decision hot path
//
// The outer Monte Carlo loop runs on the shared decision scheduler
// (internal/mcpar). All row-dependent factorization work is hoisted out
// of the sample loop: the base polytope's shape is cached ACROSS
// decisions (it changes only when Record appends a row), and the
// extended system's shape — history rows plus the queried row — is built
// once per decision. Each sample then only binds the extended shape to
// its simulated answer: the outer walker's position is an exact feasible
// point of the extended system (the answer is computed from it), so the
// per-sample feasibility search converges in a projection or two, and
// the inner chain starts from an exact conditional draw instead of
// burning in cold. Consecutive decisions additionally reuse the
// posterior chain state: the outer chain of decision t+1 starts where
// decision t's equilibrated chain ended (a deterministic function of the
// decision history, so journal replay reproduces it bit-for-bit).
//
// A sample runs in two phases. Phase 1, on the caller before the vote,
// runs every sample's cheap outer chain over the base polytope and keeps
// its point, its simulated answer and its stream's state. Phase 2 is the
// vote: position j runs the expensive inner chain of sample order[j],
// resuming that sample's stream. Samples are ranked by how far their
// answer lies from the budget's median answer, largest first: extreme
// answers are the likeliest to breach the window, so a denial — the
// common outcome, whose barrier is usually 0 — tends to certify on the
// first inner chain, which mcpar runs alone before it fans out. A sample
// still running when the vote's certificate fires can no longer change
// the decision: its inner chain polls the vote's stop signal every
// stopPoll steps and returns.
//
// Every sample draws from a counter-based stream keyed by (decision
// seed, sample index), and its verdict does not depend on its position.
// Under exact certificates the decision depends only on the budget's
// verdicts, and the order is a pure function of (seed, history), so the
// decision and its certificate point are bit-identical at any worker
// count. The adaptive rule reads the vote prefix as an unbiased sample;
// with it armed, the vote keeps the index order.
package sumprob

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"queryaudit/internal/audit"
	"queryaudit/internal/interval"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
)

// Params configure the (λ, δ, γ, T) game and the Monte Carlo effort.
type Params struct {
	// Lambda bounds the tolerated posterior/prior ratio drift (0<λ<1).
	Lambda float64
	// Gamma partitions [0,1] into γ intervals.
	Gamma int
	// Delta bounds the attacker's winning probability over T rounds.
	Delta float64
	// T is the number of game rounds.
	T int
	// OuterSamples hypothetical datasets per decision (0 → 12).
	OuterSamples int
	// InnerSamples polytope points per posterior estimate (0 → 200).
	InnerSamples int
	// BurnIn hit-and-run steps before collecting on a COLD chain (0 →
	// 50 + 5·dim). Warm-started chains (posterior reuse across a
	// session's decisions, and the per-sample inner chains, which start
	// from an exact conditional draw) equilibrate with 3·Thin steps.
	BurnIn int
	// Thin steps between collected points (0 → max(4, dim), since the
	// walk's autocorrelation grows with the polytope dimension).
	Thin int
	// Workers caps this auditor's share of the decision scheduler per
	// decision; 0 = GOMAXPROCS, 1 = sequential. Decisions are identical
	// at any worker count for a fixed Seed.
	Workers int
	// Seed drives the auditor's randomness.
	Seed int64
	// AdaptiveAlpha, when positive, arms mcpar's variance-aware adaptive
	// sequential test: a decision stops early once its outcome is pinned
	// with confidence 1-AdaptiveAlpha. Zero (the default) keeps the exact
	// certificates only, which never change a decision.
	AdaptiveAlpha float64
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.Lambda <= 0 || p.Lambda >= 1 {
		return fmt.Errorf("sumprob: lambda must be in (0,1), got %g", p.Lambda)
	}
	if p.Gamma < 1 {
		return fmt.Errorf("sumprob: gamma must be >= 1, got %d", p.Gamma)
	}
	if p.Delta <= 0 || p.Delta >= 1 {
		return fmt.Errorf("sumprob: delta must be in (0,1), got %g", p.Delta)
	}
	if p.T < 1 {
		return fmt.Errorf("sumprob: T must be >= 1, got %d", p.T)
	}
	return nil
}

func (p Params) outer() int {
	if p.OuterSamples > 0 {
		return p.OuterSamples
	}
	return 12
}

func (p Params) inner() int {
	if p.InnerSamples > 0 {
		return p.InnerSamples
	}
	return 200
}

func (p Params) burnIn(dim int) int {
	if p.BurnIn > 0 {
		return p.BurnIn
	}
	return 50 + 5*dim
}

func (p Params) thin(dim int) int {
	if p.Thin > 0 {
		return p.Thin
	}
	if dim > 4 {
		return dim
	}
	return 4
}

// stopPoll is how many chain steps a sample runs between polls of the
// vote's stop signal: a sample still running when the certificate fires
// returns within one poll period instead of finishing a verdict nobody
// reads.
const stopPoll = 32

// Auditor is the [21]-style probabilistic sum auditor.
type Auditor struct {
	n      int
	params Params
	part   interval.Partition
	window interval.RatioWindow
	rows   [][]float64
	b      []float64
	// decisions counts Decide calls; each decision derives its own base
	// seed from (params.Seed, decisions) so samples are fresh per decision
	// yet bit-reproducible across runs and worker counts.
	decisions uint64
	// mc observes per-decision Monte Carlo accounting (may be nil).
	mc            mcpar.Observer
	sched         *mcpar.Scheduler
	denyThreshold float64

	// Base-system cache, valid while len(rows) == baseRows. Every field
	// is a pure function of the Decide/Record history (never of wall
	// time or worker count), so journal replay rebuilds it exactly.
	baseShape *shape
	basePoly  *polytope
	baseRows  int
	// lastX is the end of the previous decision's equilibrated outer
	// chain — the posterior state the next decision's chains resume from.
	lastX []float64
	// prop holds the current decision's phase 1, reused across decisions.
	prop proposals
	// verdictHook, when set (tests only), receives every sample verdict
	// that ran to completion, keyed by sample index.
	verdictHook func(sample int, unsafe bool)
}

// New returns an auditor over n records uniform on [0,1].
func New(n int, params Params) (*Auditor, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Auditor{
		n:             n,
		params:        params,
		part:          interval.NewPartition(0, 1, params.Gamma),
		window:        interval.RatioWindow{Lambda: params.Lambda},
		denyThreshold: params.Delta / (2 * float64(params.T)),
		baseRows:      -1,
	}, nil
}

// SetWorkers adjusts the per-decision worker cap (0 = GOMAXPROCS).
func (a *Auditor) SetWorkers(n int) { a.params.Workers = n }

// SetMCObserver installs the per-decision Monte Carlo observer (nil
// disables).
func (a *Auditor) SetMCObserver(o mcpar.Observer) { a.mc = o }

// SetScheduler points the auditor's decisions at a shared assist pool
// (nil selects mcpar.Default()).
func (a *Auditor) SetScheduler(s *mcpar.Scheduler) { a.sched = s }

// Name implements audit.Auditor.
func (a *Auditor) Name() string { return "sum-partial-disclosure" }

// N returns the number of records.
func (a *Auditor) N() int { return a.n }

// rowOf converts a query set into a 0/1 constraint row.
func (a *Auditor) rowOf(s query.Set) []float64 {
	row := make([]float64, a.n)
	for _, i := range s {
		row[i] = 1
	}
	return row
}

// safeForExt estimates, by sampling the pre-factored extended system
// bound to the simulated answer vector extB, whether every element's
// interval posterior stays inside the λ-window, returning early (unsafe)
// once the vote's stop signal is up. start must be a feasible
// point of the extended system — the outer walker's position, whose
// answer entry was computed from it — which makes the instantiation a
// projection polish and lets the chain skip the cold burn-in: start is
// an exact draw from the extended polytope's distribution.
func (a *Auditor) safeForExt(sh *shape, extB, start []float64, rng *rand.Rand, sc *decideScratch, stop *mcpar.Stop) (bool, error) {
	if err := sh.instantiateInto(&sc.ext, extB, start, rng); err != nil {
		return false, err
	}
	if sc.ext.dim() == 0 {
		// Fully determined dataset: every posterior is a point mass.
		return false, nil
	}
	dim := sc.ext.dim()
	thin := a.params.thin(dim)
	steps := a.params.inner() * thin
	gamma := a.params.Gamma
	// Batch-means accounting: the chord stream is autocorrelated, so the
	// Monte Carlo error of each cell estimate is taken from the spread
	// of per-batch means, not from a binomial formula.
	const batches = 8
	perBatch := steps / batches
	if perBatch < 1 {
		perBatch = 1
	}
	need := batches * a.n * gamma
	if cap(sc.sums) < need {
		sc.sums = make([]float64, need)
	}
	sums := sc.sums[:need]
	for i := range sums {
		sums[i] = 0
	}
	if cap(sc.used) < batches {
		sc.used = make([]int, batches)
	}
	used := sc.used[:batches]
	for i := range used {
		used[i] = 0
	}
	sc.extW.rebase(&sc.ext)
	w := &sc.extW
	for s := 0; s < 3*thin; s++ {
		w.step(rng)
	}
	// Rao–Blackwellized chord estimator: every step contributes the exact
	// conditional cell probabilities of each coordinate along its chord.
	stride := a.n * gamma
	for s := 0; s < batches*perBatch; s++ {
		if s%stopPoll == 0 && stop.Stopped() {
			return false, nil // the vote no longer reads this verdict
		}
		bi := s / perBatch
		x, d, lo, hi, ok := w.stepChord(rng)
		if !ok {
			continue
		}
		used[bi]++
		accumulateChord(sums[bi*stride:(bi+1)*stride], a.part, x, d, lo, hi)
	}
	// Declare a cell unsafe only when the breach is statistically clear:
	// the batch-mean must sit more than three batch standard errors
	// outside the window (the Monte Carlo analogue of [21]'s
	// approximation slack, honest about chain autocorrelation).
	prior := a.part.Prior()
	lowEdge := (1 - a.params.Lambda) * prior
	highEdge := prior / (1 - a.params.Lambda)
	for i := 0; i < a.n; i++ {
		for j := 0; j < gamma; j++ {
			mean, se := batchStats(sums, used, stride, i*gamma+j)
			if se < 0 {
				return false, nil // no usable samples
			}
			if mean < lowEdge-3*se || mean > highEdge+3*se {
				return false, nil
			}
		}
	}
	return true, nil
}

// accumulateChord adds to cb (flat n×γ) each coordinate's exact cell
// probabilities for a point uniform on its chord segment
// [x_i + lo·d_i, x_i + hi·d_i]. The endpoint sort and the cell-overlap
// clamps use min/max rather than branches; the sums are bit-identical to
// the branching form (kernel_ref_test.go).
func accumulateChord(cb []float64, part interval.Partition, x, d []float64, lo, hi float64) {
	gamma := part.Gamma
	cellW := part.Width()
	for i := range x {
		aEnd := x[i] + lo*d[i]
		bEnd := x[i] + hi*d[i]
		aEnd, bEnd = min(aEnd, bEnd), max(aEnd, bEnd)
		if bEnd-aEnd < 1e-12 {
			j := part.CellIndex(x[i])
			if j >= 1 {
				cb[i*gamma+j-1]++
			}
			continue
		}
		inv := 1 / (bEnd - aEnd)
		// Only the cells the segment overlaps contribute; chord
		// endpoints sit in [0,1] up to clamping slack, so the index
		// window needs clamping, not the arithmetic.
		jLo := max(int(aEnd/cellW), 0)
		jHi := min(int(bEnd/cellW), gamma-1)
		for j := jLo; j <= jHi; j++ {
			cLo := float64(j) * cellW
			oLo := max(cLo, aEnd)
			oHi := min(cLo+cellW, bEnd)
			if oHi > oLo {
				cb[i*gamma+j] += (oHi - oLo) * inv
			}
		}
	}
}

// batchStats returns the across-batch mean and standard error of the
// cell at offset off (flat batches×stride layout); se is negative when
// no batch collected samples.
func batchStats(sums []float64, used []int, stride, off int) (mean, se float64) {
	cnt := 0
	for b := range used {
		if used[b] == 0 {
			continue
		}
		mean += sums[b*stride+off] / float64(used[b])
		cnt++
	}
	if cnt == 0 {
		return 0, -1
	}
	mean /= float64(cnt)
	if cnt < 2 {
		return mean, 0.5 // single batch: no spread information, max slack
	}
	varSum := 0.0
	for b := range used {
		if used[b] == 0 {
			continue
		}
		m := sums[b*stride+off]/float64(used[b]) - mean
		varSum += m * m
	}
	se = math.Sqrt(varSum / float64(cnt-1) / float64(cnt))
	return mean, se
}

// Decide implements audit.Auditor: sample consistent datasets, simulate
// the answer each would give, and deny when too many simulated answers
// would breach the λ-window.
func (a *Auditor) Decide(q query.Query) (audit.Decision, error) {
	if q.Kind != query.Sum {
		return audit.Deny, fmt.Errorf("%w: %v", audit.ErrUnsupportedKind, q.Kind)
	}
	if len(q.Set) == 0 {
		return audit.Deny, fmt.Errorf("sumprob: empty query set")
	}
	for _, i := range q.Set {
		if i < 0 || i >= a.n {
			return audit.Deny, fmt.Errorf("sumprob: index %d out of range", i)
		}
	}
	// Decision-level randomness splits into two decorrelated streams: one
	// seeds the per-sample streams inside the engine, the other drives the
	// one-off setup work (cold feasible-point search, chain-state advance).
	decSeed := randx.DeriveSeed(a.params.Seed, a.decisions)
	a.decisions++
	voteSeed := randx.DeriveSeed(decSeed, 0)
	setupRng := randx.Stream(decSeed, 1)

	// Base system: rebuilt only when Record appended a row since the last
	// decision; otherwise this decision reuses the cached factorization
	// AND the previous decision's equilibrated chain state.
	warm := a.baseShape != nil && a.baseRows == len(a.rows)
	if !warm {
		sh, err := newShape(a.rows, a.n)
		if err != nil {
			return audit.Deny, err
		}
		p, err := sh.instantiate(a.b, nil, setupRng)
		if err != nil {
			return audit.Deny, err
		}
		a.baseShape, a.basePoly, a.baseRows = sh, p, len(a.rows)
		a.lastX = append(a.lastX[:0], p.x0...)
	}
	base := a.basePoly

	// Extended system = history rows + the queried row, factored ONCE per
	// decision; each sample only re-binds its answer entry.
	newRow := a.rowOf(q.Set)
	extRows := append(append([][]float64{}, a.rows...), newRow)
	extShape, err := newShape(extRows, a.n)
	if err != nil {
		return audit.Deny, err
	}

	budget := a.params.outer()
	barrier := mcpar.DenyBarrier(budget, a.denyThreshold)
	dim := base.dim()
	thin := a.params.thin(dim)
	burn := 3 * thin
	if !warm {
		burn = a.params.burnIn(dim)
	}
	w := base.newWalker()
	a.prop.propose(w, a.lastX, q.Set, budget, burn+3*thin, voteSeed)
	// The adaptive rule reads the vote prefix as an unbiased sample, so
	// only exact certificates may see the ranked order.
	a.prop.rank(budget, a.params.AdaptiveAlpha <= 0)
	prop := &a.prop // read-only across workers during the vote
	n := a.n
	stop := new(mcpar.Stop)
	out := mcpar.Vote(
		mcpar.Config{
			Workers:       a.params.Workers,
			Seed:          voteSeed,
			Observer:      a.mc,
			Sched:         a.sched,
			AdaptiveAlpha: a.params.AdaptiveAlpha,
			Stop:          stop,
		},
		budget, barrier,
		func() *decideScratch {
			sc := &decideScratch{extB: make([]float64, len(a.b)+1)}
			sc.rng = rand.New(&sc.src)
			return sc
		},
		func(pos int, _ *rand.Rand, sc *decideScratch) bool {
			// Vote position pos runs the inner chain of sample
			// order[pos], resuming that sample's own stream where its
			// outer chain left it: the verdict is the sample's, whatever
			// its position.
			i := prop.order[pos]
			sc.src = prop.streams[i]
			copy(sc.extB, a.b)
			sc.extB[len(a.b)] = prop.ans[i]
			ok, serr := a.safeForExt(extShape, sc.extB, prop.pts[i*n:(i+1)*n], sc.rng, sc, stop)
			unsafe := serr != nil || !ok
			if a.verdictHook != nil && !stop.Stopped() {
				a.verdictHook(i, unsafe)
			}
			return unsafe
		})

	// Advance the shared chain state for the next decision: equilibrate a
	// fresh stretch from the current state with the setup stream. Pure
	// function of the decision history — replay lands on the same point.
	w.resetTo(a.lastX)
	for t := 0; t < 3*thin; t++ {
		w.step(setupRng)
	}
	a.lastX = append(a.lastX[:0], w.point()...)

	if out.Exceeded {
		return audit.Deny, nil
	}
	return audit.Answer, nil
}

// proposals is phase 1 of a decision: every sample's outer chain, run on
// the caller before the vote. It lives on the auditor so its buffers are
// reused across decisions.
type proposals struct {
	pts     []float64        // budget×n flat: sample i's hypothetical dataset
	ans     []float64        // sample i's simulated answer
	streams []randx.SplitMix // sample i's stream, just past its outer chain
	order   []int            // vote position → sample index
	dist    []float64        // |answer − median answer| per sample
}

// propose runs each sample's outer chain: from the session's posterior
// state x0, steps hit-and-run steps over the base polytope on the
// sample's own (voteSeed, i) stream. It keeps the end point, the answer
// the queried set would give there, and the stream's state for the
// sample's inner chain to resume from.
func (p *proposals) propose(w *walker, x0 []float64, set query.Set, budget, steps int, voteSeed int64) {
	n := len(x0)
	p.pts = resize(p.pts, budget*n)
	p.ans = resize(p.ans, budget)
	p.streams = resize(p.streams, budget)
	var src randx.SplitMix
	rng := rand.New(&src)
	for i := 0; i < budget; i++ {
		src.Reseed(voteSeed, uint64(i))
		w.resetTo(x0)
		for t := 0; t < steps; t++ {
			w.step(rng)
		}
		x := w.point()
		ans := 0.0
		for _, j := range set {
			ans += x[j]
		}
		copy(p.pts[i*n:(i+1)*n], x)
		p.ans[i] = ans
		p.streams[i] = src
	}
}

// rank fills order with the vote order. Ranked, samples go by the
// distance of their answer from the budget's median answer, largest
// first, ties by index: the more extreme a simulated answer, the likelier
// its posterior leaves the λ-window, so a denial's first unsafe verdict
// tends to come at position 0. Unranked, the order is the index order.
// Under exact certificates the decision depends only on the multiset of
// verdicts, so the order moves no decision; it is a pure function of
// (seed, history), so the certificate point stays deterministic too.
func (p *proposals) rank(budget int, ranked bool) {
	p.order = resize(p.order, budget)
	for i := range p.order {
		p.order[i] = i
	}
	if !ranked {
		return
	}
	p.dist = append(p.dist[:0], p.ans...)
	slices.Sort(p.dist)
	med := (p.dist[(budget-1)/2] + p.dist[budget/2]) / 2
	for i, v := range p.ans {
		p.dist[i] = math.Abs(v - med)
	}
	slices.SortStableFunc(p.order, func(x, y int) int { return cmp.Compare(p.dist[y], p.dist[x]) })
}

// resize returns s with length n, reusing its backing array when large
// enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// decideScratch is the per-lane reusable state of the vote: the extended
// answer vector, the lane's stream (rebased onto each sample's saved
// state), a reusable extended-system instance with its own walker, and
// the flat batch-means accumulators of the inner estimator.
type decideScratch struct {
	extB []float64
	src  randx.SplitMix
	// rng draws from src; confined to the lane like the scratch itself.
	rng  *rand.Rand //auditlint:allow rngshare lane scratch is held by exactly one in-flight sample at a time
	ext  polytope
	extW walker
	sums []float64
	used []int
}

// Record implements audit.Auditor. Appending a row invalidates the
// cached base factorization; the next Decide rebuilds it (and restarts
// its chains cold).
func (a *Auditor) Record(q query.Query, answer float64) {
	a.rows = append(a.rows, a.rowOf(q.Set))
	a.b = append(a.b, answer)
}

// Package maxminprob implements the paper's Section 3.2 contribution: a
// (λ, δ, γ, T)-private simulatable auditor for *bags* of max and min
// queries under partial disclosure, for datasets uniform on the
// duplicate-free points of [0,1]^n.
//
// Posterior inference runs through the graph-coloring reduction of
// Lemmas 1–3 (package coloring): witnesses of the equality predicates are
// sampled by the Markov chain, and conditioned on a coloring every
// remaining element is uniform on its synopsis range. The per-element
// posterior therefore decomposes as
//
//	P(x_i ∈ I | B) = Σ_v π_i(v)·1[A(v) ∈ I] + (1 − Σ_v π_i(v))·|R_i ∩ I|/|R_i|
//
// where π_i(v) is the probability that i is node v's witness — the only
// quantity the Monte Carlo has to estimate.
//
// The auditor additionally enforces Lemma 2's degree condition
// |S(v)| ≥ d_v + 2 by outright denial: if any answer consistent with the
// current synopsis could produce a graph violating the condition, the
// query is refused before any sampling happens (the finite candidate-
// answer technique of Section 4 makes this check effective).
//
// The outer Monte Carlo loop runs on the shared parallel engine
// (internal/mcpar): the coloring graph of the current synopsis is built
// once per decision and shared read-only, each worker keeps a reusable
// chain sampler and dataset buffers, and every outer sample draws from a
// counter-based stream keyed by (decision seed, sample index) so the
// decision is bit-identical at any worker count.
package maxminprob

import (
	"fmt"
	"math/rand"

	"queryaudit/internal/audit"
	"queryaudit/internal/coloring"
	"queryaudit/internal/interval"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
	"queryaudit/internal/synopsis"
)

// Params configure the (λ, δ, γ, T) game and the Monte Carlo effort.
type Params struct {
	// Lambda bounds the tolerated posterior/prior ratio drift (0<λ<1).
	Lambda float64
	// Gamma is the number of partition intervals of [0,1].
	Gamma int
	// Delta bounds the attacker's winning probability over T rounds.
	Delta float64
	// T is the number of game rounds.
	T int
	// OuterSamples is the number of hypothetical datasets per decision
	// (0 → a small default).
	OuterSamples int
	// InnerSamples is the number of colorings per posterior estimate
	// (0 → a small default).
	InnerSamples int
	// MixFactor is the constant in the O(k log k) mixing budget
	// (0 → 3).
	MixFactor float64
	// EnumerateLimit bounds the coloring-space size under which the
	// auditor switches from MCMC to exact enumeration — the paper's
	// fallback when Lemma 2's degree condition fails (0 → 20000).
	EnumerateLimit int
	// Workers bounds the parallel Monte Carlo pool per decision;
	// 0 = GOMAXPROCS, 1 = sequential. Decisions are identical at any
	// worker count for a fixed Seed.
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
		return fmt.Errorf("maxminprob: lambda must be in (0,1), got %g", p.Lambda)
	}
	if p.Gamma < 1 {
		return fmt.Errorf("maxminprob: gamma must be >= 1, got %d", p.Gamma)
	}
	if p.Delta <= 0 || p.Delta >= 1 {
		return fmt.Errorf("maxminprob: delta must be in (0,1), got %g", p.Delta)
	}
	if p.T < 1 {
		return fmt.Errorf("maxminprob: T must be >= 1, got %d", p.T)
	}
	return nil
}

func (p Params) outer() int {
	if p.OuterSamples > 0 {
		return p.OuterSamples
	}
	return 32
}

func (p Params) inner() int {
	if p.InnerSamples > 0 {
		return p.InnerSamples
	}
	return 48
}

func (p Params) mixFactor() float64 {
	if p.MixFactor > 0 {
		return p.MixFactor
	}
	return 3
}

func (p Params) enumerateLimit() int {
	if p.EnumerateLimit > 0 {
		return p.EnumerateLimit
	}
	return 20000
}

// Auditor is the Section 3.2 simulatable probabilistic max∧min auditor.
type Auditor struct {
	n      int
	params Params
	part   interval.Partition
	window interval.RatioWindow
	syn    *synopsis.MaxMin
	// decisions counts Decide calls; each decision derives its own base
	// seed from (params.Seed, decisions) so samples are fresh per decision
	// yet bit-reproducible across runs and worker counts.
	decisions uint64
	// mc observes per-decision Monte Carlo accounting (may be nil).
	mc            mcpar.Observer
	sched         *mcpar.Scheduler
	denyThreshold float64
}

// New returns an auditor over n records in [0,1].
func New(n int, params Params) (*Auditor, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Auditor{
		n:             n,
		params:        params,
		part:          interval.NewPartition(0, 1, params.Gamma),
		window:        interval.RatioWindow{Lambda: params.Lambda},
		syn:           synopsis.NewMaxMin(n, 0, 1),
		denyThreshold: params.Delta / (2 * float64(params.T)),
	}, nil
}

// SetWorkers adjusts the Monte Carlo pool size (0 = GOMAXPROCS).
func (a *Auditor) SetWorkers(n int) { a.params.Workers = n }

// SetMCObserver installs the per-decision Monte Carlo observer (nil
// disables).
func (a *Auditor) SetMCObserver(o mcpar.Observer) { a.mc = o }

// SetScheduler points the auditor's decisions at a shared assist pool
// (nil selects mcpar.Default()).
func (a *Auditor) SetScheduler(s *mcpar.Scheduler) { a.sched = s }

// Name implements audit.Auditor.
func (a *Auditor) Name() string { return "maxmin-partial-disclosure" }

// N returns the number of records.
func (a *Auditor) N() int { return a.n }

// Synopsis exposes a copy of the trail.
func (a *Auditor) Synopsis() *synopsis.MaxMin { return a.syn.Clone() }

// candidates mirrors the Algorithm 3 finite answer set, restricted to
// [0,1]: predicate values touching q plus representatives of the open
// intervals they delimit (collision-avoiding — see
// audit.CandidateAnswers), clipped to the data range.
func (a *Auditor) candidates(q query.Set) []float64 {
	// CandidateAnswers sorts and dedups, so duplicates are fine here —
	// and collecting into a slice (rather than a dedup map iterated in
	// random order) keeps the candidate stream deterministic.
	values := make([]float64, 0, 2*len(q)+2)
	values = append(values, 0, 1)
	for _, i := range q {
		if v, ok := a.syn.MaxPredValue(i); ok {
			values = append(values, v)
		}
		if v, ok := a.syn.MinPredValue(i); ok {
			values = append(values, v)
		}
	}
	all := audit.CandidateAnswers(values, a.syn.EqValues())
	out := all[:0]
	for _, v := range all {
		if v >= 0 && v <= 1 {
			out = append(out, v)
		}
	}
	return out
}

// inferenceTractableForAllAnswers reports whether posterior inference
// stays tractable for every consistent candidate answer: either the
// coloring graph meets Lemma 2's degree condition (MCMC mixes) or its
// coloring space is small enough for the exact-enumeration fallback the
// paper sketches. Queries failing both are denied outright, exactly as
// Section 3.2 prescribes. Each candidate is folded in place and rolled
// back (synopsis.MaxMin.Try), so the check copies no synopsis.
func (a *Auditor) inferenceTractableForAllAnswers(q query.Query) bool {
	limit := a.params.enumerateLimit()
	intractable := func(b *synopsis.MaxMin) bool {
		g, err := coloring.Build(b)
		return err != nil || (!g.MeetsLemma2() && g.SpaceSize(limit) >= limit)
	}
	for _, cand := range a.candidates(q.Set) {
		// An inconsistent candidate cannot occur as an answer: skip it.
		if consistent, hit := a.syn.Try(q.Kind, q.Set, cand, intractable); consistent && hit {
			return false
		}
	}
	return true
}

// witnessProbs computes π_i(v) for a synopsis: exactly (by enumeration)
// when the graph is small or fails Lemma 2's ergodicity condition, by
// the Markov chain otherwise.
func witnessProbs(b *synopsis.MaxMin, params Params, rng *rand.Rand) (*coloring.Graph, [][]float64, error) {
	g, err := coloring.Build(b)
	if err != nil {
		return nil, nil, err
	}
	limit := params.enumerateLimit()
	if !g.MeetsLemma2() || g.SpaceSize(limit) < limit {
		if probs, ok := coloring.ExactWitnessProbs(g, limit); ok {
			return g, probs, nil
		}
		if !g.MeetsLemma2() {
			return nil, nil, fmt.Errorf("maxminprob: graph fails Lemma 2 and exceeds the enumeration limit")
		}
	}
	s, err := coloring.NewSampler(g, rng)
	if err != nil {
		return nil, nil, err
	}
	s.Mix(params.mixFactor()) // burn-in
	inner := params.inner()
	counts := make([][]float64, g.K())
	for v := range counts {
		counts[v] = make([]float64, len(g.Nodes[v].Colors))
	}
	thin := coloring.MixSteps(g.K(), params.mixFactor()/4+0.5)
	for it := 0; it < inner; it++ {
		for st := 0; st < thin; st++ {
			s.Step()
		}
		c := s.Current() // no-copy read; consumed before the next Step
		for v, col := range c {
			for ci, candidate := range g.Nodes[v].Colors {
				if candidate == col {
					counts[v][ci]++
					break
				}
			}
		}
	}
	for v := range counts {
		for ci := range counts[v] {
			counts[v][ci] /= float64(inner)
		}
	}
	return g, counts, nil
}

// safeState checks the λ-window for every element × interval given a
// synopsis state, using Monte Carlo witness probabilities drawn from rng.
func (a *Auditor) safeState(b *synopsis.MaxMin, rng *rand.Rand) (bool, error) {
	g, probs, err := witnessProbs(b, a.params, rng)
	if err != nil {
		return false, err
	}
	// Gather, per element, its witness probability mass per node value.
	type mass struct {
		value float64
		p     float64
	}
	witMass := make([][]mass, a.n)
	for v, node := range g.Nodes {
		for ci, col := range node.Colors {
			if probs[v][ci] > 0 {
				witMass[col] = append(witMass[col], mass{value: node.Value, p: probs[v][ci]})
			}
		}
	}
	prior := a.part.Prior()
	for i := 0; i < a.n; i++ {
		r := b.RangeOf(i)
		constrained := len(witMass[i]) > 0 || r.Lo > 0 || r.Hi < 1
		if !constrained {
			continue // posterior equals prior exactly
		}
		var witTotal float64
		for _, m := range witMass[i] {
			witTotal += m.p
		}
		free := 1 - witTotal
		iv := interval.Interval{Lo: r.Lo, Hi: r.Hi}
		for j := 1; j <= a.params.Gamma; j++ {
			cell := a.part.Cell(j)
			post := free * iv.OverlapFraction(cell)
			for _, m := range witMass[i] {
				//auditlint:allow floateq final partition cell is closed at beta; the exact-endpoint test mirrors interval.CellIndex
				if m.value >= cell.Lo && (m.value < cell.Hi || (j == a.params.Gamma && m.value == cell.Hi)) {
					post += m.p
				}
			}
			if !a.window.SafePosterior(post, prior) {
				return false, nil
			}
		}
	}
	return true, nil
}

// Decide implements audit.Auditor: Lemma 2 pre-check, then the sampled
// privacy estimate of the Section 3.2 simulatable auditor.
func (a *Auditor) Decide(q query.Query) (audit.Decision, error) {
	if q.Kind != query.Max && q.Kind != query.Min {
		return audit.Deny, fmt.Errorf("%w: %v", audit.ErrUnsupportedKind, q.Kind)
	}
	if len(q.Set) == 0 {
		return audit.Deny, fmt.Errorf("maxminprob: empty query set")
	}
	for _, i := range q.Set {
		if i < 0 || i >= a.n {
			return audit.Deny, fmt.Errorf("maxminprob: index %d out of range", i)
		}
	}
	if !a.inferenceTractableForAllAnswers(q) {
		return audit.Deny, nil
	}
	// The coloring graph of the current synopsis is identical for every
	// outer sample: build it (and its deterministic starting coloring)
	// once per decision and share both read-only across the workers.
	g, err := coloring.Build(a.syn)
	if err != nil {
		return audit.Deny, err
	}
	init, err := g.InitialColoring()
	if err != nil {
		return audit.Deny, err
	}
	budget := a.params.outer()
	barrier := mcpar.DenyBarrier(budget, a.denyThreshold)
	seed := randx.DeriveSeed(a.params.Seed, a.decisions)
	a.decisions++
	out := mcpar.Vote(
		mcpar.Config{
			Workers:       a.params.Workers,
			Seed:          seed,
			Observer:      a.mc,
			Sched:         a.sched,
			AdaptiveAlpha: a.params.AdaptiveAlpha,
		},
		budget, barrier,
		func() *decideScratch {
			return &decideScratch{
				xs:    make([]float64, a.n),
				fixed: make([]bool, a.n),
			}
		},
		func(_ int, rng *rand.Rand, sc *decideScratch) bool {
			// Draw one dataset from P(X | B) via the coloring chain
			// (Lemma 1), reusing the worker's sampler rebased onto this
			// sample's random stream.
			if sc.sampler == nil {
				s, serr := coloring.NewSamplerFrom(g, rng, init)
				if serr != nil {
					return true
				}
				sc.sampler = s
			} else if sc.sampler.Reset(rng, init) != nil {
				return true
			}
			sc.sampler.Mix(a.params.mixFactor())
			sc.sampler.SampleDatasetInto(rng, sc.xs, sc.fixed)
			ans := q.Eval(sc.xs)
			trial := a.syn.Clone()
			var aerr error
			if q.Kind == query.Max {
				aerr = trial.AddMax(q.Set, ans)
			} else {
				aerr = trial.AddMin(q.Set, ans)
			}
			if aerr != nil {
				return true // sampled-consistent answers should fold cleanly
			}
			ok, serr := a.safeState(trial, rng)
			return serr != nil || !ok
		})
	if out.Exceeded {
		return audit.Deny, nil
	}
	return audit.Answer, nil
}

// decideScratch is the per-worker reusable state of Decide: the chain
// sampler over the shared decision graph plus the dataset buffers.
type decideScratch struct {
	sampler *coloring.Sampler
	xs      []float64
	fixed   []bool
}

// Record implements audit.Auditor.
func (a *Auditor) Record(q query.Query, answer float64) {
	var err error
	switch q.Kind {
	case query.Max:
		err = a.syn.AddMax(q.Set, answer)
	case query.Min:
		err = a.syn.AddMin(q.Set, answer)
	default:
		err = fmt.Errorf("%w: %v", audit.ErrUnsupportedKind, q.Kind)
	}
	if err != nil {
		panic(fmt.Sprintf("maxminprob: recording true answer failed: %v", err))
	}
}

// MixSteps re-exports the chain budget for benchmarks.
func MixSteps(k int, factor float64) int { return coloring.MixSteps(k, factor) }

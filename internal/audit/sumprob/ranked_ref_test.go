package sumprob

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"queryaudit/internal/audit"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/query"
	"queryaudit/internal/randx"
)

// refDecide is Decide as a single pass in index order: sample i runs its
// outer chain and then its inner chain on one (voteSeed, i) stream. It
// evaluates the whole budget and returns every sample's verdict, takes
// the decision with mcpar's index-order stopping rules over those
// verdicts, and moves a's state exactly as Decide does. It is the
// reference the ranked two-phase Decide must reproduce bit for bit.
func refDecide(a *Auditor, q query.Query) (audit.Decision, []bool, mcpar.Outcome, error) {
	decSeed := randx.DeriveSeed(a.params.Seed, a.decisions)
	a.decisions++
	voteSeed := randx.DeriveSeed(decSeed, 0)
	setupRng := randx.Stream(decSeed, 1)

	warm := a.baseShape != nil && a.baseRows == len(a.rows)
	if !warm {
		sh, err := newShape(a.rows, a.n)
		if err != nil {
			return audit.Deny, nil, mcpar.Outcome{}, err
		}
		p, err := sh.instantiate(a.b, nil, setupRng)
		if err != nil {
			return audit.Deny, nil, mcpar.Outcome{}, err
		}
		a.baseShape, a.basePoly, a.baseRows = sh, p, len(a.rows)
		a.lastX = append(a.lastX[:0], p.x0...)
	}
	base := a.basePoly
	extRows := append(append([][]float64{}, a.rows...), a.rowOf(q.Set))
	extShape, err := newShape(extRows, a.n)
	if err != nil {
		return audit.Deny, nil, mcpar.Outcome{}, err
	}

	budget := a.params.outer()
	barrier := mcpar.DenyBarrier(budget, a.denyThreshold)
	dim := base.dim()
	thin := a.params.thin(dim)
	burn := 3 * thin
	if !warm {
		burn = a.params.burnIn(dim)
	}
	sc := &decideScratch{extB: make([]float64, len(a.b)+1)}
	w := base.newWalker()
	verdicts := make([]bool, budget)
	for i := range verdicts {
		rng := randx.Stream(voteSeed, uint64(i))
		w.resetTo(a.lastX)
		for t := 0; t < burn+3*thin; t++ {
			w.step(rng)
		}
		x := w.point()
		ans := 0.0
		for _, j := range q.Set {
			ans += x[j]
		}
		copy(sc.extB, a.b)
		sc.extB[len(a.b)] = ans
		ok, serr := a.safeForExt(extShape, sc.extB, x, rng, sc, new(mcpar.Stop))
		verdicts[i] = serr != nil || !ok
	}
	out := mcpar.Vote(mcpar.Config{Workers: 1, Seed: voteSeed, AdaptiveAlpha: a.params.AdaptiveAlpha},
		budget, barrier,
		func() struct{} { return struct{}{} },
		func(i int, _ *rand.Rand, _ struct{}) bool { return verdicts[i] })

	adv := base.newWalker()
	adv.resetTo(a.lastX)
	for t := 0; t < 3*thin; t++ {
		adv.step(setupRng)
	}
	a.lastX = append(a.lastX[:0], adv.point()...)

	if out.Exceeded {
		return audit.Deny, verdicts, out, nil
	}
	return audit.Answer, verdicts, out, nil
}

// evalCounter records the last decision's evaluated-sample count.
type evalCounter struct{ evaluated int }

func (c *evalCounter) ObserveMC(_, evaluated, _, _ int, _, _ time.Duration) {
	c.evaluated = evaluated
}

// refStep is one step of a reference game: an optional answered row
// recorded first, the query, and what the reference decided.
type refStep struct {
	hist     *query.Query
	histAns  float64
	q        query.Query
	decision audit.Decision
	err      error
	verdicts []bool
	lastX    []float64
	adaptive bool
}

// refGame plays steps seeded decisions on the reference, growing the
// history by a random answered row (up to 6) before some of them.
func refGame(t *testing.T, n int, p Params, steps int) []refStep {
	t.Helper()
	ref, err := New(n, p)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(int64(n))
	xs := randx.UniformDataset(rng, n, 0, 1)
	rows := 0
	game := make([]refStep, steps)
	for k := range game {
		st := &game[k]
		if rows < 6 && rng.Intn(2) == 0 {
			h := query.New(query.Sum, randx.SubsetSizeBetween(rng, n, 2, n)...)
			st.hist, st.histAns = &h, h.Eval(xs)
			ref.Record(h, st.histAns)
			rows++
		}
		st.q = query.New(query.Sum, randx.SubsetSizeBetween(rng, n, 1, n)...)
		var out mcpar.Outcome
		st.decision, st.verdicts, out, st.err = refDecide(ref, st.q)
		st.lastX = append([]float64(nil), ref.lastX...)
		st.adaptive = out.Adaptive
	}
	return game
}

// TestRankedVoteMatchesIndexOrderReference replays seeded reference games
// — n from 8 to 48, 0–6 answered rows, barriers 0 and ≥ 1, the adaptive
// rule — through the ranked two-phase Decide at workers 1, 2 and 8, and
// requires identical decisions, the reference's verdict for every sample
// the vote ran to completion, and bit-identical posterior chain state
// after every step.
func TestRankedVoteMatchesIndexOrderReference(t *testing.T) {
	cases := []struct {
		name string
		p    Params
		ns   []int
	}{
		// δ/(2T) = 0.01: barrier 0, the first unsafe verdict denies.
		{"barrier0", Params{Lambda: 0.9, Gamma: 2, Delta: 0.2, T: 10, OuterSamples: 8, InnerSamples: 24}, []int{8, 20, 48}},
		// δ/(2T) = 0.45 over 8 samples: barrier 3.
		{"barrier3", Params{Lambda: 0.7, Gamma: 2, Delta: 0.9, T: 1, OuterSamples: 8, InnerSamples: 12}, []int{8, 13, 24}},
		// The adaptive rule needs a long prefix before it can beat the
		// exact certificates: 200 samples, barrier 97, at small n to keep
		// the budget cheap.
		{"adaptive", Params{Lambda: 0.95, Gamma: 2, Delta: 0.98, T: 1, OuterSamples: 200, InnerSamples: 8, AdaptiveAlpha: 0.5}, []int{8}},
	}
	const steps = 6
	for _, tc := range cases {
		answered, denied, reordered, adaptiveStops := 0, 0, 0, 0
		for _, n := range tc.ns {
			p := tc.p
			p.Seed = int64(n)
			game := refGame(t, n, p, steps)
			for _, st := range game {
				if st.adaptive {
					adaptiveStops++
				}
				if st.decision == audit.Answer {
					answered++
				} else {
					denied++
				}
			}
			for _, workers := range []int{1, 2, 8} {
				p.Workers = workers
				got, err := New(n, p)
				if err != nil {
					t.Fatal(err)
				}
				var mu sync.Mutex
				seen := map[int]bool{}
				got.verdictHook = func(i int, unsafe bool) {
					mu.Lock()
					defer mu.Unlock()
					seen[i] = unsafe
				}
				var evals evalCounter
				got.SetMCObserver(&evals)
				for k, st := range game {
					if st.hist != nil {
						got.Record(*st.hist, st.histAns)
					}
					clear(seen)
					d, err := got.Decide(st.q)
					where := fmt.Sprintf("%s n=%d workers=%d step=%d", tc.name, n, workers, k)
					if (err != nil) != (st.err != nil) || d != st.decision {
						t.Fatalf("%s: decision %v (err %v), reference %v (err %v)", where, d, err, st.decision, st.err)
					}
					if len(seen) == 0 || (workers == 1 && len(seen) != evals.evaluated) {
						t.Fatalf("%s: %d verdicts ran to completion, %d evaluated", where, len(seen), evals.evaluated)
					}
					for i, unsafe := range seen {
						if unsafe != st.verdicts[i] {
							t.Fatalf("%s: sample %d voted unsafe=%v, reference %v", where, i, unsafe, st.verdicts[i])
						}
					}
					if len(got.lastX) != len(st.lastX) {
						t.Fatalf("%s: chain state length %d, reference %d", where, len(got.lastX), len(st.lastX))
					}
					for j := range got.lastX {
						if math.Float64bits(got.lastX[j]) != math.Float64bits(st.lastX[j]) {
							t.Fatalf("%s: lastX[%d] = %v, reference %v", where, j, got.lastX[j], st.lastX[j])
						}
					}
					for pos, i := range got.prop.order {
						if pos != i {
							reordered++
							break
						}
					}
				}
			}
		}
		t.Logf("%s: answered=%d denied=%d reordered=%d adaptive=%d", tc.name, answered, denied, reordered, adaptiveStops)
		if answered == 0 || denied == 0 {
			t.Fatalf("%s: degenerate game (answered=%d denied=%d) exercises one decision path", tc.name, answered, denied)
		}
		if adaptive := tc.p.AdaptiveAlpha > 0; adaptive != (reordered == 0) || adaptive != (adaptiveStops > 0) {
			t.Fatalf("%s: %d decisions voted in ranked order, %d stopped by the adaptive rule; want none and some exactly when it is armed",
				tc.name, reordered, adaptiveStops)
		}
	}
}

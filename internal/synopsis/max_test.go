package synopsis

import (
	"math/rand"
	"sort"
	"testing"

	"queryaudit/internal/query"
)

// TestPaperExampleSplit reproduces the Section 2.2 example: after
// max{a,b,c}=9 and max{a,b}=9 the synopsis must hold [max{a,b}=9] and
// [max{c}<9].
func TestPaperExampleSplit(t *testing.T) {
	m := NewMax(3) // a=0, b=1, c=2
	if err := m.Add(query.NewSet(0, 1, 2), 9); err != nil {
		t.Fatalf("first add: %v", err)
	}
	if err := m.Add(query.NewSet(0, 1), 9); err != nil {
		t.Fatalf("second add: %v", err)
	}
	preds := m.Preds()
	if len(preds) != 2 {
		t.Fatalf("got %d predicates, want 2: %v", len(preds), preds)
	}
	var eq, lt *Pred
	for i := range preds {
		if preds[i].Eq() {
			eq = &preds[i]
		} else {
			lt = &preds[i]
		}
	}
	if eq == nil || lt == nil {
		t.Fatalf("expected one eq and one strict predicate, got %v", preds)
	}
	if !eq.Set.Equal(query.NewSet(0, 1)) || eq.Value != 9 {
		t.Errorf("eq predicate = %v, want [max{0,1}=9]", eq)
	}
	if !lt.Set.Equal(query.NewSet(2)) || lt.Value != 9 {
		t.Errorf("strict predicate = %v, want [max{2}<9]", lt)
	}
}

// TestDisjointEqualAnswersInconsistent: two max queries with disjoint
// sets cannot share an answer when values are duplicate-free.
func TestDisjointEqualAnswersInconsistent(t *testing.T) {
	m := NewMax(4)
	if err := m.Add(query.NewSet(0, 1), 9); err != nil {
		t.Fatalf("first add: %v", err)
	}
	if err := m.Add(query.NewSet(2, 3), 9); err != ErrInconsistent {
		t.Fatalf("second add: got %v, want ErrInconsistent", err)
	}
	// State must be unchanged after the failed add.
	if got := len(m.Preds()); got != 1 {
		t.Errorf("predicates after failed add = %d, want 1", got)
	}
}

// TestAnswerAboveAllBounds: a max answer exceeding every member's known
// bound is impossible.
func TestAnswerAboveAllBounds(t *testing.T) {
	m := NewMax(3)
	if err := m.Add(query.NewSet(0, 1, 2), 5); err != nil {
		t.Fatalf("add: %v", err)
	}
	if err := m.Add(query.NewSet(0, 1), 7); err != ErrInconsistent {
		t.Fatalf("got %v, want ErrInconsistent (all members are ≤ 5)", err)
	}
}

// TestForcedHigherMax: a subset wholly containing an equality predicate
// with a larger value cannot have a smaller max.
func TestForcedHigherMax(t *testing.T) {
	m := NewMax(4)
	if err := m.Add(query.NewSet(0, 1), 9); err != nil {
		t.Fatalf("add: %v", err)
	}
	if err := m.Add(query.NewSet(0, 1, 2, 3), 5); err != ErrInconsistent {
		t.Fatalf("got %v, want ErrInconsistent (max must be ≥ 9)", err)
	}
}

// TestLowerAnswerRefines: a smaller answer on a subset moves its
// elements below the old witness group.
func TestLowerAnswerRefines(t *testing.T) {
	m := NewMax(3)
	if err := m.Add(query.NewSet(0, 1, 2), 9); err != nil {
		t.Fatalf("add: %v", err)
	}
	if err := m.Add(query.NewSet(0, 1), 4); err != nil {
		t.Fatalf("add: %v", err)
	}
	// Now x2 must be the 9-witness: [max{2}=9], and [max{0,1}=4].
	p2, ok := predAt(m, 2)
	if !ok || !p2.Eq() || p2.Value != 9 || len(p2.Set) != 1 {
		t.Errorf("element 2 predicate = %v, want singleton [max{2}=9]", p2)
	}
	p0, _ := predAt(m, 0)
	if !p0.Eq() || p0.Value != 4 || !p0.Set.Equal(query.NewSet(0, 1)) {
		t.Errorf("element 0 predicate = %v, want [max{0,1}=4]", p0)
	}
}

// TestUpperBoundSemantics checks the derived bounds.
func TestUpperBoundSemantics(t *testing.T) {
	m := NewMax(4)
	if err := m.Add(query.NewSet(0, 1, 2), 9); err != nil {
		t.Fatalf("add: %v", err)
	}
	if err := m.Add(query.NewSet(0, 1), 9); err != nil {
		t.Fatalf("add: %v", err)
	}
	if v, strict, ok := m.UpperBound(0); !ok || strict || v != 9 {
		t.Errorf("bound(0) = (%g,%v,%v), want (9,false,true)", v, strict, ok)
	}
	if v, strict, ok := m.UpperBound(2); !ok || !strict || v != 9 {
		t.Errorf("bound(2) = (%g,%v,%v), want (9,true,true)", v, strict, ok)
	}
	if _, _, ok := m.UpperBound(3); ok {
		t.Error("bound(3) should be unconstrained")
	}
}

// TestAddConsistentWithTruth feeds answers computed from a real dataset
// and verifies the synopsis never rejects the truth and all derived
// bounds hold for the true values.
func TestAddConsistentWithTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(8)
		xs := distinctValues(rng, n)
		m := NewMax(n)
		for step := 0; step < 12; step++ {
			q := randomSet(rng, n)
			a := maxOf(xs, q)
			if err := m.Add(q, a); err != nil {
				t.Fatalf("trial %d step %d: true answer rejected: %v\nsynopsis: %v\nquery %v=%g", trial, step, err, m, q, a)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("trial %d step %d: invariant: %v", trial, step, err)
			}
			for i := 0; i < n; i++ {
				v, strict, ok := m.UpperBound(i)
				if !ok {
					continue
				}
				if strict && xs[i] >= v {
					t.Fatalf("trial %d: derived x%d < %g but x%d = %g", trial, i, v, i, xs[i])
				}
				if !strict && xs[i] > v {
					t.Fatalf("trial %d: derived x%d <= %g but x%d = %g", trial, i, v, i, xs[i])
				}
			}
			// Every equality predicate's value must be attained by
			// exactly one member.
			for _, p := range m.Preds() {
				if !p.Eq() {
					continue
				}
				hits := 0
				for _, i := range p.Set {
					if xs[i] == p.Value {
						hits++
					}
				}
				if hits != 1 {
					t.Fatalf("trial %d: predicate %v attained by %d members", trial, p, hits)
				}
			}
		}
	}
}

func distinctValues(rng *rand.Rand, n int) []float64 {
	for {
		xs := make([]float64, n)
		for i := range xs {
			// Small integer grid to force value collisions across
			// queries (the interesting regime for merging).
			xs[i] = float64(rng.Intn(50))
		}
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		ok := true
		for i := 1; i < len(s); i++ {
			if s[i] == s[i-1] {
				ok = false
				break
			}
		}
		if ok {
			return xs
		}
	}
}

func randomSet(rng *rand.Rand, n int) query.Set {
	for {
		var q []int
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				q = append(q, i)
			}
		}
		if len(q) > 0 {
			return query.NewSet(q...)
		}
	}
}

func maxOf(xs []float64, q query.Set) float64 {
	best := xs[q[0]]
	for _, i := range q[1:] {
		if xs[i] > best {
			best = xs[i]
		}
	}
	return best
}

func minOf(xs []float64, q query.Set) float64 {
	best := xs[q[0]]
	for _, i := range q[1:] {
		if xs[i] < best {
			best = xs[i]
		}
	}
	return best
}

// TestCloneIndependence verifies deep copying.
func TestCloneIndependence(t *testing.T) {
	m := NewMax(3)
	if err := m.Add(query.NewSet(0, 1, 2), 9); err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	if err := c.Add(query.NewSet(0, 1), 9); err != nil {
		t.Fatal(err)
	}
	if len(m.Preds()) != 1 {
		t.Errorf("original mutated by clone's Add: %v", m)
	}
	if len(c.Preds()) != 2 {
		t.Errorf("clone missing update: %v", c)
	}
}

// predAt returns the predicate containing element i, if any.
func predAt(m *Max, i int) (Pred, bool) {
	if p := m.predOf(i); p != nil {
		return *p, true
	}
	return Pred{}, false
}

package synopsis

import (
	"math/rand"
	"reflect"
	"testing"

	"queryaudit/internal/query"
)

// refAdd is the element-at-a-time fold: the direct transcription of the
// folding rules that Max.Add batches per predicate. Each detached element
// rebuilds its predicate's set, and consistency check (2) scans every
// predicate.
func refAdd(m *Max, q query.Set, a float64) error {
	witnessable := false
	for _, i := range q {
		if m.canAchieve(i, a) {
			witnessable = true
		}
	}
	if !witnessable {
		return ErrInconsistent
	}
	for _, p := range m.preds {
		if p.Op == OpEq && p.Value > a && p.Set.Minus(q).Size() == 0 {
			return ErrInconsistent
		}
	}
	if id, ok := m.eqVal[a]; ok && !m.preds[id].Set.Overlaps(q) {
		return ErrInconsistent
	}
	if id, ok := m.eqVal[a]; ok {
		old := m.preds[id]
		inter := old.Set.Intersect(q)
		outside := old.Set.Minus(q)
		m.deletePred(old)
		m.newPred(inter, a, OpEq)
		if len(outside) > 0 {
			m.newPred(outside, a, OpLt)
		}
		refTightenBelow(m, q.Minus(inter), a)
		return nil
	}
	var witnesses, nonWitnesses query.Set
	for _, i := range q {
		if m.canAchieve(i, a) {
			witnesses = append(witnesses, i)
		} else {
			nonWitnesses = append(nonWitnesses, i)
		}
	}
	for _, i := range witnesses {
		refDetach(m, i)
	}
	m.newPred(witnesses, a, OpEq)
	refTightenBelow(m, nonWitnesses, a)
	return nil
}

func refTightenBelow(m *Max, set query.Set, a float64) {
	var moved query.Set
	for _, i := range set {
		id := m.elem[i]
		if id < 0 {
			moved = append(moved, i)
			continue
		}
		p := m.preds[id]
		switch {
		case (p.Op == OpEq || p.Op == OpLe) && p.Value < a:
		case p.Op == OpLt && p.Value <= a:
		default:
			refDetach(m, i)
			moved = append(moved, i)
		}
	}
	if len(moved) > 0 {
		m.newPred(moved, a, OpLt)
	}
}

func refDetach(m *Max, i int) {
	id := m.elem[i]
	if id < 0 {
		return
	}
	p := m.preds[id]
	p.Set = p.Set.Minus(query.Set{i})
	m.elem[i] = -1
	if p.Op == OpEq {
		switch len(p.Set) {
		case 0:
			m.singletonEq--
		case 1:
			m.singletonEq++
		}
	}
	if len(p.Set) == 0 {
		if p.Op == OpEq {
			if id2, ok := m.eqVal[p.Value]; ok && id2 == p.ID {
				delete(m.eqVal, p.Value)
			}
		}
		if p.Op == OpLe {
			m.leCount--
		}
		delete(m.preds, p.ID)
	}
}

// TestAddMatchesElementwiseReference: the batched fold produces exactly
// the element-at-a-time fold's synopsis (same predicates, IDs and
// counters) and the same verdict, on truthful and arbitrary answers
// alike; a fold inside a trial rolls back to a byte-identical synopsis.
func TestAddMatchesElementwiseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(10)
		xs := distinctValues(rng, n)
		m := NewMax(n)
		for step := 0; step < 30; step++ {
			q := randomSet(rng, n)
			switch rng.Intn(6) {
			case 0:
				i := rng.Intn(n)
				m.Update(i)
				xs[i] = float64(100 + trial*40 + step) // fresh, duplicate-free
				continue
			case 1:
				ref := m.Clone()
				b := float64(rng.Intn(45))
				refTightenBelow(ref, q, b)
				m.ForceStrictBelow(q, b)
				if !reflect.DeepEqual(m.Snapshot(), ref.Snapshot()) {
					t.Fatalf("trial %d step %d: ForceStrictBelow(%v, %g):\n got %v\nwant %v", trial, step, q, b, m, ref)
				}
				continue
			}
			a := maxOf(xs, q)
			if rng.Intn(3) == 0 {
				a = float64(rng.Intn(45)) // often inconsistent
			}
			before := m.Snapshot()
			m.beginTrial()
			trialErr := m.Add(q, a)
			m.rollbackTrial()
			if got := m.Snapshot(); !reflect.DeepEqual(got, before) {
				t.Fatalf("trial %d step %d: rollback of Add(%v, %g) left %v, want %v", trial, step, q, a, got, before)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("trial %d step %d: invariants after rollback: %v", trial, step, err)
			}
			ref := m.Clone()
			refErr := refAdd(ref, q, a)
			err := m.Add(q, a)
			if (err == nil) != (refErr == nil) || (err == nil) != (trialErr == nil) {
				t.Fatalf("trial %d step %d: Add(%v, %g) = %v, trial %v, reference %v", trial, step, q, a, err, trialErr, refErr)
			}
			if !reflect.DeepEqual(m.Snapshot(), ref.Snapshot()) {
				t.Fatalf("trial %d step %d: Add(%v, %g):\n got %v\nwant %v", trial, step, q, a, m, ref)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			if m.singletonEq != ref.singletonEq || m.leCount != ref.leCount {
				t.Fatalf("trial %d step %d: counters (%d, %d), reference (%d, %d)",
					trial, step, m.singletonEq, m.leCount, ref.singletonEq, ref.leCount)
			}
		}
	}
}

package maxminfull

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"queryaudit/internal/audit"
	"queryaudit/internal/query"
	"queryaudit/internal/synopsis"
)

// foldClone is the clone-and-fold evaluation of one candidate answer:
// fold it into a deep copy of syn and accept it only if the copy also
// passes the full consistency sweep of CheckInvariants.
func foldClone(syn *synopsis.MaxMin, q query.Query, cand float64) (consistent, hit bool) {
	trial := syn.Clone()
	var err error
	if q.Kind == query.Max {
		err = trial.AddMax(q.Set, cand)
	} else {
		err = trial.AddMin(q.Set, cand)
	}
	if err == nil {
		err = trial.CheckInvariants()
	}
	if err != nil {
		return false, false
	}
	return true, compromised(trial)
}

// referenceDecide is Algorithm 3 by clone-and-fold: the decision path
// Decide replaced with in-place trials on the undo log.
func referenceDecide(a *Auditor, q query.Query) audit.Decision {
	anyConsistent := false
	for _, cand := range a.Candidates(q.Set) {
		consistent, hit := foldClone(a.syn, q, cand)
		if !consistent {
			continue
		}
		anyConsistent = true
		if hit {
			return audit.Deny
		}
	}
	if !anyConsistent {
		return audit.Deny
	}
	return audit.Answer
}

func snapshotBytes(t *testing.T, syn *synopsis.MaxMin) []byte {
	t.Helper()
	b, err := json.Marshal(syn.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDecideMatchesCloneReference drives seeded mixed max/min streams,
// with an update every ~8 steps so weak predicates and the
// extreme-element analysis come into play, and checks after every step
// that the in-place trials agree with clone-and-fold: the same verdict
// per candidate and per query, a synopsis byte-identical after Decide,
// the same state after Record, and an unchanged synopsis after an
// inconsistent AddMax/AddMin.
func TestDecideMatchesCloneReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	denials, weakSteps := 0, 0
	for trial := 0; trial < 120; trial++ {
		n := 4 + rng.Intn(7)
		xs := distinct(rng, n)
		used := map[float64]bool{}
		for _, v := range xs {
			used[v] = true
		}
		a := New(n)
		for step := 0; step < 40; step++ {
			if step%8 == 7 {
				i := rng.Intn(n)
				v := float64(rng.Intn(40))
				for used[v] {
					v = float64(rng.Intn(40))
				}
				used[v] = true
				xs[i] = v
				a.NoteUpdate(i)
				continue
			}
			kind := query.Max
			if rng.Intn(2) == 0 {
				kind = query.Min
			}
			q := query.Query{Kind: kind, Set: randSet(rng, n)}
			if a.syn.WeakPredCount() > 0 {
				weakSteps++
			}

			before := snapshotBytes(t, a.syn)
			for _, cand := range a.Candidates(q.Set) {
				gotC, gotH := a.syn.Try(q.Kind, q.Set, cand, compromised)
				wantC, wantH := foldClone(a.syn, q, cand)
				if gotC != wantC || gotH != wantH {
					t.Fatalf("trial %d step %d: %v answer %g: Try = (%v, %v), clone-and-fold = (%v, %v)",
						trial, step, q, cand, gotC, gotH, wantC, wantH)
				}
				if !wantC {
					c := a.syn.Clone()
					var err error
					if kind == query.Max {
						err = c.AddMax(q.Set, cand)
					} else {
						err = c.AddMin(q.Set, cand)
					}
					if err == nil {
						t.Fatalf("trial %d step %d: %v answer %g folds cleanly but fails the full sweep", trial, step, q, cand)
					}
					if !bytes.Equal(snapshotBytes(t, c), before) {
						t.Fatalf("trial %d step %d: inconsistent %v answer %g changed the synopsis", trial, step, q, cand)
					}
					if err := c.CheckInvariants(); err != nil {
						t.Fatalf("trial %d step %d: invariants after rejected fold: %v", trial, step, err)
					}
				}
			}
			got, err := a.Decide(q)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snapshotBytes(t, a.syn), before) {
				t.Fatalf("trial %d step %d: Decide(%v) left the synopsis changed", trial, step, q)
			}
			if want := referenceDecide(a, q); got != want {
				t.Fatalf("trial %d step %d: Decide(%v) = %v, clone-and-fold reference = %v", trial, step, q, got, want)
			}
			if got == audit.Deny {
				denials++
				continue
			}
			ref := a.syn.Clone()
			ans := q.Eval(xs)
			if kind == query.Max {
				err = ref.AddMax(q.Set, ans)
			} else {
				err = ref.AddMin(q.Set, ans)
			}
			if err != nil {
				t.Fatalf("trial %d step %d: clone-path record of %v = %g: %v", trial, step, q, ans, err)
			}
			a.Record(q, ans)
			if !bytes.Equal(snapshotBytes(t, a.syn), snapshotBytes(t, ref)) {
				t.Fatalf("trial %d step %d: Record(%v) state differs from the clone-path record", trial, step, q)
			}
			if err := a.syn.CheckInvariants(); err != nil {
				t.Fatalf("trial %d step %d: invariants after Record: %v", trial, step, err)
			}
		}
	}
	if denials == 0 || weakSteps == 0 {
		t.Fatalf("stream too tame: %d denials, %d steps with weak predicates", denials, weakSteps)
	}
}

// Package maxfull implements the simulatable full-disclosure max auditor
// of [Kenthapadi–Mishra–Nissim '05] on top of the synopsis blackbox B,
// which compresses the audit trail to O(n) (Section 4, "no duplicates").
//
// Decision rule (simulatable — the true answer is never consulted): for
// the new query set Q, enumerate the finitely many answer candidates that
// matter (Theorem 5): the values of the synopsis predicates intersecting
// Q, the midpoints between consecutive such values, and points just
// outside the extremes. For each candidate consistent with the synopsis,
// fold it in and test whether any element becomes uniquely determined —
// for a max-only history over disjoint predicate sets this is exactly
// "some equality predicate shrank to one element". Deny if any
// consistent candidate compromises.
package maxfull

import (
	"fmt"
	"math"
	"sort"

	"queryaudit/internal/audit"
	"queryaudit/internal/query"
	"queryaudit/internal/synopsis"
)

// Auditor is the simulatable max auditor.
type Auditor struct {
	n   int
	syn *synopsis.Max
}

// New returns a max auditor over n records. The dataset must be
// duplicate-free (the engine enforces this at construction).
func New(n int) *Auditor {
	return &Auditor{n: n, syn: synopsis.NewMax(n)}
}

// Name implements audit.Auditor.
func (a *Auditor) Name() string { return "max-full-disclosure" }

// N returns the number of records.
func (a *Auditor) N() int { return a.n }

// Synopsis exposes a copy of the current audit trail (diagnostics).
func (a *Auditor) Synopsis() *synopsis.Max { return a.syn.Clone() }

// Candidates returns the finite set of answers that must be examined for
// query set q (Theorem 5): predicate values touching q plus one
// representative per open interval they delimit. Interval
// representatives avoid every equality value in the synopsis — a
// collision would make the representative spuriously inconsistent and
// leave its interval unexamined (see audit.CandidateAnswers). At least
// one candidate is always returned.
func (a *Auditor) Candidates(q query.Set) []float64 {
	// CandidateAnswers sorts and dedups, so duplicates are fine here —
	// and collecting into a slice (rather than a dedup map iterated in
	// random order) keeps the candidate stream deterministic.
	values := make([]float64, 0, len(q))
	for _, i := range q {
		if h, ok := a.syn.Head(i); ok {
			values = append(values, h.Value)
		}
	}
	return audit.CandidateAnswers(values, a.syn.EqValues())
}

// Decide implements audit.Auditor. It uses a closed-form evaluation of
// each candidate (O(preds touching Q) per candidate) when no weak
// post-update predicates exist; DecideReference is the direct
// clone-and-fold evaluation the fast path is property-tested against.
func (a *Auditor) Decide(q query.Query) (audit.Decision, error) {
	if q.Kind != query.Max {
		return audit.Deny, fmt.Errorf("%w: %v", audit.ErrUnsupportedKind, q.Kind)
	}
	if len(q.Set) == 0 {
		return audit.Deny, fmt.Errorf("maxfull: empty query set")
	}
	return a.decideFast(q.Set), nil
}

// DecideReference is the direct implementation of Algorithm 3: fold each
// candidate into a cloned synopsis and inspect it.
func (a *Auditor) DecideReference(q query.Query) (audit.Decision, error) {
	if q.Kind != query.Max {
		return audit.Deny, fmt.Errorf("%w: %v", audit.ErrUnsupportedKind, q.Kind)
	}
	if len(q.Set) == 0 {
		return audit.Deny, fmt.Errorf("maxfull: empty query set")
	}
	anyConsistent := false
	for _, cand := range a.Candidates(q.Set) {
		trial := a.syn.Clone()
		if err := trial.Add(q.Set, cand); err != nil {
			continue // inconsistent answers cannot occur
		}
		anyConsistent = true
		if trial.SingletonEqCount() > 0 {
			return audit.Deny, nil
		}
	}
	if !anyConsistent {
		// Defensive: the true answer is always consistent, so this means
		// the candidate set missed it — deny rather than risk leakage.
		return audit.Deny, nil
	}
	return audit.Answer, nil
}

// decideFast evaluates every candidate answer against aggregate counts of
// the predicates touching Q, avoiding synopsis clones. For each
// candidate a the relevant facts are:
//
//	consistency — some element of Q can attain a; no equality predicate
//	  with value > a lies wholly inside Q; if some equality predicate
//	  already owns a it must intersect Q;
//	compromise — (merge) the a-owning predicate intersects Q in exactly
//	  one element; (witness) exactly one element of Q can attain a; or
//	  (shrink) an equality predicate with value > a keeps exactly one
//	  element after its Q-members move below a.
type touching struct {
	pred synopsis.PredHead
	cnt  int
}

func (a *Auditor) decideFast(q query.Set) audit.Decision {
	byPred := make(map[int]*touching)
	free := 0
	for _, i := range q {
		p, ok := a.syn.Head(i)
		if !ok {
			free++
			continue
		}
		t := byPred[p.ID]
		if t == nil {
			t = &touching{pred: p}
			byPred[p.ID] = t
		}
		t.cnt++
	}
	touches := make([]*touching, 0, len(byPred))
	//auditlint:allow detrand sorted by predicate ID below
	for _, t := range byPred {
		touches = append(touches, t)
	}
	sort.Slice(touches, func(i, j int) bool { return touches[i].pred.ID < touches[j].pred.ID })
	anyConsistent := false
	for _, cand := range a.Candidates(q) {
		consistent, compromised := evalCandidate(a.syn, cand, touches, free)
		if !consistent {
			continue
		}
		anyConsistent = true
		if compromised {
			return audit.Deny
		}
	}
	if !anyConsistent {
		return audit.Deny
	}
	return audit.Answer
}

func evalCandidate(syn *synopsis.Max, a float64, touches []*touching, free int) (consistent, compromised bool) {
	// A foreign equality predicate owning a makes the answer impossible;
	// an intersecting one switches to the merge analysis.
	var merge *touching
	if gp, ok := syn.EqHead(a); ok {
		found := false
		for _, t := range touches {
			if t.pred.ID == gp.ID {
				merge = t
				found = true
				break
			}
		}
		if !found {
			return false, false
		}
	}
	witnesses := free
	shrinkSingleton := false
	for _, t := range touches {
		p := t.pred
		switch p.Op {
		case synopsis.OpEq:
			switch {
			case p.Value > a:
				if t.cnt == p.Size {
					return false, false // forces max(Q) > a
				}
				witnesses += t.cnt
				if p.Size-t.cnt == 1 {
					shrinkSingleton = true
				}
			//auditlint:allow floateq candidates are copied predicate values; equality selects the owning predicate exactly
			case p.Value == a:
				// merge handled below; members count as witnesses
			}
		case synopsis.OpLe:
			if p.Value >= a {
				witnesses += t.cnt
			}
		case synopsis.OpLt:
			if p.Value > a {
				witnesses += t.cnt
			}
		}
	}
	if merge != nil {
		// Witness is pinned inside merge.pred.Set ∩ Q.
		return true, merge.cnt == 1 || shrinkSingleton
	}
	if witnesses == 0 {
		return false, false
	}
	return true, witnesses == 1 || shrinkSingleton
}

// Record implements audit.Auditor.
func (a *Auditor) Record(q query.Query, answer float64) {
	if err := a.syn.Add(q.Set, answer); err != nil {
		panic(fmt.Sprintf("maxfull: recording true answer failed: %v", err))
	}
}

// NoteUpdate implements audit.UpdateObserver: record idx's sensitive
// value changed, so its derived bounds are retired and any equality
// predicate that might have had it as witness is demoted to a
// witness-free bound.
func (a *Auditor) NoteUpdate(idx int) {
	if idx < 0 || idx >= a.n {
		return
	}
	a.syn.Update(idx)
}

// Compromised reports whether the current trail already pins a value
// (never after a run of correct decisions; used by tests and demos).
func (a *Auditor) Compromised() bool { return a.syn.SingletonEqCount() > 0 }

// Snapshot captures the auditor's audit trail for persistence.
func (a *Auditor) Snapshot() synopsis.Snapshot { return a.syn.Snapshot() }

// Restore rebuilds an auditor from a snapshot, re-validating it.
func Restore(s synopsis.Snapshot) (*Auditor, error) {
	syn, err := synopsis.RestoreMax(s)
	if err != nil {
		return nil, err
	}
	return &Auditor{n: syn.N(), syn: syn}, nil
}

// Knowledge implements audit.KnowledgeReporter: upper bounds derived
// from the synopsis (max queries give no lower bounds).
func (a *Auditor) Knowledge() []audit.ElementKnowledge {
	out := make([]audit.ElementKnowledge, a.n)
	for i := 0; i < a.n; i++ {
		k := audit.ElementKnowledge{Index: i, Lower: math.Inf(-1), Upper: math.Inf(1)}
		if v, strict, ok := a.syn.UpperBound(i); ok {
			k.Upper, k.UpperStrict = v, strict
		}
		if p, ok := a.syn.Head(i); ok && p.Op == synopsis.OpEq && p.Size == 1 {
			k.Pinned = true
			k.Lower, k.LowerStrict = p.Value, false
			k.Upper, k.UpperStrict = p.Value, false
		}
		out[i] = k
	}
	return out
}

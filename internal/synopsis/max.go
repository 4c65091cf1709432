// Package synopsis implements the synopsis-computing blackbox B of
// Section 2.2 (after Chin '86): an incrementally maintained, O(n)-size
// representation of everything derivable from a history of answered max
// (and, by mirroring, min) queries over a duplicate-free dataset.
//
// A max synopsis is a set of predicates, each one of
//
//	[max(S) = M]  — every x_i (i ∈ S) is ≤ M and exactly one equals M;
//	[max(S) < M]  — every x_i (i ∈ S) is strictly below M;
//	[max(S) ≤ M]  — every x_i (i ∈ S) is at most M, with no witness
//	                claim (arises only when a database update retires an
//	                equality predicate's potential witness),
//
// whose query sets S are pairwise disjoint; each element of the dataset
// appears in at most one predicate. The no-duplicates assumption is what
// allows a new query to be folded into this form in O(|Q|) amortized
// time: when two equality predicates would share a value, their unique
// witness must lie in the intersection of their sets.
//
// The combined max+min synopsis additionally applies the paper's
// normalization: a max predicate and a min predicate with the same value
// M must share exactly one element x_j, which is pinned to M and split
// out of both sets.
//
// Folding [f(Q) = a] costs O(|Q|) plus the sizes of the predicates Q
// touches: members of Q leave each touched predicate in one pass over
// it, and the combined synopsis re-checks consistency only on the
// elements the fold re-bounded and the equality predicates holding them
// (the state before the fold is consistent by invariant). Auditors
// evaluate candidate answers with MaxMin.Try, a trial fold on the live
// synopsis: while a trial is open every mutation journals its inverse
// in an undo log, and the rollback replays the log backwards, so no
// copy of the synopsis is made. AddMax and AddMin reject an
// inconsistent answer through the same rollback.
package synopsis

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"queryaudit/internal/query"
)

// ErrInconsistent reports that a query/answer pair contradicts the
// information already in the synopsis. The synopsis is left unchanged.
var ErrInconsistent = errors.New("synopsis: answer inconsistent with history")

// Op is the relation a predicate asserts between max(Set) and Value.
type Op int

const (
	// OpEq asserts max(Set) = Value: exactly one element attains Value.
	OpEq Op = iota
	// OpLt asserts every element of Set is strictly below Value.
	OpLt
	// OpLe asserts every element of Set is at most Value, with no
	// witness obligation. Only database updates produce OpLe: when the
	// modified record might have been an equality predicate's witness,
	// the surviving elements keep the bound but lose the guarantee that
	// one of them attains it.
	OpLe
)

func (o Op) symbol() string {
	switch o {
	case OpEq:
		return "="
	case OpLt:
		return "<"
	default:
		return "<="
	}
}

// Pred is one synopsis predicate over a max synopsis. For a min synopsis
// the mirrored reading applies: OpEq is [min(Set) = Value], OpLt is
// [min(Set) > Value], OpLe is [min(Set) ≥ Value].
type Pred struct {
	// ID is a stable identifier, unique within one synopsis instance.
	ID    int
	Set   query.Set
	Value float64
	Op    Op
}

// Eq reports whether the predicate is an equality (witness-carrying)
// predicate.
func (p Pred) Eq() bool { return p.Op == OpEq }

func (p Pred) String() string {
	return fmt.Sprintf("[max%s %s %g]", p.Set, p.Op.symbol(), p.Value)
}

// Max is the incrementally maintained max-query synopsis.
type Max struct {
	n      int
	nextID int
	preds  map[int]*Pred
	// elem[i] is the predicate ID containing element i, or -1.
	elem []int
	// eqVal maps an equality predicate's value to its ID. Equality
	// values are unique by construction.
	eqVal map[float64]int
	// singletonEq counts equality predicates with a one-element set —
	// each pins its element exactly, i.e. classical compromise.
	singletonEq int
	// leCount counts OpLe predicates (they exist only after updates).
	leCount int

	// undo is the open trial's undo log (see beginTrial); nil when no
	// trial is open. log keeps its buffers between trials.
	undo *undoLog
	log  undoLog
	// groupBuf and groupAt are touch's scratch: the groups, and the
	// index of each touched predicate's group (emptied after each use).
	groupBuf []touched
	groupAt  map[int]int
}

// undoLog records the inverse of every mutation made since beginTrial.
// Each location (an elem slot, a predicate's fields and registration, an
// eqVal key) lives in exactly one journal, so replaying each journal
// backwards restores the state at beginTrial. Predicate sets are never
// modified in place, so a journaled set stays valid.
type undoLog struct {
	nextID, singletonEq, leCount int
	elems                        []elemUndo
	preds                        []predUndo
	eqs                          []eqUndo
}

type elemUndo struct{ i, old int }

type predUndo struct {
	p          *Pred
	saved      Pred
	registered bool
}

type eqUndo struct {
	v   float64
	id  int
	had bool
}

// touched is one predicate holding members of a set, with their count.
type touched struct {
	p   *Pred
	cnt int
}

// NewMax returns an empty synopsis over n elements.
func NewMax(n int) *Max {
	m := &Max{
		n:     n,
		preds: make(map[int]*Pred),
		elem:  make([]int, n),
		eqVal: make(map[float64]int),
	}
	for i := range m.elem {
		m.elem[i] = -1
	}
	return m
}

// N returns the number of dataset elements the synopsis covers.
func (m *Max) N() int { return m.n }

// Clone returns a deep copy.
func (m *Max) Clone() *Max {
	c := &Max{
		n:           m.n,
		nextID:      m.nextID,
		preds:       make(map[int]*Pred, len(m.preds)),
		elem:        append([]int(nil), m.elem...),
		eqVal:       make(map[float64]int, len(m.eqVal)),
		singletonEq: m.singletonEq,
		leCount:     m.leCount,
	}
	for id, p := range m.preds {
		cp := *p
		cp.Set = p.Set.Clone()
		c.preds[id] = &cp
	}
	for v, id := range m.eqVal {
		c.eqVal[v] = id
	}
	return c
}

// CopyInto overwrites dst with a deep copy of m, reusing dst's maps,
// predicate objects and set slices — the allocation-lean sibling of
// Clone for hot loops that repeatedly reset one scratch synopsis to a
// base state (the probabilistic max auditor re-copies the trail once per
// Monte Carlo sample). dst must not share structure with m.
func (m *Max) CopyInto(dst *Max) {
	dst.n = m.n
	dst.nextID = m.nextID
	dst.singletonEq = m.singletonEq
	dst.leCount = m.leCount
	if cap(dst.elem) < m.n {
		dst.elem = make([]int, m.n)
	}
	dst.elem = dst.elem[:m.n]
	copy(dst.elem, m.elem)
	if dst.preds == nil {
		dst.preds = make(map[int]*Pred, len(m.preds))
	}
	for id := range dst.preds {
		if _, ok := m.preds[id]; !ok {
			delete(dst.preds, id)
		}
	}
	for id, p := range m.preds {
		cp := dst.preds[id]
		if cp == nil {
			cp = &Pred{}
			dst.preds[id] = cp
		}
		cp.ID = p.ID
		cp.Set = append(cp.Set[:0], p.Set...)
		cp.Value = p.Value
		cp.Op = p.Op
	}
	if dst.eqVal == nil {
		dst.eqVal = make(map[float64]int, len(m.eqVal))
	}
	for v := range dst.eqVal {
		delete(dst.eqVal, v)
	}
	for v, id := range m.eqVal {
		dst.eqVal[v] = id
	}
}

// Preds returns the predicates sorted by ID (deep copies).
func (m *Max) Preds() []Pred {
	ids := make([]int, 0, len(m.preds))
	for id := range m.preds {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]Pred, 0, len(ids))
	for _, id := range ids {
		p := m.preds[id]
		out = append(out, Pred{ID: p.ID, Set: p.Set.Clone(), Value: p.Value, Op: p.Op})
	}
	return out
}

// PredHead is a predicate without its member set: what readers that
// only need a predicate's identity, bound and size get without copying
// the set.
type PredHead struct {
	ID    int
	Value float64
	Op    Op
	Size  int
}

// Head returns the head of the predicate containing element i, if any.
func (m *Max) Head(i int) (PredHead, bool) {
	id := m.elem[i]
	if id < 0 {
		return PredHead{}, false
	}
	return headOf(m.preds[id]), true
}

// predOf returns the predicate containing element i, or nil.
func (m *Max) predOf(i int) *Pred {
	if id := m.elem[i]; id >= 0 {
		return m.preds[id]
	}
	return nil
}

func headOf(p *Pred) PredHead {
	return PredHead{ID: p.ID, Value: p.Value, Op: p.Op, Size: len(p.Set)}
}

// UpperBound returns the upper bound on element i derivable from the
// synopsis: value v with strict=false meaning x_i ≤ v (equality possible)
// or strict=true meaning x_i < v. ok is false when i is unconstrained.
func (m *Max) UpperBound(i int) (v float64, strict, ok bool) {
	id := m.elem[i]
	if id < 0 {
		return 0, false, false
	}
	p := m.preds[id]
	return p.Value, p.Op == OpLt, true
}

// canAchieve reports whether element i could take the value a under the
// current synopsis.
func (m *Max) canAchieve(i int, a float64) bool {
	id := m.elem[i]
	if id < 0 {
		return true
	}
	return reaches(m.preds[id], a)
}

// beginTrial opens an undo log: every mutation until commitTrial or
// rollbackTrial is journaled. Trials do not nest.
func (m *Max) beginTrial() {
	m.log.nextID, m.log.singletonEq, m.log.leCount = m.nextID, m.singletonEq, m.leCount
	m.undo = &m.log
}

// rollbackTrial undoes every mutation since beginTrial.
func (m *Max) rollbackTrial() {
	l := m.undo
	for k := len(l.elems) - 1; k >= 0; k-- {
		m.elem[l.elems[k].i] = l.elems[k].old
	}
	for k := len(l.preds) - 1; k >= 0; k-- {
		u := l.preds[k]
		*u.p = u.saved
		if u.registered {
			m.preds[u.saved.ID] = u.p
		} else {
			delete(m.preds, u.saved.ID)
		}
	}
	for k := len(l.eqs) - 1; k >= 0; k-- {
		if u := l.eqs[k]; u.had {
			m.eqVal[u.v] = u.id
		} else {
			delete(m.eqVal, u.v)
		}
	}
	m.nextID, m.singletonEq, m.leCount = l.nextID, l.singletonEq, l.leCount
	m.commitTrial()
}

// commitTrial keeps every mutation since beginTrial and closes the log.
func (m *Max) commitTrial() {
	l := m.undo
	l.elems = l.elems[:0]
	clear(l.preds) // drop references to retired predicates and sets
	l.preds = l.preds[:0]
	l.eqs = l.eqs[:0]
	m.undo = nil
}

// The mutation primitives: every change Add, ForceStrictBelow,
// PinExactly and Update make to elem, preds, a predicate's fields or
// eqVal goes through one of them, so an open trial can undo it.

func (m *Max) setElem(i, id int) {
	if m.undo != nil {
		m.undo.elems = append(m.undo.elems, elemUndo{i, m.elem[i]})
	}
	m.elem[i] = id
}

// savePred journals p's fields and registration before they change.
func (m *Max) savePred(p *Pred, registered bool) {
	if m.undo != nil {
		m.undo.preds = append(m.undo.preds, predUndo{p: p, saved: *p, registered: registered})
	}
}

func (m *Max) putEq(v float64, id int) {
	if m.undo != nil {
		old, had := m.eqVal[v]
		m.undo.eqs = append(m.undo.eqs, eqUndo{v, old, had})
	}
	m.eqVal[v] = id
}

// dropEq removes p's eqVal entry if p owns it.
func (m *Max) dropEq(p *Pred) {
	id, ok := m.eqVal[p.Value]
	if !ok || id != p.ID {
		return
	}
	if m.undo != nil {
		m.undo.eqs = append(m.undo.eqs, eqUndo{p.Value, id, true})
	}
	delete(m.eqVal, p.Value)
}

func (m *Max) newPred(set query.Set, value float64, op Op) *Pred {
	p := &Pred{ID: m.nextID, Set: set, Value: value, Op: op}
	m.nextID++
	m.savePred(p, false)
	m.preds[p.ID] = p
	for _, i := range set {
		m.setElem(i, p.ID)
	}
	if op == OpEq {
		m.putEq(value, p.ID)
		if len(set) == 1 {
			m.singletonEq++
		}
	}
	if op == OpLe {
		m.leCount++
	}
	return p
}

func (m *Max) deletePred(p *Pred) {
	for _, i := range p.Set {
		if m.elem[i] == p.ID {
			m.setElem(i, -1)
		}
	}
	m.unregister(p)
}

// unregister drops p and its bookkeeping.
func (m *Max) unregister(p *Pred) {
	m.forgetEq(p)
	if p.Op == OpLe {
		m.leCount--
	}
	m.savePred(p, true)
	delete(m.preds, p.ID)
}

// forgetEq clears equality bookkeeping for p.
func (m *Max) forgetEq(p *Pred) {
	if p.Op != OpEq {
		return
	}
	m.dropEq(p)
	if len(p.Set) == 1 {
		m.singletonEq--
	}
}

// touch groups the members of set by the predicate holding them, in
// order of first touch, and counts the members no predicate holds. The
// groups live in a scratch buffer valid until the next touch.
func (m *Max) touch(set query.Set) (groups []touched, free int) {
	if m.groupAt == nil {
		m.groupAt = make(map[int]int)
	}
	groups = m.groupBuf[:0]
	last, k := -1, 0
	for _, i := range set {
		id := m.elem[i]
		switch {
		case id < 0:
			free++
			continue
		case id != last:
			var ok bool
			if k, ok = m.groupAt[id]; !ok {
				k = len(groups)
				m.groupAt[id] = k
				groups = append(groups, touched{p: m.preds[id]})
			}
			last = id
		}
		groups[k].cnt++
	}
	for _, g := range groups {
		delete(m.groupAt, g.p.ID)
	}
	m.groupBuf = groups
	return groups, free
}

// release shrinks each group's predicate to the members still pointing
// at it, after the caller re-pointed g.cnt of them elsewhere: one pass
// over each touched predicate, however many members left it. Detaching
// a non-witness from an equality predicate is information-preserving
// because the detached element is known to lie strictly below the
// predicate's value. A predicate left empty is deleted.
func (m *Max) release(groups []touched) {
	for _, g := range groups {
		p := g.p
		after := len(p.Set) - g.cnt
		if after == 0 {
			m.unregister(p)
			continue
		}
		kept := make(query.Set, 0, after)
		for _, j := range p.Set {
			if m.elem[j] == p.ID {
				kept = append(kept, j)
			}
		}
		if p.Op == OpEq && after == 1 {
			m.singletonEq++ // p had more members, so it was no singleton
		}
		m.savePred(p, true)
		p.Set = kept
	}
}

// detach removes element i from its current predicate (if any),
// shrinking or deleting the predicate.
func (m *Max) detach(i int) {
	id := m.elem[i]
	if id < 0 {
		return
	}
	m.setElem(i, -1)
	m.release([]touched{{p: m.preds[id], cnt: 1}})
}

// reaches reports whether members of p could take the value a.
func reaches(p *Pred, a float64) bool {
	if p.Op == OpLt {
		return a < p.Value
	}
	return a <= p.Value
}

// Add folds the answered query [max(Q) = a] into the synopsis. On
// inconsistency the synopsis is unchanged and ErrInconsistent returned.
// It costs O(|Q|) plus the sizes of the predicates it touches.
func (m *Max) Add(q query.Set, a float64) error {
	if len(q) == 0 {
		return errors.New("synopsis: empty query set")
	}
	for _, i := range q {
		if i < 0 || i >= m.n {
			return fmt.Errorf("synopsis: element %d out of range 0..%d", i, m.n-1)
		}
	}

	// --- Consistency checks (state untouched until they all pass). ---

	groups, free := m.touch(q)
	// (1) Some element of Q must be able to take the value a.
	witnessable := free > 0
	for _, g := range groups {
		// (2) No equality predicate with value > a may be wholly inside
		// Q: that would force max(Q) above a.
		if g.p.Op == OpEq && g.p.Value > a && g.cnt == len(g.p.Set) {
			return ErrInconsistent
		}
		witnessable = witnessable || reaches(g.p, a)
	}
	if !witnessable {
		return ErrInconsistent
	}
	// (3) If an equality predicate already pins the value a, its unique
	// witness must be available to Q.
	if id, ok := m.eqVal[a]; ok && !m.preds[id].Set.Overlaps(q) {
		return ErrInconsistent
	}

	// --- Fold the new fact in. ---

	if id, ok := m.eqVal[a]; ok {
		// The element equal to a is unique; it lies in S ∩ Q. Split the
		// old predicate: [max(S∩Q) = a], [max(S\Q) < a]; everything else
		// in Q is strictly below a.
		old := m.preds[id]
		inter := old.Set.Intersect(q)
		outside := old.Set.Minus(q)
		m.deletePred(old)
		m.newPred(inter, a, OpEq)
		if len(outside) > 0 {
			m.newPred(outside, a, OpLt)
		}
		// Elements of Q outside the old set learn x < a.
		m.tightenBelow(q.Minus(inter), a)
		return nil
	}

	// No existing predicate pins a. The witness is one of the elements of
	// Q that can achieve a; they form the new equality group. Elements of
	// Q that cannot achieve a are already known to be strictly below it
	// (strict bounds) — except OpLe elements exactly at a, which tighten.
	var witnesses query.Set
	var nonWitnesses query.Set
	for _, i := range q {
		if m.canAchieve(i, a) {
			witnesses = append(witnesses, i)
		} else {
			nonWitnesses = append(nonWitnesses, i)
		}
	}
	m.newPred(witnesses, a, OpEq)
	// Whether an element can achieve a depends only on its predicate, so
	// the witnesses left exactly the touched predicates that reach a.
	vacated := groups[:0]
	for _, g := range groups {
		if reaches(g.p, a) {
			vacated = append(vacated, g)
		}
	}
	m.release(vacated)
	m.tightenBelow(nonWitnesses, a)
	return nil
}

// tightenBelow records x_i < a for each element of set whose current
// bound does not already imply it, regrouping them into a fresh strict
// predicate [max(moved) < a]. A moved element cannot be the witness of
// its old equality group (it is strictly below a ≤ the group's value),
// so detaching it is information-preserving.
func (m *Max) tightenBelow(set query.Set, a float64) {
	var moved query.Set
	for _, i := range set {
		if id := m.elem[i]; id < 0 || !impliesBelow(m.preds[id], a) {
			moved = append(moved, i)
		}
	}
	if len(moved) == 0 {
		return
	}
	groups, _ := m.touch(moved)
	m.newPred(moved, a, OpLt)
	m.release(groups)
}

// impliesBelow reports whether membership in p already implies x < a.
func impliesBelow(p *Pred, a float64) bool {
	if p.Op == OpLt {
		return p.Value <= a
	}
	return p.Value < a
}

// ForceStrictBelow publicly records the fact x_i < a for every element of
// set. The combined max+min normalization uses it when splitting a
// shared-value witness out of a predicate pair.
func (m *Max) ForceStrictBelow(set query.Set, a float64) {
	m.tightenBelow(set, a)
}

// SingletonEqCount returns the number of equality predicates whose set
// has exactly one element. Each such predicate pins its element's value —
// classical compromise — so full-disclosure auditors deny any query that
// could make this count positive.
func (m *Max) SingletonEqCount() int { return m.singletonEq }

// WeakPredCount returns the number of OpLe predicates. They only exist
// after database updates; their presence means the cheap singleton-based
// compromise test is incomplete and a full extreme-element analysis is
// required.
func (m *Max) WeakPredCount() int { return m.leCount }

// PinExactly records x_i = a as a singleton equality predicate. The
// caller must have established that i can achieve a and that no other
// equality predicate holds a.
func (m *Max) PinExactly(i int, a float64) {
	m.detach(i)
	m.newPred(query.Set{i}, a, OpEq)
}

// EqValues returns the set of values currently held by equality
// predicates. Candidate-answer generators must pick interval
// representatives avoiding these: a representative that collides with a
// foreign equality value is spuriously inconsistent and would mask its
// whole interval.
func (m *Max) EqValues() map[float64]bool {
	out := make(map[float64]bool, len(m.eqVal))
	for v := range m.eqVal {
		out[v] = true
	}
	return out
}

// EqHead returns the head of the equality predicate holding value a, if
// any.
func (m *Max) EqHead(a float64) (PredHead, bool) {
	p := m.eqPred(a)
	if p == nil {
		return PredHead{}, false
	}
	return headOf(p), true
}

// eqPred returns the equality predicate holding value a, or nil.
func (m *Max) eqPred(a float64) *Pred {
	id, ok := m.eqVal[a]
	if !ok {
		return nil
	}
	return m.preds[id]
}

// Update reacts to a modification of record i's sensitive value: every
// bound previously derived for i is irrelevant to the new value, and if
// i might have been an equality predicate's witness, the survivors keep
// only the non-strict bound (the predicate demotes to OpLe, since the
// old witness guarantee may have walked away with the update).
func (m *Max) Update(i int) {
	id := m.elem[i]
	if id < 0 {
		return
	}
	p := m.preds[id]
	wasEq := p.Op == OpEq
	m.detach(i)
	if !wasEq {
		return
	}
	if p2, ok := m.preds[id]; ok {
		// Demote the surviving equality predicate: max(S\{i}) ≤ M.
		m.forgetEq(p2)
		m.savePred(p2, true)
		p2.Op = OpLe
		m.leCount++
	}
}

// Snapshot is a serializable image of a synopsis (persistence support).
type Snapshot struct {
	N      int            `json:"n"`
	NextID int            `json:"next_id"`
	Preds  []PredSnapshot `json:"preds"`
}

// PredSnapshot is one predicate in a Snapshot.
type PredSnapshot struct {
	ID    int     `json:"id"`
	Set   []int   `json:"set"`
	Value float64 `json:"value"`
	Op    int     `json:"op"`
}

// Snapshot captures the synopsis state for persistence.
func (m *Max) Snapshot() Snapshot {
	s := Snapshot{N: m.n, NextID: m.nextID}
	for _, p := range m.Preds() {
		s.Preds = append(s.Preds, PredSnapshot{ID: p.ID, Set: p.Set, Value: p.Value, Op: int(p.Op)})
	}
	return s
}

// RestoreMax rebuilds a synopsis from a snapshot, re-validating every
// structural invariant (snapshots may come from untrusted storage).
func RestoreMax(s Snapshot) (*Max, error) {
	if s.N < 0 {
		return nil, fmt.Errorf("synopsis: negative n in snapshot")
	}
	m := NewMax(s.N)
	for _, ps := range s.Preds {
		if ps.Op < int(OpEq) || ps.Op > int(OpLe) {
			return nil, fmt.Errorf("synopsis: bad op %d in snapshot", ps.Op)
		}
		set := query.NewSet(ps.Set...)
		if len(set) == 0 {
			return nil, fmt.Errorf("synopsis: empty predicate set in snapshot")
		}
		for _, i := range set {
			if i < 0 || i >= s.N {
				return nil, fmt.Errorf("synopsis: element %d out of range in snapshot", i)
			}
			if m.elem[i] != -1 {
				return nil, fmt.Errorf("synopsis: element %d in two predicates in snapshot", i)
			}
		}
		if ps.Op == int(OpEq) {
			if _, dup := m.eqVal[ps.Value]; dup {
				return nil, fmt.Errorf("synopsis: duplicate equality value %g in snapshot", ps.Value)
			}
		}
		p := m.newPred(set, ps.Value, Op(ps.Op))
		// Preserve original IDs so predicate references stay stable.
		delete(m.preds, p.ID)
		p.ID = ps.ID
		m.preds[ps.ID] = p
		for _, i := range set {
			m.elem[i] = ps.ID
		}
		if p.Op == OpEq {
			m.eqVal[p.Value] = ps.ID
		}
		if ps.ID >= m.nextID {
			m.nextID = ps.ID + 1
		}
	}
	if s.NextID > m.nextID {
		m.nextID = s.NextID
	}
	if err := m.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("synopsis: snapshot invalid: %w", err)
	}
	return m, nil
}

// Snapshot captures the min synopsis (values stored max-oriented).
func (m *Min) Snapshot() Snapshot { return m.inner.Snapshot() }

// RestoreMin rebuilds a min synopsis from its snapshot.
func RestoreMin(s Snapshot) (*Min, error) {
	inner, err := RestoreMax(s)
	if err != nil {
		return nil, err
	}
	return &Min{inner: inner}, nil
}

// MaxMinSnapshot images a combined synopsis. The ambient bounds are
// stored with explicit infinity flags because JSON cannot encode ±Inf.
type MaxMinSnapshot struct {
	Max      Snapshot `json:"max"`
	Min      Snapshot `json:"min"`
	Alpha    float64  `json:"alpha"`
	Beta     float64  `json:"beta"`
	AlphaInf bool     `json:"alpha_inf"`
	BetaInf  bool     `json:"beta_inf"`
}

// Snapshot captures the combined synopsis.
func (b *MaxMin) Snapshot() MaxMinSnapshot {
	s := MaxMinSnapshot{Max: b.max.Snapshot(), Min: b.min.Snapshot()}
	if math.IsInf(b.alpha, -1) {
		s.AlphaInf = true
	} else {
		s.Alpha = b.alpha
	}
	if math.IsInf(b.beta, 1) {
		s.BetaInf = true
	} else {
		s.Beta = b.beta
	}
	return s
}

// RestoreMaxMin rebuilds a combined synopsis from its snapshot.
func RestoreMaxMin(s MaxMinSnapshot) (*MaxMin, error) {
	mx, err := RestoreMax(s.Max)
	if err != nil {
		return nil, err
	}
	mn, err := RestoreMin(s.Min)
	if err != nil {
		return nil, err
	}
	alpha, beta := s.Alpha, s.Beta
	if s.AlphaInf {
		alpha = math.Inf(-1)
	}
	if s.BetaInf {
		beta = math.Inf(1)
	}
	b := &MaxMin{max: mx, min: mn, alpha: alpha, beta: beta}
	if err := b.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("synopsis: combined snapshot invalid: %w", err)
	}
	return b, nil
}

// CheckInvariants validates the structural invariants (disjoint sets,
// element index consistency, unique equality values). Property tests call
// this after every operation.
func (m *Max) CheckInvariants() error {
	seen := make(map[int]int)
	for id, p := range m.preds {
		if p.ID != id {
			return fmt.Errorf("pred id mismatch: %d vs %d", p.ID, id)
		}
		if len(p.Set) == 0 {
			return fmt.Errorf("pred %d: empty set", id)
		}
		for _, i := range p.Set {
			if prev, dup := seen[i]; dup {
				return fmt.Errorf("element %d in preds %d and %d", i, prev, id)
			}
			seen[i] = id
			if m.elem[i] != id {
				return fmt.Errorf("elem[%d]=%d, want %d", i, m.elem[i], id)
			}
		}
		if p.Op == OpEq {
			if got, ok := m.eqVal[p.Value]; !ok || got != id {
				return fmt.Errorf("eqVal missing or wrong for pred %d", id)
			}
		}
	}
	for i, id := range m.elem {
		if id >= 0 {
			if _, ok := seen[i]; !ok {
				return fmt.Errorf("elem[%d]=%d but element not in any pred set", i, id)
			}
		}
	}
	for v, id := range m.eqVal {
		p, ok := m.preds[id]
		if !ok || p.Op != OpEq || p.Value != v {
			return fmt.Errorf("eqVal[%g]=%d stale", v, id)
		}
	}
	singles := 0
	for _, p := range m.preds {
		if p.Op == OpEq && len(p.Set) == 1 {
			singles++
		}
	}
	if singles != m.singletonEq {
		return fmt.Errorf("singletonEq=%d, actual %d", m.singletonEq, singles)
	}
	les := 0
	for _, p := range m.preds {
		if p.Op == OpLe {
			les++
		}
	}
	if les != m.leCount {
		return fmt.Errorf("leCount=%d, actual %d", m.leCount, les)
	}
	return nil
}

func (m *Max) String() string {
	preds := m.Preds()
	parts := make([]string, len(preds))
	for i, p := range preds {
		parts[i] = p.String()
	}
	return strings.Join(parts, " ")
}

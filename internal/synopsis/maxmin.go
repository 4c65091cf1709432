package synopsis

import (
	"fmt"
	"math"

	"queryaudit/internal/query"
)

// Range is the value range an element is confined to by the combined
// synopsis: Lo {<, ≤} x {<, ≤} Hi according to the strictness flags.
type Range struct {
	Lo, Hi             float64
	LoStrict, HiStrict bool
}

// Pinned reports whether the range determines the value exactly.
func (r Range) Pinned() bool {
	return r.Lo == r.Hi && !r.LoStrict && !r.HiStrict
}

// Empty reports whether no value satisfies the range.
func (r Range) Empty() bool {
	if r.Lo > r.Hi {
		return true
	}
	if r.Lo == r.Hi {
		return r.LoStrict || r.HiStrict
	}
	return false
}

// Length returns the measure Hi − Lo (zero when pinned or empty).
func (r Range) Length() float64 {
	if r.Empty() {
		return 0
	}
	return r.Hi - r.Lo
}

// Contains reports whether v satisfies the range constraints.
func (r Range) Contains(v float64) bool {
	if v < r.Lo || (v == r.Lo && r.LoStrict) {
		return false
	}
	if v > r.Hi || (v == r.Hi && r.HiStrict) {
		return false
	}
	return true
}

// MaxMin is the combined synopsis B = (B_max, B_min) of Sections 3.2 and
// 4, including the paper's normalization: whenever a max equality
// predicate and a min equality predicate hold the same value M, their
// unique common element is pinned to M and split out of both sets.
type MaxMin struct {
	max *Max
	min *Min
	// alpha/beta bound the data range for Range computations; classical
	// (full-disclosure) callers use ±Inf.
	alpha, beta float64
}

// NewMaxMin returns an empty combined synopsis over n elements with data
// range [alpha, beta]. Use math.Inf bounds for the unbounded classical
// setting.
func NewMaxMin(n int, alpha, beta float64) *MaxMin {
	return &MaxMin{max: NewMax(n), min: NewMin(n), alpha: alpha, beta: beta}
}

// N returns the number of elements covered.
func (b *MaxMin) N() int { return b.max.N() }

// Alpha returns the lower end of the data range.
func (b *MaxMin) Alpha() float64 { return b.alpha }

// Beta returns the upper end of the data range.
func (b *MaxMin) Beta() float64 { return b.beta }

// Clone returns a deep copy.
func (b *MaxMin) Clone() *MaxMin {
	return &MaxMin{max: b.max.Clone(), min: b.min.Clone(), alpha: b.alpha, beta: b.beta}
}

// MaxPreds returns the current max-side predicates.
func (b *MaxMin) MaxPreds() []Pred { return b.max.Preds() }

// MinPreds returns the current min-side predicates (min orientation).
func (b *MaxMin) MinPreds() []Pred { return b.min.Preds() }

// AddMax folds [max(Q) = a] into the synopsis, applying normalization.
// On inconsistency the synopsis is unchanged.
func (b *MaxMin) AddMax(q query.Set, a float64) error { return b.add(query.Max, q, a) }

// AddMin folds [min(Q) = a] into the synopsis, applying normalization.
// On inconsistency the synopsis is unchanged.
func (b *MaxMin) AddMin(q query.Set, a float64) error { return b.add(query.Min, q, a) }

func (b *MaxMin) add(kind query.Kind, q query.Set, a float64) error {
	b.beginTrial()
	err := b.fold(kind, q, a)
	if err != nil {
		b.rollbackTrial()
	} else {
		b.commitTrial()
	}
	return err
}

// Try folds the candidate answer a to the query (kind, Q) in place,
// reports whether the result is consistent and, if it is, probe's
// verdict on the folded synopsis, then rolls the synopsis back to its
// exact prior state through the undo log — no copy of the synopsis is
// made. probe must not modify the synopsis. A fold costs O(|Q|) plus the
// sizes of the predicates it touches; the rollback costs what the fold
// changed.
func (b *MaxMin) Try(kind query.Kind, q query.Set, a float64, probe func(*MaxMin) bool) (consistent, hit bool) {
	b.beginTrial()
	defer b.rollbackTrial()
	if b.fold(kind, q, a) != nil {
		return false, false
	}
	return true, probe(b)
}

func (b *MaxMin) beginTrial() {
	b.max.beginTrial()
	b.min.inner.beginTrial()
}

func (b *MaxMin) rollbackTrial() {
	b.max.rollbackTrial()
	b.min.inner.rollbackTrial()
}

func (b *MaxMin) commitTrial() {
	b.max.commitTrial()
	b.min.inner.commitTrial()
}

// fold applies [kind(Q) = a] inside an open trial; on error the caller
// rolls back.
func (b *MaxMin) fold(kind query.Kind, q query.Set, a float64) error {
	var err error
	switch kind {
	case query.Max:
		err = b.max.Add(q, a)
	case query.Min:
		err = b.min.Add(q, a)
	default:
		err = fmt.Errorf("synopsis: unsupported kind %v", kind)
	}
	if err != nil {
		return err
	}
	return b.normalizeAndCheck(a)
}

// normalizeAndCheck applies the shared-value split for value a (the only
// value a fresh Add can newly collide on) and re-verifies consistency
// where the fold changed something.
func (b *MaxMin) normalizeAndCheck(a float64) error {
	maxP, minP := b.max.eqPred(a), b.min.inner.eqPred(-a)
	if maxP != nil && minP != nil && !(len(maxP.Set) == 1 && maxP.Set.Equal(minP.Set)) {
		inter := maxP.Set.Intersect(minP.Set)
		if len(inter) != 1 {
			// Zero common elements would require two distinct elements
			// with the same value; two or more would force a duplicate
			// among the non-witnesses. Either way: inconsistent.
			return ErrInconsistent
		}
		j := inter[0]
		// Pin x_j = a: everything else in the max set is strictly below
		// a, everything else in the min set strictly above. The equality
		// predicates then shrink to the singleton {j} on both sides.
		b.max.ForceStrictBelow(maxP.Set.Minus(query.Set{j}), a)
		b.min.ForceStrictAbove(minP.Set.Minus(query.Set{j}), a)
	}
	return b.checkTouched()
}

// checkTouched verifies the open trial's fold, given that the state at
// beginTrial was consistent (an invariant every committed fold keeps).
// Only an element whose predicate changed on either side can have an
// empty range, and only an equality predicate holding such an element
// can have lost its feasible witness: a predicate that merely lost
// members keeps members with unchanged, non-empty ranges, and a member
// of an equality predicate with a non-empty range can take its value.
// Ranges are checked first, so each witness scan stops at the first
// member unless the predicate's value lies outside [alpha, beta].
func (b *MaxMin) checkTouched() error {
	sides := [2][]elemUndo{b.max.undo.elems, b.min.inner.undo.elems}
	for _, us := range sides {
		for _, u := range us {
			if b.RangeOf(u.i).Empty() {
				return ErrInconsistent
			}
		}
	}
	for _, us := range sides {
		for _, u := range us {
			if p := b.max.predOf(u.i); p != nil && p.Op == OpEq && !b.witnessed(p.Set, p.Value) {
				return ErrInconsistent
			}
			if p := b.min.inner.predOf(u.i); p != nil && p.Op == OpEq && !b.witnessed(p.Set, -p.Value) {
				return ErrInconsistent
			}
		}
	}
	return nil
}

// checkConsistent is the full O(n + Σ|S|) sweep: every element's range
// is non-empty and every equality predicate retains a feasible witness.
// The fold path checks only what it touched (checkTouched);
// CheckInvariants runs this sweep.
func (b *MaxMin) checkConsistent() error {
	for i := 0; i < b.N(); i++ {
		if b.RangeOf(i).Empty() {
			return ErrInconsistent
		}
	}
	for _, p := range b.max.preds {
		if p.Op == OpEq && !b.witnessed(p.Set, p.Value) {
			return ErrInconsistent
		}
	}
	for _, p := range b.min.inner.preds {
		if p.Op == OpEq && !b.witnessed(p.Set, -p.Value) {
			return ErrInconsistent
		}
	}
	return nil
}

// witnessed reports whether some element of set can take the value v
// given the combined bounds from both synopsis sides.
func (b *MaxMin) witnessed(set query.Set, v float64) bool {
	for _, i := range set {
		if b.RangeOf(i).Contains(v) {
			return true
		}
	}
	return false
}

// RangeOf returns the range element i is confined to, combining both
// synopsis sides with the ambient data range [alpha, beta].
func (b *MaxMin) RangeOf(i int) Range {
	r := Range{Lo: b.alpha, Hi: b.beta}
	if v, strict, ok := b.max.UpperBound(i); ok && (v < r.Hi || (v == r.Hi && strict)) {
		r.Hi, r.HiStrict = v, strict
	}
	if v, strict, ok := b.min.LowerBound(i); ok && (v > r.Lo || (v == r.Lo && strict)) {
		r.Lo, r.LoStrict = v, strict
	}
	return r
}

// EqValues returns every value held by an equality predicate on either
// side (candidate generators must avoid them for interval
// representatives).
func (b *MaxMin) EqValues() map[float64]bool {
	out := b.max.EqValues()
	for v := range b.min.EqValues() {
		out[v] = true
	}
	return out
}

// MaxPredValue returns the value of the max-side predicate containing i,
// if any, without copying the predicate.
func (b *MaxMin) MaxPredValue(i int) (float64, bool) {
	h, ok := b.max.Head(i)
	return h.Value, ok
}

// MinPredValue returns the value of the min-side predicate containing i
// (min orientation), if any, without copying the predicate.
func (b *MaxMin) MinPredValue(i int) (float64, bool) {
	h, ok := b.min.Head(i)
	return h.Value, ok
}

// SingletonEqCount returns the total number of one-element equality
// predicates on both sides. A pinned element contributes two (one per
// side) after normalization, or one if only a single side pins it.
func (b *MaxMin) SingletonEqCount() int {
	return b.max.SingletonEqCount() + b.min.SingletonEqCount()
}

// WeakPredCount returns the total number of OpLe predicates on both
// sides. When positive, weak bounds can pin elements without producing a
// singleton equality predicate, so compromise detection must fall back to
// the full extreme-element analysis.
func (b *MaxMin) WeakPredCount() int {
	return b.max.WeakPredCount() + b.min.WeakPredCount()
}

// Update reacts to a modification of record i's sensitive value (see
// Max.Update): i's bounds are dropped and any equality predicate that
// might have had i as its witness demotes to a witness-free bound.
func (b *MaxMin) Update(i int) {
	b.max.Update(i)
	b.min.Update(i)
}

// CheckInvariants validates both sides, the combined normal form — no
// max equality value may coincide with a min equality value except as a
// pinned singleton shared by both — and consistency: every element's
// range is non-empty and every equality predicate has a feasible
// witness.
func (b *MaxMin) CheckInvariants() error {
	if err := b.max.CheckInvariants(); err != nil {
		return err
	}
	if err := b.min.CheckInvariants(); err != nil {
		return err
	}
	for _, p := range b.max.preds {
		if p.Op != OpEq {
			continue
		}
		if mp := b.min.inner.eqPred(-p.Value); mp != nil {
			if !(len(p.Set) == 1 && p.Set.Equal(mp.Set)) {
				return errNotNormalized(p.Value)
			}
		}
	}
	return b.checkConsistent()
}

type errNotNormalized float64

func (e errNotNormalized) Error() string {
	return "synopsis: max/min equality predicates share value without pinned singleton"
}

// Unbounded returns ±Inf ambient bounds for the classical setting.
func Unbounded() (alpha, beta float64) {
	return math.Inf(-1), math.Inf(1)
}

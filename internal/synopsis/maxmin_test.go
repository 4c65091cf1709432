package synopsis

import (
	"math/rand"
	"reflect"
	"testing"

	"queryaudit/internal/query"
)

// TestMinMirror checks the min synopsis against the paper's reading:
// min{a,b,c}=2 then min{a,b}=2 yields [min{a,b}=2] and [min{c}>2].
func TestMinMirror(t *testing.T) {
	m := NewMin(3)
	if err := m.Add(query.NewSet(0, 1, 2), 2); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(query.NewSet(0, 1), 2); err != nil {
		t.Fatal(err)
	}
	preds := m.Preds()
	if len(preds) != 2 {
		t.Fatalf("got %d predicates, want 2: %v", len(preds), preds)
	}
	for _, p := range preds {
		if p.Eq() {
			if !p.Set.Equal(query.NewSet(0, 1)) || p.Value != 2 {
				t.Errorf("eq predicate %v, want [min{0,1}=2]", p)
			}
		} else {
			if !p.Set.Equal(query.NewSet(2)) || p.Value != 2 {
				t.Errorf("strict predicate %v, want [min{2}>2]", p)
			}
		}
	}
	if v, strict, ok := m.LowerBound(2); !ok || !strict || v != 2 {
		t.Errorf("lower bound(2) = (%g,%v,%v), want (2,true,true)", v, strict, ok)
	}
}

// TestSharedValueNormalization exercises the paper's max/min same-value
// rule: [max(S1)=M] and [min(S2)=M] pin the unique common element.
func TestSharedValueNormalization(t *testing.T) {
	b := NewMaxMin(4, 0, 10)
	if err := b.AddMax(query.NewSet(0, 1, 2), 5); err != nil {
		t.Fatal(err)
	}
	if err := b.AddMin(query.NewSet(2, 3), 5); err != nil {
		t.Fatal(err)
	}
	// Element 2 must now be pinned to 5.
	r := b.RangeOf(2)
	if !r.Pinned() || r.Lo != 5 {
		t.Fatalf("range of pinned element = %+v, want exactly 5", r)
	}
	// Elements 0,1 strictly below 5; element 3 strictly above.
	for _, i := range []int{0, 1} {
		r := b.RangeOf(i)
		if !(r.Hi == 5 && r.HiStrict) {
			t.Errorf("range of %d = %+v, want strict upper bound 5", i, r)
		}
	}
	r3 := b.RangeOf(3)
	if !(r3.Lo == 5 && r3.LoStrict) {
		t.Errorf("range of 3 = %+v, want strict lower bound 5", r3)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

// TestSharedValueDisjointInconsistent: max and min answers equal but the
// query sets share nothing — impossible without duplicates.
func TestSharedValueDisjointInconsistent(t *testing.T) {
	b := NewMaxMin(4, 0, 10)
	if err := b.AddMax(query.NewSet(0, 1), 5); err != nil {
		t.Fatal(err)
	}
	if err := b.AddMin(query.NewSet(2, 3), 5); err != ErrInconsistent {
		t.Fatalf("got %v, want ErrInconsistent", err)
	}
	// Rollback must leave the min side empty.
	if got := len(b.MinPreds()); got != 0 {
		t.Errorf("min predicates after rollback = %d, want 0", got)
	}
}

// TestSharedValueWideIntersectionInconsistent: a two-element overlap
// would force two elements to equal the shared value.
func TestSharedValueWideIntersectionInconsistent(t *testing.T) {
	b := NewMaxMin(4, 0, 10)
	if err := b.AddMax(query.NewSet(0, 1), 5); err != nil {
		t.Fatal(err)
	}
	if err := b.AddMin(query.NewSet(0, 1, 2), 5); err != ErrInconsistent {
		t.Fatalf("got %v, want ErrInconsistent", err)
	}
}

// TestAnswerOutsideDataRangeInconsistent: an extreme answer beyond the
// ambient data range has no feasible witness, although every element's
// range stays non-empty; the synopsis is left unchanged.
func TestAnswerOutsideDataRangeInconsistent(t *testing.T) {
	b := NewMaxMin(5, 0, 10)
	if err := b.AddMax(query.NewSet(0, 1, 2), 7); err != nil {
		t.Fatal(err)
	}
	before := b.Snapshot()
	if err := b.AddMax(query.NewSet(2, 3, 4), 11); err != ErrInconsistent {
		t.Fatalf("max above beta: got %v, want ErrInconsistent", err)
	}
	if err := b.AddMin(query.NewSet(2, 3, 4), -1); err != ErrInconsistent {
		t.Fatalf("min below alpha: got %v, want ErrInconsistent", err)
	}
	if !reflect.DeepEqual(b.Snapshot(), before) {
		t.Fatalf("rejected folds changed the synopsis: %+v, want %+v", b.Snapshot(), before)
	}
}

// TestCrossRangeInconsistent: min forces values above what max allows.
func TestCrossRangeInconsistent(t *testing.T) {
	b := NewMaxMin(3, 0, 10)
	if err := b.AddMin(query.NewSet(0, 1), 7); err != nil {
		t.Fatal(err)
	}
	if err := b.AddMax(query.NewSet(0, 1), 3); err != ErrInconsistent {
		t.Fatalf("got %v, want ErrInconsistent (all elements ≥ 7)", err)
	}
}

// TestPaperExampleRanges reproduces the Section 3.2 example:
// [max{a,b,c}=1] and [min{a,b}=0.2] give x_a,x_b ∈ [0.2,1], x_c ∈ [0,1].
func TestPaperExampleRanges(t *testing.T) {
	b := NewMaxMin(3, 0, 1)
	if err := b.AddMax(query.NewSet(0, 1, 2), 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddMin(query.NewSet(0, 1), 0.2); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1} {
		r := b.RangeOf(i)
		if r.Lo != 0.2 || r.Hi != 1 {
			t.Errorf("range of %d = %+v, want [0.2, 1]", i, r)
		}
	}
	r := b.RangeOf(2)
	if r.Lo != 0 || r.Hi != 1 {
		t.Errorf("range of 2 = %+v, want [0, 1]", r)
	}
}

// TestMaxMinTruthStream: feeding true answers from a random duplicate-
// free dataset must never be inconsistent, and derived ranges must
// contain the true values.
func TestMaxMinTruthStream(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(8)
		xs := distinctValues(rng, n)
		b := NewMaxMin(n, -1, 50)
		for step := 0; step < 14; step++ {
			q := randomSet(rng, n)
			var err error
			if rng.Intn(2) == 0 {
				err = b.AddMax(q, maxOf(xs, q))
			} else {
				err = b.AddMin(q, minOf(xs, q))
			}
			if err != nil {
				t.Fatalf("trial %d step %d: true answer rejected: %v\nmax: %v\nmin: %v", trial, step, err, b.max, b.min)
			}
			if err := b.CheckInvariants(); err != nil {
				t.Fatalf("trial %d step %d: invariants: %v", trial, step, err)
			}
			for i := 0; i < n; i++ {
				if r := b.RangeOf(i); !r.Contains(xs[i]) {
					t.Fatalf("trial %d step %d: range %+v of x%d excludes true value %g", trial, step, r, i, xs[i])
				}
			}
		}
	}
}

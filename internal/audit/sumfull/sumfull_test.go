package sumfull

import (
	"math/rand"
	"testing"

	"queryaudit/internal/audit"
	"queryaudit/internal/field"
	"queryaudit/internal/query"
)

// fastAuditor is the concrete type New returns.
type fastAuditor = Auditor[field.Elem61, field.GF61]

func ask(t *testing.T, a *fastAuditor, q query.Query, xs []float64) (float64, bool) {
	t.Helper()
	d, err := a.Decide(q)
	if err != nil {
		t.Fatalf("Decide(%v): %v", q, err)
	}
	if d == audit.Deny {
		return 0, true
	}
	ans := q.Eval(xs)
	a.Record(q, ans)
	return ans, false
}

// TestClassicCompromisePattern: {0,1}, {1,2} answered; {0,2} must be
// denied because x0, x1, x2 would all become solvable.
func TestClassicCompromisePattern(t *testing.T) {
	xs := []float64{1, 2, 4}
	a := New(3)
	if _, denied := ask(t, a, query.New(query.Sum, 0, 1), xs); denied {
		t.Fatal("sum{0,1} should be answered")
	}
	if _, denied := ask(t, a, query.New(query.Sum, 1, 2), xs); denied {
		t.Fatal("sum{1,2} should be answered")
	}
	d, err := a.Decide(query.New(query.Sum, 0, 2))
	if err != nil || d != audit.Deny {
		t.Fatalf("sum{0,2} decision = %v,%v; want deny", d, err)
	}
	if a.Compromised() {
		t.Fatal("auditor state must remain uncompromised")
	}
}

// TestSingletonDenied: a single-element sum is immediate compromise.
func TestSingletonDenied(t *testing.T) {
	a := New(3)
	d, err := a.Decide(query.New(query.Sum, 1))
	if err != nil || d != audit.Deny {
		t.Fatalf("singleton decision = %v,%v; want deny", d, err)
	}
}

// TestRepeatAnswered: an exact repeat adds nothing and stays answerable.
func TestRepeatAnswered(t *testing.T) {
	xs := []float64{1, 2, 4}
	a := New(3)
	ask(t, a, query.New(query.Sum, 0, 1, 2), xs)
	d, err := a.Decide(query.New(query.Sum, 0, 1, 2))
	if err != nil || d != audit.Answer {
		t.Fatalf("repeat decision = %v,%v; want answer", d, err)
	}
}

// TestComplementDenied: sum{0..n} then sum{1..n} reveals x0.
func TestComplementDenied(t *testing.T) {
	xs := []float64{1, 2, 4, 8}
	a := New(4)
	ask(t, a, query.New(query.Sum, 0, 1, 2, 3), xs)
	d, _ := a.Decide(query.New(query.Sum, 1, 2, 3))
	if d != audit.Deny {
		t.Fatal("complement query must be denied")
	}
}

// TestUpdateRestoresUtility reproduces the paper's update example: after
// sum{a,b,c} is answered and x_a is modified, sum{a,b} can be answered
// (without the update it reveals x_c).
func TestUpdateRestoresUtility(t *testing.T) {
	xs := []float64{1, 2, 4}
	a := New(3)
	ask(t, a, query.New(query.Sum, 0, 1, 2), xs)
	// Without update, sum{0,1} would reveal x2: denied.
	if d, _ := a.Decide(query.New(query.Sum, 0, 1)); d != audit.Deny {
		t.Fatal("sum{0,1} must be denied before the update")
	}
	a.NoteUpdate(0)
	if d, _ := a.Decide(query.New(query.Sum, 0, 1)); d != audit.Answer {
		t.Fatal("sum{0,1} must be answerable after x0 is modified")
	}
}

// TestUpdateStillProtectsOldValues: the new query plus old equations must
// not solve for any past version either.
func TestUpdateStillProtectsOldValues(t *testing.T) {
	a := New(2)
	// sum{0,1} answered; update x0; now sum{0,1} uses the new column.
	d, _ := a.Decide(query.New(query.Sum, 0, 1))
	if d != audit.Answer {
		t.Fatal("first query should pass")
	}
	a.Record(query.New(query.Sum, 0, 1), 3)
	a.NoteUpdate(0)
	// sum{0', 1}: answering both would give x0+x1 and x0'+x1 — no single
	// value solvable. Allowed.
	if d, _ := a.Decide(query.New(query.Sum, 0, 1)); d != audit.Answer {
		t.Fatal("post-update repeat should be answerable")
	}
	a.Record(query.New(query.Sum, 0, 1), 5)
	// sum{1} alone obviously denied; and sum{0} denied: x0' determinable.
	if d, _ := a.Decide(query.New(query.Sum, 1)); d != audit.Deny {
		t.Fatal("singleton must be denied")
	}
	// sum{0,1} again: already in span, answerable, no info.
	if d, _ := a.Decide(query.New(query.Sum, 0, 1)); d != audit.Answer {
		t.Fatal("dependent repeat should be answerable")
	}
}

// TestNoCompromiseEverInvariant drives random query streams and verifies
// the audited row space never contains an elementary vector, and that
// denials are exactly the queries whose addition would create one.
func TestNoCompromiseEverInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(6)
		a := New(n)
		for step := 0; step < 4*n; step++ {
			var support []int
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					support = append(support, i)
				}
			}
			if len(support) == 0 {
				continue
			}
			q := query.New(query.Sum, support...)
			d, err := a.Decide(q)
			if err != nil {
				t.Fatal(err)
			}
			if d == audit.Answer {
				a.Record(q, 0)
			}
			if a.Compromised() {
				t.Fatalf("trial %d: compromise after %v", trial, q)
			}
			// Occasionally update a random record.
			if rng.Intn(10) == 0 {
				a.NoteUpdate(rng.Intn(n))
			}
		}
	}
}

// TestWrongKindRejected: non-sum queries are errors, not denials.
func TestWrongKindRejected(t *testing.T) {
	a := New(3)
	_, err := a.Decide(query.New(query.Max, 0, 1))
	if err == nil {
		t.Fatal("expected ErrUnsupportedKind")
	}
}

// TestExactFieldAgrees cross-checks GF61 and exact-rational decisions on
// random streams.
func TestExactFieldAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(4)
		fast := New(n)
		exact := NewExact(n)
		for step := 0; step < 3*n; step++ {
			var support []int
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					support = append(support, i)
				}
			}
			if len(support) == 0 {
				continue
			}
			q := query.New(query.Sum, support...)
			d1, _ := fast.Decide(q)
			d2, _ := exact.Decide(q)
			if d1 != d2 {
				t.Fatalf("trial %d step %d: GF61=%v exact=%v for %v", trial, step, d1, d2, q)
			}
			if d1 == audit.Answer {
				fast.Record(q, 0)
				exact.Record(q, 0)
			}
		}
	}
}

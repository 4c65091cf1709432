package offline

import (
	"math/rand"
	"testing"

	"queryaudit/internal/query"
)

// TestAuditMaxMinPaperExample: the Section 4 example offline — two max
// queries sharing one element with equal answers pin it.
func TestAuditMaxMinPaperExample(t *testing.T) {
	hist := []query.Answered{
		{Query: query.New(query.Max, 0, 1, 2), Answer: 9},
		{Query: query.New(query.Max, 0, 3, 4), Answer: 9},
	}
	r, err := AuditMaxMin(5, hist)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Consistent || !r.Compromised {
		t.Fatalf("got %+v, want consistent+compromised", r)
	}
	if v, ok := r.Determined[0]; !ok || v != 9 {
		t.Fatalf("determined = %v, want x0 = 9", r.Determined)
	}
}

// TestAuditMaxMinInconsistent: tampered logs are flagged.
func TestAuditMaxMinInconsistent(t *testing.T) {
	hist := []query.Answered{
		{Query: query.New(query.Max, 0, 1), Answer: 5},
		{Query: query.New(query.Max, 2, 3), Answer: 5}, // disjoint, equal
	}
	r, err := AuditMaxMin(4, hist)
	if err != nil {
		t.Fatal(err)
	}
	if r.Consistent {
		t.Fatal("duplicate-requiring history must be inconsistent")
	}
}

// TestAuditMaxMinRejectsWrongKind.
func TestAuditMaxMinRejectsWrongKind(t *testing.T) {
	if _, err := AuditMaxMin(3, []query.Answered{{Query: query.New(query.Sum, 0, 1), Answer: 4}}); err == nil {
		t.Fatal("sum history must be rejected")
	}
}

// TestAuditSum: the classic 3-cycle solves all elements.
func TestAuditSum(t *testing.T) {
	hist := []query.Answered{
		{Query: query.New(query.Sum, 0, 1), Answer: 3},
		{Query: query.New(query.Sum, 1, 2), Answer: 6},
	}
	r, err := AuditSum(3, hist)
	if err != nil {
		t.Fatal(err)
	}
	if r.Compromised || r.Rank != 2 {
		t.Fatalf("two chained sums are safe: %+v", r)
	}
	hist = append(hist, query.Answered{Query: query.New(query.Sum, 0, 2), Answer: 5})
	r, err = AuditSum(3, hist)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Compromised || len(r.DeterminedIndices) != 3 {
		t.Fatalf("3-cycle must determine everything: %+v", r)
	}
}

// TestAuditSumRejectsBadIndex: an index outside 0..n−1 is an error, not
// a panic, and a valid history still audits as before.
func TestAuditSumRejectsBadIndex(t *testing.T) {
	cycle := []query.Answered{
		{Query: query.New(query.Sum, 0, 1), Answer: 3},
		{Query: query.New(query.Sum, 1, 2), Answer: 6},
		{Query: query.New(query.Sum, 0, 2), Answer: 5},
	}
	for _, tc := range []struct {
		name    string
		hist    []query.Answered
		wantErr bool
	}{
		{"negative", []query.Answered{{Query: query.New(query.Sum, -1, 1)}}, true},
		{"equal to n", append(cycle[:2:2], query.Answered{Query: query.New(query.Sum, 1, 3)}), true},
		{"valid", cycle, false},
	} {
		r, err := AuditSum(3, tc.hist)
		if (err != nil) != tc.wantErr {
			t.Fatalf("%s: err = %v, want error %v", tc.name, err, tc.wantErr)
		}
		if !tc.wantErr && (!r.Compromised || r.Rank != 3 || len(r.DeterminedIndices) != 3) {
			t.Fatalf("%s: got %+v, want rank 3 with every index determined", tc.name, r)
		}
	}
}

// TestAuditSumRandomNeverFalsePositive: histories kept safe by the
// online auditor are classified safe offline too (the two share the
// compromise criterion).
func TestAuditSumRandomNeverFalsePositive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(6)
		var hist []query.Answered
		// Take the first n−1 linearly independent random queries — they
		// can never contain an elementary vector (uniform rows).
		for len(hist) < n-1 {
			var idx []int
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					idx = append(idx, i)
				}
			}
			if len(idx) < 2 {
				continue
			}
			hist = append(hist, query.Answered{Query: query.New(query.Sum, idx...), Answer: 0})
			r, err := AuditSum(n, hist)
			if err != nil {
				t.Fatal(err)
			}
			if r.Compromised {
				// Possible (singletons excluded but small sets can
				// combine); just ensure determinism of the report.
				if len(r.DeterminedIndices) == 0 {
					t.Fatal("compromised without determined indices")
				}
				hist = hist[:len(hist)-1]
			}
		}
	}
}

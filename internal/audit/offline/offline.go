// Package offline implements the *offline* auditing problem the paper
// recounts in Section 2.1 (after Chin '86): given a sequence of queries
// that have already been posed and truthfully answered, decide whether
// compromise has already occurred — and, for max/min bags, report
// exactly which elements are determined.
//
// The online auditors answer a harder question ("could any consistent
// answer compromise?"); offline auditing only inspects the one history
// that actually happened, so it reduces directly to the extreme-element
// analysis of Theorems 3–4 for max/min bags and to an elementary-vector
// test for sums.
package offline

import (
	"fmt"

	"queryaudit/internal/extreme"
	"queryaudit/internal/field"
	"queryaudit/internal/linalg"
	"queryaudit/internal/query"
)

// MaxMinResult reports the offline audit of a max/min history.
type MaxMinResult struct {
	// Consistent is false when the claimed answers admit no duplicate-
	// free dataset (someone tampered with the log, or the answers were
	// not produced by one database).
	Consistent bool
	// Compromised reports whether some element is uniquely determined.
	Compromised bool
	// Determined maps element index → the value the history pins it to.
	Determined map[int]float64
	// Extremes[i] is the surviving witness set of the i-th answered
	// query, in input order.
	Extremes []query.Set
}

// AuditMaxMin audits an answered max/min history over n duplicate-free
// elements.
func AuditMaxMin(n int, history []query.Answered) (MaxMinResult, error) {
	cons := make([]extreme.Constraint, 0, len(history))
	for _, h := range history {
		switch h.Query.Kind {
		case query.Max, query.Min:
			cons = append(cons, extreme.Constraint{
				Set:   h.Query.Set,
				Value: h.Answer,
				IsMax: h.Query.Kind == query.Max,
				Rel:   extreme.RelEq,
			})
		default:
			return MaxMinResult{}, fmt.Errorf("offline: %w: %v", errUnsupported, h.Query.Kind)
		}
	}
	res := extreme.Analyze(n, cons)
	return MaxMinResult{
		Consistent:  res.Consistent,
		Compromised: res.Compromised,
		Determined:  res.Pinned,
		Extremes:    res.Extremes,
	}, nil
}

var errUnsupported = fmt.Errorf("unsupported aggregate for offline auditing")

// SumResult reports the offline audit of a sum history.
type SumResult struct {
	// Compromised reports whether some x_i is determined by the answered
	// sums (an elementary vector lies in the row space).
	Compromised bool
	// DeterminedIndices lists the solvable elements.
	DeterminedIndices []int
	// Rank is the dimension of the answered query span.
	Rank int
}

// AuditSum audits an answered sum history over n elements. Only the
// query sets matter: classical sum compromise is a property of the
// row space.
func AuditSum(n int, history []query.Answered) (SumResult, error) {
	f := field.GF61{}
	ech := linalg.NewEchelon[field.Elem61](f, n)
	for _, h := range history {
		if h.Query.Kind != query.Sum {
			return SumResult{}, fmt.Errorf("offline: %w: %v", errUnsupported, h.Query.Kind)
		}
		for _, i := range h.Query.Set {
			if i < 0 || i >= n {
				return SumResult{}, fmt.Errorf("offline: sum index %d out of range 0..%d", i, n-1)
			}
		}
		ech.Add(linalg.VectorFromSupport[field.Elem61](f, n, h.Query.Set))
	}
	cols := ech.ElementaryColumns()
	return SumResult{
		Compromised:       len(cols) > 0,
		DeterminedIndices: cols,
		Rank:              ech.Rank(),
	}, nil
}

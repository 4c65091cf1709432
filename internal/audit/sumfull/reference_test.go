package sumfull

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"queryaudit/internal/audit"
	"queryaudit/internal/field"
	"queryaudit/internal/query"
)

// refAuditor is the sum auditor recomputed from scratch: it keeps every
// answered query as a support over version columns and rebuilds the
// dense RREF basis by Gauss–Jordan elimination whenever it is asked for
// a decision or a snapshot. RREF is canonical for a row space, so the
// incremental auditor must reproduce its basis exactly.
type refAuditor struct {
	n, ncols int
	col      []int
	answered [][]int
}

func newRefAuditor(n int) *refAuditor {
	r := &refAuditor{n: n, ncols: n, col: make([]int, n)}
	for i := range r.col {
		r.col[i] = i
	}
	return r
}

func (r *refAuditor) support(s query.Set) []int {
	out := make([]int, len(s))
	for k, i := range s {
		out[k] = r.col[i]
	}
	return out
}

// rref returns the RREF basis of the answered supports plus extra.
func (r *refAuditor) rref(extra ...[]int) [][]field.Elem61 {
	f := field.GF61{}
	var m [][]field.Elem61
	for _, s := range append(append([][]int(nil), r.answered...), extra...) {
		v := make([]field.Elem61, r.ncols)
		for _, c := range s {
			v[c] = f.One()
		}
		m = append(m, v)
	}
	rank := 0
	for c := 0; c < r.ncols && rank < len(m); c++ {
		k := rank
		for k < len(m) && m[k][c] == 0 {
			k++
		}
		if k == len(m) {
			continue
		}
		m[rank], m[k] = m[k], m[rank]
		inv := f.Inv(m[rank][c])
		for j := range m[rank] {
			m[rank][j] = f.Mul(m[rank][j], inv)
		}
		for i := range m {
			if i != rank && m[i][c] != 0 {
				x := m[i][c]
				for j := range m[i] {
					m[i][j] = f.Sub(m[i][j], f.Mul(x, m[rank][j]))
				}
			}
		}
		rank++
	}
	return m[:rank]
}

func singletons(rows [][]field.Elem61) int {
	n := 0
	for _, row := range rows {
		nz := 0
		for _, x := range row {
			if x != 0 {
				nz++
			}
		}
		if nz == 1 {
			n++
		}
	}
	return n
}

func (r *refAuditor) decide(q query.Query) audit.Decision {
	if singletons(r.rref(r.support(q.Set))) > singletons(r.rref()) {
		return audit.Deny
	}
	return audit.Answer
}

func (r *refAuditor) noteUpdate(i int) {
	r.col[i] = r.ncols
	r.ncols++
}

func (r *refAuditor) snapshot() Snapshot {
	s := Snapshot{N: r.n, Cols: append([]int(nil), r.col...)}
	for _, row := range r.rref() {
		out := make([]uint64, len(row))
		for j, x := range row {
			out[j] = uint64(x)
		}
		s.Rows = append(s.Rows, out)
	}
	return s
}

func mustJSON(t *testing.T, s Snapshot) []byte {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSnapshotMatchesRecomputedReference drives seeded streams of range
// and random-subset sums with a NoteUpdate every ~5 queries, checking
// after every step that Decide agrees with the recomputed reference,
// the basis keeps its RREF invariants, and the Snapshot JSON is
// byte-identical to the reference's. The final snapshot must survive a
// Restore round trip unchanged and keep deciding the same way.
func TestSnapshotMatchesRecomputedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	denials, updates := 0, 0
	for trial := 0; trial < 8; trial++ {
		n := 20 + rng.Intn(21)
		a, ref := New(n), newRefAuditor(n)
		for step := 0; step < 3*n; step++ {
			if rng.Intn(5) == 0 {
				i := rng.Intn(n)
				a.NoteUpdate(i)
				ref.noteUpdate(i)
				updates++
			}
			var set []int
			if rng.Intn(2) == 0 {
				lo := rng.Intn(n - 1)
				hi := lo + 1 + rng.Intn(n-lo-1)
				for i := lo; i <= hi; i++ {
					set = append(set, i)
				}
			} else {
				set = rng.Perm(n)[:1+rng.Intn(n/2)]
			}
			q := query.New(query.Sum, set...)
			got, err := a.Decide(q)
			if err != nil {
				t.Fatal(err)
			}
			if want := ref.decide(q); got != want {
				t.Fatalf("trial %d step %d: Decide %v = %v, reference %v", trial, step, q, got, want)
			}
			if got == audit.Answer {
				a.Record(q, 0)
				ref.answered = append(ref.answered, ref.support(q.Set))
			} else {
				denials++
			}
			if err := a.ech.CheckInvariants(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			snap, err := a.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if got, want := mustJSON(t, snap), mustJSON(t, ref.snapshot()); !bytes.Equal(got, want) {
				t.Fatalf("trial %d step %d: snapshot differs from reference\n got %s\nwant %s", trial, step, got, want)
			}
		}
		snap, err := a.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		back, err := Restore(snap)
		if err != nil {
			t.Fatalf("trial %d: Restore: %v", trial, err)
		}
		again, err := back.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustJSON(t, snap), mustJSON(t, again)) {
			t.Fatalf("trial %d: snapshot changed across Restore", trial)
		}
		for k := 0; k < n; k++ {
			q := query.New(query.Sum, rng.Perm(n)[:1+rng.Intn(n/2)]...)
			d1, _ := a.Decide(q)
			d2, _ := back.Decide(q)
			if d1 != d2 {
				t.Fatalf("trial %d: restored auditor decides %v differently", trial, q)
			}
		}
	}
	if denials == 0 || updates == 0 {
		t.Fatalf("stream too tame: %d denials, %d updates", denials, updates)
	}
}

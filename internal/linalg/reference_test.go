package linalg

import (
	"math/rand"
	"reflect"
	"testing"

	"queryaudit/internal/field"
)

// denseEchelon is the dense-row RREF that Echelon's sparse rows replaced:
// every basis row is a full-length slice, AppendColumns widens every row,
// and elimination walks whole rows. It is kept as the reference the
// sparse implementation must match exactly.
type denseEchelon[E any, F field.Field[E]] struct {
	f     F
	ncols int
	rows  [][]E
	pivot []int
}

func (e *denseEchelon[E, F]) AppendColumns(k int) {
	for i, row := range e.rows {
		wide := VectorFromSupport[E](e.f, e.ncols+k, nil)
		copy(wide, row)
		e.rows[i] = wide
	}
	e.ncols += k
}

func (e *denseEchelon[E, F]) Reduce(v []E) []E {
	r := append([]E(nil), v...)
	for i, row := range e.rows {
		p := e.pivot[i]
		if e.f.IsZero(r[p]) {
			continue
		}
		c := r[p]
		for j := p; j < e.ncols; j++ {
			if !e.f.IsZero(row[j]) {
				r[j] = e.f.Sub(r[j], e.f.Mul(c, row[j]))
			}
		}
	}
	return r
}

func (e *denseEchelon[E, F]) leading(r []E) int {
	for j, x := range r {
		if !e.f.IsZero(x) {
			return j
		}
	}
	return -1
}

func (e *denseEchelon[E, F]) supportSize(row []E) int {
	n := 0
	for _, x := range row {
		if !e.f.IsZero(x) {
			n++
		}
	}
	return n
}

func (e *denseEchelon[E, F]) InSpan(v []E) bool { return e.leading(e.Reduce(v)) < 0 }

func (e *denseEchelon[E, F]) Add(v []E) bool {
	r := e.Reduce(v)
	p := e.leading(r)
	if p < 0 {
		return false
	}
	inv := e.f.Inv(r[p])
	for j := p; j < e.ncols; j++ {
		if !e.f.IsZero(r[j]) {
			r[j] = e.f.Mul(r[j], inv)
		}
	}
	for _, row := range e.rows {
		if e.f.IsZero(row[p]) {
			continue
		}
		c := row[p]
		for j := p; j < e.ncols; j++ {
			if !e.f.IsZero(r[j]) {
				row[j] = e.f.Sub(row[j], e.f.Mul(c, r[j]))
			}
		}
	}
	at := len(e.rows)
	for i, pc := range e.pivot {
		if pc > p {
			at = i
			break
		}
	}
	e.rows = append(e.rows, nil)
	copy(e.rows[at+1:], e.rows[at:])
	e.rows[at] = r
	e.pivot = append(e.pivot, 0)
	copy(e.pivot[at+1:], e.pivot[at:])
	e.pivot[at] = p
	return true
}

func (e *denseEchelon[E, F]) ElementaryColumns() []int {
	var cols []int
	for i, row := range e.rows {
		if e.supportSize(row) == 1 {
			cols = append(cols, e.pivot[i])
		}
	}
	return cols
}

func (e *denseEchelon[E, F]) WouldCreateElementary(v []E) bool {
	r := e.Reduce(v)
	p := e.leading(r)
	if p < 0 {
		return false
	}
	inv := e.f.Inv(r[p])
	if e.supportSize(r) == 1 {
		return true
	}
	for _, row := range e.rows {
		if e.f.IsZero(row[p]) {
			continue
		}
		c := e.f.Mul(row[p], inv)
		nz := 0
		for j := 0; j < e.ncols; j++ {
			val := row[j]
			if j >= p {
				val = e.f.Sub(row[j], e.f.Mul(c, r[j]))
			}
			if !e.f.IsZero(val) {
				nz++
			}
		}
		if nz == 1 {
			return true
		}
	}
	return false
}

// equivalenceStream drives a sparse Echelon and the dense reference with
// one seeded stream of AppendColumns, WouldCreateElementary, InSpan and
// Add over contiguous 50–100-wide ranges, random subsets and small sets
// of one to three records, asserting identical observable state and
// decisions after every step.
func equivalenceStream[E any, F field.Field[E]](t *testing.T, f F, seed int64, n, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sp := NewEchelon[E](f, n)
	ref := &denseEchelon[E, F]{f: f, ncols: n}
	col := make([]int, n) // live column of each record, as the sum auditor keeps it
	for i := range col {
		col[i] = i
	}
	elementary := 0
	for step := 0; step < steps; step++ {
		if step%10 == 9 {
			sp.AppendColumns(1)
			ref.AppendColumns(1)
			col[rng.Intn(n)] = sp.NumCols() - 1
		}
		var set []int
		switch rng.Intn(5) {
		case 0, 1:
			width := 50 + rng.Intn(51)
			lo := rng.Intn(n - width + 1)
			for i := lo; i < lo+width; i++ {
				set = append(set, i)
			}
		case 2, 3:
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					set = append(set, i)
				}
			}
		}
		if len(set) == 0 { // small sets: one to three records
			set = rng.Perm(n)[:1+rng.Intn(3)]
		}
		support := make([]int, len(set))
		for k, i := range set {
			support[k] = col[i]
		}
		v := VectorFromSupport[E](f, sp.NumCols(), support)
		if got, want := sp.WouldCreateElementary(v), ref.WouldCreateElementary(v); got != want {
			t.Fatalf("seed %d step %d: WouldCreateElementary sparse=%v dense=%v", seed, step, got, want)
		}
		if got, want := sp.InSpan(v), ref.InSpan(v); got != want {
			t.Fatalf("seed %d step %d: InSpan sparse=%v dense=%v", seed, step, got, want)
		}
		// Commit most non-compromising queries and, now and then, a
		// compromising one, so singleton rows enter the basis too.
		if !sp.WouldCreateElementary(v) || rng.Intn(2) == 0 {
			if got, want := sp.Add(v), ref.Add(v); got != want {
				t.Fatalf("seed %d step %d: Add sparse=%v dense=%v", seed, step, got, want)
			}
		}
		if sp.Rank() != len(ref.rows) || sp.NumCols() != ref.ncols {
			t.Fatalf("seed %d step %d: rank/cols sparse=%d/%d dense=%d/%d",
				seed, step, sp.Rank(), sp.NumCols(), len(ref.rows), ref.ncols)
		}
		if !reflect.DeepEqual(sp.Pivots(), append([]int{}, ref.pivot...)) {
			t.Fatalf("seed %d step %d: pivots differ", seed, step)
		}
		if !reflect.DeepEqual(sp.ElementaryColumns(), ref.ElementaryColumns()) {
			t.Fatalf("seed %d step %d: elementary columns sparse=%v dense=%v",
				seed, step, sp.ElementaryColumns(), ref.ElementaryColumns())
		}
		rows := sp.Rows()
		for i := range rows {
			for j := range rows[i] {
				if !f.Equal(rows[i][j], ref.rows[i][j]) {
					t.Fatalf("seed %d step %d: row %d differs at column %d", seed, step, i, j)
				}
			}
		}
		if err := sp.CheckInvariants(); err != nil {
			t.Fatalf("seed %d step %d: %v", seed, step, err)
		}
		elementary += len(ref.ElementaryColumns())
	}
	if elementary == 0 {
		t.Fatalf("seed %d: stream never put an elementary vector in the span", seed)
	}
}

// TestSparseMatchesDenseReference checks the sparse rows against the
// dense reference over both fields. RREF is canonical for a row space
// and the arithmetic is exact, so everything must agree bit for bit.
func TestSparseMatchesDenseReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		equivalenceStream[field.Elem61](t, field.GF61{}, seed, 120, 150)
	}
	for seed := int64(1); seed <= 2; seed++ {
		equivalenceStream[field.RatElem](t, field.Rat{}, seed, 100, 100)
	}
}

// Package linalg implements the incremental linear algebra behind the
// classical sum auditor of Sections 5 and 6: a row space of 0/1 query
// vectors maintained in reduced row-echelon form (RREF), with span
// membership tests and detection of elementary (axis-parallel) vectors.
//
// The central fact the auditor relies on (and that this package's tests
// verify) is: for a basis in RREF, an elementary vector e_i lies in the
// row space if and only if some basis row *is* e_i up to scaling — that
// is, some row has exactly one nonzero entry. Compromise detection is
// therefore a scan for singleton rows.
//
// Basis rows are sparse: each stores only its nonzero entries, so memory
// is proportional to the total support of the basis, not rank × columns,
// and opening a column for an updated record is O(1). Vectors passed in
// and residuals handed back stay dense.
//
// The package is generic over internal/field so that the same code runs
// on the fast GF(2^61−1) field and on exact rationals.
package linalg

import (
	"fmt"
	"slices"

	"queryaudit/internal/field"
)

// sparseRow is a basis row: strictly increasing column indices and their
// nonzero values. idx[0] is the row's pivot column and val[0] is 1.
type sparseRow[E any] struct {
	idx []int
	val []E
}

// at returns the row's entry in column c, if it has one.
func (r sparseRow[E]) at(c int) (E, bool) {
	k, ok := slices.BinarySearch(r.idx, c)
	if !ok {
		var z E
		return z, false
	}
	return r.val[k], true
}

// Echelon maintains a growing row space in reduced row-echelon form.
// Rows are added one at a time; dependent rows are discarded. Columns may
// be appended to model database updates (each modification of a record
// opens a fresh column for its new version).
//
// Costs, with s the support of a row and r the rank: AppendColumns is
// O(1); Reduce is O(ncols + r + Σ s over the rows it applies); Add also
// merges the new row into each row with an entry in its pivot column;
// WouldCreateElementary does the same merges but stops each one at two
// nonzeros. Memory is O(Σ s).
type Echelon[E any, F field.Field[E]] struct {
	f     F
	ncols int
	// Invariants: every other row has no entry in column rows[i].idx[0],
	// and pivot columns are strictly increasing in row order.
	rows []sparseRow[E]
}

// NewEchelon returns an empty row space over ncols columns.
func NewEchelon[E any, F field.Field[E]](f F, ncols int) *Echelon[E, F] {
	return &Echelon[E, F]{f: f, ncols: ncols}
}

// Rank returns the current dimension of the row space.
func (e *Echelon[E, F]) Rank() int { return len(e.rows) }

// NumCols returns the current number of columns.
func (e *Echelon[E, F]) NumCols() int { return e.ncols }

// AppendColumns widens the matrix by k zero columns (used when a database
// update introduces new value versions). Rows list no entry there, so
// they are left untouched.
func (e *Echelon[E, F]) AppendColumns(k int) {
	if k > 0 {
		e.ncols += k
	}
}

// VectorFromSupport builds the 0/1 vector of length ncols with ones at
// the given (not necessarily sorted) column indices.
func VectorFromSupport[E any, F field.Field[E]](f F, ncols int, support []int) []E {
	v := make([]E, ncols)
	z, one := f.Zero(), f.One()
	for i := range v {
		v[i] = z
	}
	for _, c := range support {
		if c < 0 || c >= ncols {
			panic(fmt.Sprintf("linalg: support index %d out of range 0..%d", c, ncols-1))
		}
		v[c] = one
	}
	return v
}

// Reduce returns the residual of v after elimination against the current
// basis. The residual is zero everywhere iff v is in the row space. The
// input is not modified.
func (e *Echelon[E, F]) Reduce(v []E) []E {
	if len(v) != e.ncols {
		panic(fmt.Sprintf("linalg: vector length %d, want %d", len(v), e.ncols))
	}
	r := slices.Clone(v)
	for _, row := range e.rows {
		c := r[row.idx[0]] // the pivot entry is 1, so the multiplier is c itself
		if e.f.IsZero(c) {
			continue
		}
		for k, j := range row.idx {
			r[j] = e.f.Sub(r[j], e.f.Mul(c, row.val[k]))
		}
	}
	return r
}

// IsZeroVector reports whether every entry of r is zero.
func (e *Echelon[E, F]) IsZeroVector(r []E) bool {
	for _, x := range r {
		if !e.f.IsZero(x) {
			return false
		}
	}
	return true
}

// InSpan reports whether v lies in the current row space.
func (e *Echelon[E, F]) InSpan(v []E) bool {
	return e.IsZeroVector(e.Reduce(v))
}

// residual reduces v and returns the result as a sparse row scaled so its
// leading entry is 1, or false when v is already in the span.
func (e *Echelon[E, F]) residual(v []E) (sparseRow[E], bool) {
	var nr sparseRow[E]
	for j, x := range e.Reduce(v) {
		if !e.f.IsZero(x) {
			nr.idx = append(nr.idx, j)
			nr.val = append(nr.val, x)
		}
	}
	if len(nr.idx) == 0 {
		return nr, false
	}
	inv := e.f.Inv(nr.val[0])
	for k := range nr.val {
		nr.val[k] = e.f.Mul(nr.val[k], inv)
	}
	return nr, true
}

// sub returns a − c·b as a sparse row, dropping entries that cancel,
// built in dst's storage. It stops once the result holds limit entries
// (limit ≤ 0: no limit).
func (e *Echelon[E, F]) sub(dst, a sparseRow[E], c E, b sparseRow[E], limit int) sparseRow[E] {
	out := sparseRow[E]{idx: dst.idx[:0], val: dst.val[:0]}
	ia, ib := 0, 0
	for (ia < len(a.idx) || ib < len(b.idx)) && (limit <= 0 || len(out.idx) < limit) {
		var j int
		var x E
		switch {
		case ib == len(b.idx) || (ia < len(a.idx) && a.idx[ia] < b.idx[ib]):
			j, x = a.idx[ia], a.val[ia]
			ia++
		case ia == len(a.idx) || b.idx[ib] < a.idx[ia]:
			j, x = b.idx[ib], e.f.Neg(e.f.Mul(c, b.val[ib]))
			ib++
		default:
			j, x = a.idx[ia], e.f.Sub(a.val[ia], e.f.Mul(c, b.val[ib]))
			ia++
			ib++
		}
		if !e.f.IsZero(x) {
			out.idx = append(out.idx, j)
			out.val = append(out.val, x)
		}
	}
	return out
}

// Add inserts v into the row space, returning true if the rank grew
// (false means v was already in the span). RREF is restored before
// returning.
func (e *Echelon[E, F]) Add(v []E) bool {
	nr, ok := e.residual(v)
	if !ok {
		return false
	}
	p := nr.idx[0]
	// Eliminate column p from all existing rows (zeros above the pivot).
	for i, r := range e.rows {
		if c, ok := r.at(p); ok {
			e.rows[i] = e.sub(sparseRow[E]{}, r, c, nr, 0)
		}
	}
	at, _ := slices.BinarySearchFunc(e.rows, p, func(r sparseRow[E], p int) int { return r.idx[0] - p })
	e.rows = slices.Insert(e.rows, at, nr)
	return true
}

// ElementaryInSpan returns the column index of some elementary vector in
// the row space, or (-1, false) if none exists. Requires RREF, where an
// elementary vector is in the span iff some basis row is a singleton.
func (e *Echelon[E, F]) ElementaryInSpan() (int, bool) {
	for _, r := range e.rows {
		if len(r.idx) == 1 {
			return r.idx[0], true
		}
	}
	return -1, false
}

// ElementaryColumns returns the set of columns whose elementary vectors
// lie in the row space.
func (e *Echelon[E, F]) ElementaryColumns() []int {
	var cols []int
	for _, r := range e.rows {
		if len(r.idx) == 1 {
			cols = append(cols, r.idx[0])
		}
	}
	return cols
}

// WouldCreateElementary reports whether adding v to the row space would
// put some elementary vector into the span that is not already there.
// It performs the hypothetical elimination without mutating the basis.
// If v is already in the span it reports false: answering a dependent
// query adds no information.
func (e *Echelon[E, F]) WouldCreateElementary(v []E) bool {
	nr, ok := e.residual(v)
	if !ok {
		return false
	}
	if len(nr.idx) == 1 {
		return true
	}
	// Existing rows with an entry in column p lose it; check whether any
	// becomes a singleton.
	p := nr.idx[0]
	var buf sparseRow[E]
	for _, r := range e.rows {
		if c, ok := r.at(p); ok {
			if buf = e.sub(buf, r, c, nr, 2); len(buf.idx) == 1 {
				return true
			}
		}
	}
	return false
}

// Rows returns a deep copy of the current basis rows as dense vectors of
// length NumCols (for snapshots, inspection and tests).
func (e *Echelon[E, F]) Rows() [][]E {
	out := make([][]E, len(e.rows))
	for i, r := range e.rows {
		dense := VectorFromSupport[E](e.f, e.ncols, nil)
		for k, j := range r.idx {
			dense[j] = r.val[k]
		}
		out[i] = dense
	}
	return out
}

// Pivots returns a copy of the pivot columns in row order.
func (e *Echelon[E, F]) Pivots() []int {
	out := make([]int, len(e.rows))
	for i, r := range e.rows {
		out[i] = r.idx[0]
	}
	return out
}

// CheckInvariants verifies the RREF invariants, returning a descriptive
// error when one is violated. Property tests and sumfull.Restore use it.
func (e *Echelon[E, F]) CheckInvariants() error {
	for i, r := range e.rows {
		if len(r.idx) == 0 || len(r.idx) != len(r.val) {
			return fmt.Errorf("row %d: %d indices, %d values", i, len(r.idx), len(r.val))
		}
		p := r.idx[0]
		if !e.f.Equal(r.val[0], e.f.One()) {
			return fmt.Errorf("row %d: pivot entry not 1", i)
		}
		if i > 0 && e.rows[i-1].idx[0] >= p {
			return fmt.Errorf("pivots not strictly increasing at row %d", i)
		}
		for k, j := range r.idx {
			if j < 0 || j >= e.ncols || (k > 0 && r.idx[k-1] >= j) {
				return fmt.Errorf("row %d: column %d out of order or range", i, j)
			}
			if e.f.IsZero(r.val[k]) {
				return fmt.Errorf("row %d: stored zero in column %d", i, j)
			}
		}
		for k, other := range e.rows {
			if _, ok := other.at(p); ok && k != i {
				return fmt.Errorf("row %d has nonzero in pivot column %d of row %d", k, p, i)
			}
		}
	}
	return nil
}

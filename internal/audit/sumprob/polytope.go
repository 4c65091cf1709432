package sumprob

// Geometry support: the set of datasets consistent with a history of
// answered sum queries is the polytope
//
//	P = { x ∈ [0,1]^n : A x = b },
//
// with A the 0/1 matrix of (independent) query vectors. Sampling
// uniformly from P is what makes probabilistic sum auditing expensive —
// the paper's Section 3.1 remarks that its max auditor "is decidedly
// more efficient than the probabilistic sum auditor of [21] which needs
// to estimate volumes of convex polytopes"; this package exists to make
// that comparison concrete.
//
// The sampler is textbook hit-and-run restricted to the affine subspace:
// draw an isotropic Gaussian direction in R^n, project out the row space
// of A (leaving an isotropic direction inside null(A)), and intersect it
// with the box constraints. The projection reuses the Cholesky factor of
// A·Aᵀ and costs O(rows·n) per step — for the short histories auditing
// produces, far cheaper than combining the n−rows vectors of an explicit
// null basis. A feasible starting point comes from alternating
// projections (POCS) between the affine subspace and the box.
//
// # Shape vs instance
//
// Everything expensive about a constraint system depends only on its
// ROWS: the independent-subset selection, the elimination factors of the
// dependent rows, and the Cholesky factor of A·Aᵀ. None of it touches the answer vector b. The split below —
// newShape (rows only) vs shape.instantiate (b plus a feasible point) —
// is what fixed the workers>1 regression: a Decide used to re-run the
// whole factorization for every Monte Carlo sample because each sampled
// answer produced a "new" system, even though all those systems share
// one shape (history rows + the queried row) and differ only in the last
// entry of b. Now the shape is built once per decision and each sample
// pays only a consistency check and a near-feasible projection.

import (
	"errors"
	"math"
	"math/rand"
)

// ErrInfeasible reports an empty polytope (inconsistent history).
var ErrInfeasible = errors.New("sumprob: constraint polytope is empty")

const (
	pivotTol = 1e-9
	boxTol   = 1e-7
	// depResTol bounds the residual answer of a dependent row before the
	// system is declared inconsistent (matches the historical check).
	depResTol = 1e-6
)

// depRow records a constraint row that eliminated to zero against the
// kept independent rows: factors[i] is the multiple of kept row i removed
// during elimination. Feasibility of an instance requires the same
// combination of kept answers to reproduce the row's answer.
type depRow struct {
	idx     int // position in the original row list
	factors []float64
}

// shape is the b-independent factorization of a constraint system: the
// kept independent rows, the elimination record of the dependent ones,
// and the Cholesky factor of A·Aᵀ. Shapes are immutable once built and
// safe to share read-only across workers and across decisions.
type shape struct {
	n       int
	rows    [][]float64 // kept independent original rows
	keptIdx []int       // original position of each kept row
	dep     []depRow
	chol    [][]float64
}

// newShape eliminates the (possibly dependent) rows, keeping an
// independent subset and recording the elimination factors of the rest,
// then factors the Gram matrix. b never enters.
func newShape(all [][]float64, n int) (*shape, error) {
	sh := &shape{n: n}
	work := make([][]float64, 0, len(all))
	for r, row := range all {
		cand := append([]float64(nil), row...)
		factors := make([]float64, len(work))
		for i, w := range work {
			pv := pivotIndex(w)
			if pv < 0 {
				continue
			}
			f := cand[pv] / w[pv]
			if f != 0 { //auditlint:allow floateq skip-zero fast path; any nonzero factor must be applied exactly
				for j := range cand {
					cand[j] -= f * w[j]
				}
			}
			factors[i] = f
		}
		if maxAbs(cand) <= pivotTol {
			// Dependent: instances must satisfy the recorded combination.
			sh.dep = append(sh.dep, depRow{idx: r, factors: factors})
			continue
		}
		work = append(work, cand)
		sh.rows = append(sh.rows, append([]float64(nil), row...))
		sh.keptIdx = append(sh.keptIdx, r)
	}
	if err := sh.buildCholesky(); err != nil {
		return nil, err
	}
	return sh, nil
}

// keptB fills dst with the answers of the kept rows.
func (sh *shape) keptB(dst, b []float64) []float64 {
	dst = dst[:0]
	for _, r := range sh.keptIdx {
		dst = append(dst, b[r])
	}
	return dst
}

// checkDependent verifies every dependent row's answer against the
// recorded elimination factors over the kept answers, reproducing the
// historical per-row residual arithmetic exactly.
func (sh *shape) checkDependent(b, bKept []float64) error {
	for _, d := range sh.dep {
		res := b[d.idx]
		for i, f := range d.factors {
			if f != 0 { //auditlint:allow floateq skip-zero fast path; any nonzero factor must be applied exactly
				res -= f * bKept[i]
			}
		}
		if math.Abs(res) > depResTol {
			return ErrInfeasible
		}
	}
	return nil
}

// instantiate binds the shape to an answer vector: consistency-check the
// dependent rows and find a feasible point. start, when non-nil, seeds
// the feasibility search (a point already on or near the instance, e.g.
// the current position of a walker over a sub-system); nil starts from a
// random interior guess drawn from rng.
func (sh *shape) instantiate(b, start []float64, rng *rand.Rand) (*polytope, error) {
	p := &polytope{}
	if err := sh.instantiateInto(p, b, start, rng); err != nil {
		return nil, err
	}
	return p, nil
}

// instantiateInto is instantiate reusing p's buffers — the per-sample
// path of the decision loop, which binds the same extended shape to a
// fresh simulated answer for every Monte Carlo sample.
func (sh *shape) instantiateInto(p *polytope, b, start []float64, rng *rand.Rand) error {
	p.n = sh.n
	p.rows = sh.rows
	p.chol = sh.chol
	p.b = sh.keptB(p.b, b)
	if err := sh.checkDependent(b, p.b); err != nil {
		return err
	}
	if cap(p.x0) < sh.n {
		p.x0 = make([]float64, sh.n)
	}
	p.x0 = p.x0[:sh.n]
	if start != nil {
		copy(p.x0, start)
	} else {
		for i := range p.x0 {
			p.x0[i] = 0.45 + 0.1*rng.Float64()
		}
	}
	return p.feasibleInPlace()
}

// newPolytope builds the workspace from a full (possibly dependent) set
// of constraints, keeping an independent subset, and finds a feasible
// point. rng drives the interior search. (Shape + instance in one step —
// the cold path; decisions hoist the shape and instantiate per sample.)
func newPolytope(all [][]float64, b []float64, n int, rng *rand.Rand) (*polytope, error) {
	sh, err := newShape(all, n)
	if err != nil {
		return nil, err
	}
	return sh.instantiate(b, nil, rng)
}

// polytope is one sampling-ready instance: shared read-only shape slices
// plus the instance's kept answers and feasible point.
type polytope struct {
	n int
	// rows are linearly independent 0/1 query vectors; b their answers.
	rows [][]float64
	b    []float64
	// chol is the Cholesky factor of A·Aᵀ for affine projection.
	chol [][]float64
	// x0 is a feasible point of P (after instantiate succeeds).
	x0 []float64
	// solve scratch for projectAffine (len of rows).
	resid, solveY, solveW []float64
}

func pivotIndex(row []float64) int {
	best, idx := pivotTol, -1
	for j, v := range row {
		if math.Abs(v) > best {
			best, idx = math.Abs(v), j
		}
	}
	return idx
}

func maxAbs(row []float64) float64 {
	m := 0.0
	for _, v := range row {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// buildCholesky factors A·Aᵀ (SPD for independent rows).
func (sh *shape) buildCholesky() error {
	m := len(sh.rows)
	g := make([][]float64, m)
	for i := range g {
		g[i] = make([]float64, m)
		for j := range g[i] {
			g[i][j] = dot(sh.rows[i], sh.rows[j])
		}
	}
	l := make([][]float64, m)
	for i := range l {
		l[i] = make([]float64, m)
	}
	for i := 0; i < m; i++ {
		for j := 0; j <= i; j++ {
			s := g[i][j]
			for k := 0; k < j; k++ {
				s -= l[i][k] * l[j][k]
			}
			if i == j {
				if s <= pivotTol {
					return errors.New("sumprob: gram matrix not positive definite")
				}
				l[i][i] = math.Sqrt(s)
			} else {
				l[i][j] = s / l[j][j]
			}
		}
	}
	sh.chol = l
	return nil
}

// solveChol solves (A·Aᵀ) w = r via the Cholesky factor chol, using y as
// forward-substitution scratch. Callers own y and w; chol is read-only,
// so concurrent walkers over a shared polytope each solve with their own
// buffers.
func solveChol(chol [][]float64, r, y, w []float64) {
	m := len(r)
	for i := 0; i < m; i++ {
		s := r[i]
		for k := 0; k < i; k++ {
			s -= chol[i][k] * y[k]
		}
		y[i] = s / chol[i][i]
	}
	for i := m - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < m; k++ {
			s -= chol[k][i] * w[k]
		}
		w[i] = s / chol[i][i]
	}
}

// solveGram solves (A·Aᵀ) w = r via the Cholesky factor, into p.solveW.
func (p *polytope) solveGram(r []float64) []float64 {
	m := len(r)
	if cap(p.solveY) < m {
		p.solveY = make([]float64, m)
		p.solveW = make([]float64, m)
	}
	solveChol(p.chol, r, p.solveY[:m], p.solveW[:m])
	return p.solveW[:m]
}

// projectAffine maps x to the nearest point of {Ax = b}.
func (p *polytope) projectAffine(x []float64) {
	if len(p.rows) == 0 {
		return
	}
	if cap(p.resid) < len(p.rows) {
		p.resid = make([]float64, len(p.rows))
	}
	r := p.resid[:len(p.rows)]
	for i, row := range p.rows {
		r[i] = dot(row, x) - p.b[i]
	}
	w := p.solveGram(r)
	for i, row := range p.rows {
		for j := range x {
			x[j] -= w[i] * row[j]
		}
	}
}

// feasibleInPlace alternates projections between the affine subspace and
// the box (POCS), refining p.x0 in place from wherever it starts. A start
// already on or near the polytope (a walker position over a sub-system)
// converges in one or two projections; the cold random start behaves as
// the historical search did.
func (p *polytope) feasibleInPlace() error {
	x := p.x0
	for iter := 0; iter < 500; iter++ {
		p.projectAffine(x)
		ok := true
		for j := range x {
			if x[j] < -boxTol || x[j] > 1+boxTol {
				ok = false
			}
			if x[j] < 0 {
				x[j] = 0
			}
			if x[j] > 1 {
				x[j] = 1
			}
		}
		if ok {
			p.projectAffine(x)
			clipped := false
			for j := range x {
				if x[j] < -boxTol || x[j] > 1+boxTol {
					clipped = true
				}
			}
			if !clipped {
				return nil
			}
		}
	}
	return ErrInfeasible
}

// walker runs hit-and-run from the feasible point. It owns all mutable
// step state — position, direction, and the projection solve buffers —
// so any number of walkers can share one read-only polytope (the
// decision loop runs one walker per worker lane over the shared base).
type walker struct {
	p     *polytope
	x     []float64
	d     []float64 // scratch direction in x-space
	xPrev []float64 // scratch pre-move position for stepChord
	// row-space projection scratch (len of p.rows).
	resid, solveY, solveW []float64
}

func (p *polytope) newWalker() *walker {
	return &walker{p: p, x: append([]float64(nil), p.x0...), d: make([]float64, p.n)}
}

// reset returns the walker to the polytope's feasible origin so a reused
// walker can start an independent chain.
func (w *walker) reset() { copy(w.x, w.p.x0) }

// resetTo starts the walker's chain from an arbitrary feasible point —
// the warm-start path reusing the previous decision's chain state.
func (w *walker) resetTo(x []float64) { copy(w.x, x) }

// rebase points the walker at a different polytope instance (same
// dimension), reusing its buffers, and restarts from that instance's
// feasible point. The per-sample loop rebases one walker onto each
// freshly instantiated extended system instead of allocating a new one.
func (w *walker) rebase(p *polytope) {
	w.p = p
	if cap(w.x) < p.n {
		w.x = make([]float64, p.n)
		w.d = make([]float64, p.n)
	}
	w.x = w.x[:p.n]
	w.d = w.d[:p.n]
	copy(w.x, p.x0)
}

// step performs one hit-and-run transition; a nil-dimension polytope
// (point) stays put. It returns the chord parameters (pre-move position
// is no longer available, so callers wanting the chord use stepChord).
func (w *walker) step(rng *rand.Rand) {
	w.stepChord(rng)
}

// stepChord performs one transition and reports the chord it sampled
// from: the previous point moved along direction d for t ∈ [lo, hi]
// uniformly. ok is false when the direction yielded no usable chord
// (degenerate polytope); the position is then unchanged.
//
// The chord is the basis of a Rao–Blackwellized marginal estimator:
// conditioned on the chord, coordinate j is uniform on
// [x_j + lo·d_j, x_j + hi·d_j], whose overlap with any interval is exact
// — far lower variance than binning endpoints, and every step counts.
func (w *walker) stepChord(rng *rand.Rand) (xBefore, dir []float64, lo, hi float64, ok bool) {
	if w.p.dim() == 0 {
		return nil, nil, 0, 0, false
	}
	// Random direction: isotropic Gaussian in R^n with the row space
	// projected out, leaving an isotropic direction inside null(A). Costs
	// O(rows·n) against the shared Cholesky factor — much cheaper than
	// combining an explicit (n−rows)-vector null basis when the history
	// is short relative to n.
	for j := range w.d {
		w.d[j] = rng.NormFloat64()
	}
	w.projectRowSpace(w.d)
	// The chord bounds take min/max instead of branching on the sign of
	// d_j, which no predictor can guess. The two forms agree bit for bit
	// except in the sign of a zero bound, which cannot reach t or a chord
	// end (kernel_ref_test.go checks both).
	lo, hi = math.Inf(-1), math.Inf(1)
	for j, dj := range w.d {
		if math.Abs(dj) < 1e-12 {
			continue
		}
		t0 := (0 - w.x[j]) / dj
		t1 := (1 - w.x[j]) / dj
		lo = max(lo, min(t0, t1))
		hi = min(hi, max(t0, t1))
	}
	if !(hi > lo) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return nil, nil, 0, 0, false
	}
	if w.xPrev == nil {
		w.xPrev = make([]float64, w.p.n)
	}
	copy(w.xPrev, w.x)
	t := lo + rng.Float64()*(hi-lo)
	for j := range w.x {
		w.x[j] += t * w.d[j]
		if w.x[j] < 0 {
			w.x[j] = 0
		}
		if w.x[j] > 1 {
			w.x[j] = 1
		}
	}
	return w.xPrev, w.d, lo, hi, true
}

// projectRowSpace removes d's component along the constraint rows,
// d ← d − Aᵀ(A·Aᵀ)⁻¹A·d, using the walker's own solve scratch so the
// underlying polytope stays read-only.
func (w *walker) projectRowSpace(d []float64) {
	m := len(w.p.rows)
	if m == 0 {
		return
	}
	if cap(w.resid) < m {
		w.resid = make([]float64, m)
		w.solveY = make([]float64, m)
		w.solveW = make([]float64, m)
	}
	r := w.resid[:m]
	for i, row := range w.p.rows {
		r[i] = dot(row, d)
	}
	ws := w.solveW[:m]
	solveChol(w.p.chol, r, w.solveY[:m], ws)
	for i, row := range w.p.rows {
		c := ws[i]
		for j := range d {
			d[j] -= c * row[j]
		}
	}
}

// point returns the current position (shared slice; copy to keep).
func (w *walker) point() []float64 { return w.x }

// dim returns the polytope's intrinsic dimension: the rows kept by the
// shape's elimination are independent, so it is n minus their count.
func (p *polytope) dim() int { return p.n - len(p.rows) }

package sumprob

import (
	"math"
	"math/rand"
	"testing"

	"queryaudit/internal/interval"
	"queryaudit/internal/randx"
)

// refStepChord is walker.stepChord as written with compare-and-swap
// branches on the sign of each direction entry. It is the reference the
// min/max kernel must reproduce bit for bit.
func refStepChord(w *walker, rng *rand.Rand) (xBefore, dir []float64, lo, hi float64, ok bool) {
	if w.p.dim() == 0 {
		return nil, nil, 0, 0, false
	}
	for j := range w.d {
		w.d[j] = rng.NormFloat64()
	}
	w.projectRowSpace(w.d)
	lo, hi = math.Inf(-1), math.Inf(1)
	for j := range w.d {
		dj := w.d[j]
		if math.Abs(dj) < 1e-12 {
			continue
		}
		t0 := (0 - w.x[j]) / dj
		t1 := (1 - w.x[j]) / dj
		if t0 > t1 {
			t0, t1 = t1, t0
		}
		if t0 > lo {
			lo = t0
		}
		if t1 < hi {
			hi = t1
		}
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

// refAccumulate is the branching form of accumulateChord: the reference
// for the Rao–Blackwell cell sums.
func refAccumulate(cb []float64, part interval.Partition, x, d []float64, lo, hi float64) {
	gamma := part.Gamma
	cellW := part.Width()
	for i := range x {
		aEnd := x[i] + lo*d[i]
		bEnd := x[i] + hi*d[i]
		if aEnd > bEnd {
			aEnd, bEnd = bEnd, aEnd
		}
		if bEnd-aEnd < 1e-12 {
			j := part.CellIndex(x[i])
			if j >= 1 {
				cb[i*gamma+j-1]++
			}
			continue
		}
		inv := 1 / (bEnd - aEnd)
		jLo := int(aEnd / cellW)
		if jLo < 0 {
			jLo = 0
		}
		jHi := int(bEnd / cellW)
		if jHi >= gamma {
			jHi = gamma - 1
		}
		for j := jLo; j <= jHi; j++ {
			oLo := float64(j) * cellW
			oHi := oLo + cellW
			if aEnd > oLo {
				oLo = aEnd
			}
			if bEnd < oHi {
				oHi = bEnd
			}
			if oHi > oLo {
				cb[i*gamma+j] += (oHi - oLo) * inv
			}
		}
	}
}

// sameBits returns the first index where two float slices differ bit for
// bit (0 for a length mismatch), or -1 when they are identical.
func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// sameChordEnd compares chord parameters bit for bit, except that a zero
// may differ in sign: the branching form keeps the first of two equal
// zeros it meets while max/min prefer +0/−0. Such a zero enters t and
// the chord ends only as an added zero to a nonnegative number, where
// its sign vanishes — the position and cell-sum checks prove it.
func sameChordEnd(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0)
}

// The min/max kernel must reproduce the branching kernel exactly: the
// same position, chord and cell sums after every step, over seeded
// streams with n from 8 to 48, 0 to 6 constraint rows, cell counts that
// are not powers of two, and chains restarted on the box faces.
func TestKernelMatchesReference(t *testing.T) {
	steps, zeroSigns := 0, 0
	for seed := int64(1); seed <= 32; seed++ {
		rng := randx.New(seed)
		n := 8 + rng.Intn(41)
		gamma := 3 + rng.Intn(3)
		nrows := rng.Intn(7)
		part := interval.NewPartition(0, 1, gamma)

		// A dataset with one to three coordinates on the faces 0 and 1:
		// the constraint answers are its sums, so it is itself a feasible
		// start on the box boundary. With k coordinates on a face a random
		// direction leaves the box at once with probability 1 − 2^−k, so
		// few face coordinates keep the chain moving.
		face := make([]float64, n)
		for i := range face {
			face[i] = rng.Float64()
		}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			face[rng.Intn(n)] = float64(rng.Intn(2))
		}
		rows := make([][]float64, nrows)
		b := make([]float64, nrows)
		for r := range rows {
			rows[r] = make([]float64, n)
			for _, i := range randx.SubsetSizeBetween(rng, n, 2, n/2) {
				rows[r][i] = 1
				b[r] += face[i]
			}
		}
		p, err := newPolytope(rows, b, n, rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		oldW, newW := p.newWalker(), p.newWalker()
		oldR, newR := randx.Stream(seed, 1), randx.Stream(seed, 1)
		oldSums := make([]float64, n*gamma)
		newSums := make([]float64, n*gamma)
		for s := 0; s < 400; s++ {
			if s%50 == 0 {
				oldW.resetTo(face)
				newW.resetTo(face)
			}
			ox, od, olo, ohi, ook := refStepChord(oldW, oldR)
			nx, nd, nlo, nhi, nok := newW.stepChord(newR)
			if ook != nok {
				t.Fatalf("seed %d step %d: ok %v, reference %v", seed, s, nok, ook)
			}
			if i := sameBits(oldW.x, newW.x); i >= 0 {
				t.Fatalf("seed %d step %d: position[%d] %v, reference %v", seed, s, i, newW.x[i], oldW.x[i])
			}
			if !ook {
				continue
			}
			steps++
			if !sameChordEnd(olo, nlo) || !sameChordEnd(ohi, nhi) {
				t.Fatalf("seed %d step %d: chord [%v, %v], reference [%v, %v]", seed, s, nlo, nhi, olo, ohi)
			}
			if math.Float64bits(olo) != math.Float64bits(nlo) || math.Float64bits(ohi) != math.Float64bits(nhi) {
				zeroSigns++
			}
			if sameBits(ox, nx) >= 0 || sameBits(od, nd) >= 0 {
				t.Fatalf("seed %d step %d: chord start or direction differs", seed, s)
			}
			refAccumulate(oldSums, part, ox, od, olo, ohi)
			accumulateChord(newSums, part, nx, nd, nlo, nhi)
			if i := sameBits(oldSums, newSums); i >= 0 {
				t.Fatalf("seed %d step %d: cell sum %d = %v, reference %v", seed, s, i, newSums[i], oldSums[i])
			}
		}
	}
	if steps == 0 {
		t.Fatal("no chord was ever sampled")
	}
	t.Logf("%d chords matched; %d differed only in the sign of a zero chord end", steps, zeroSigns)
}

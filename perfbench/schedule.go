package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"queryaudit/internal/core"
	"queryaudit/internal/dataset"
)

// Phase names a stretch of the schedule.
type Phase int

const (
	// PhasePrep is sent to an untimed prep server whose session
	// snapshot the measured server boots from.
	PhasePrep Phase = iota
	// PhaseWarm runs untimed against the measured server.
	PhaseWarm
	// PhaseClosed sends back to back on every connection.
	PhaseClosed
	// PhaseOpen sends each request at its due time.
	PhaseOpen
)

// Op is one request of the schedule.
type Op struct {
	Phase Phase
	// Slot is the analyst's ordinal; it fixes the analyst's connection
	// (Slot mod connections), so each analyst's requests stay in order.
	Slot    int
	Analyst string
	Kind    string
	// SQL is set for /v1/query requests; Lo/Hi (the index range
	// [Lo, Hi)) for /v1/queryset requests.
	SQL    string
	Lo, Hi int
	// Update marks a /v1/update of record Index to Value. Updates are
	// barriers: every earlier request completes before one is sent.
	Update bool
	Index  int
	Value  float64
	// Due is the open-phase send time, as an offset from phase start.
	Due time.Duration
}

// statement is one pool entry.
type statement struct {
	sql  string
	kind string
}

// updateBase is above every generated salary (the company table draws
// from [30000, 250000)), so update values never collide with the table;
// successive updates step by a non-integer amount so they never collide
// with each other either.
const (
	updateBase = 300_000.0
	updateStep = 7.25
)

// buildSchedule derives a run's entire request sequence from the
// workload, the seed and the run length. It is a pure function: no
// clock, no global state.
//
// What each analyst asks, and where the updates fall, is fixed by the
// workload (its name and contentSeed); the run seed fixes how the analysts'
// requests interleave and when open-phase requests fall due. So every
// seed drives the same per-analyst histories through a different
// arrival pattern: the final audit state, and with it the verdict
// counts and transcript digests a run must reproduce, is the same for
// every seed, while timing varies with it.
func buildSchedule(w *Workload, seed int64, seconds float64) ([]Op, error) {
	h := fnv.New64a()
	h.Write([]byte(w.Name))
	content := rand.New(rand.NewSource(int64(h.Sum64()>>1) ^ contentSeed))
	order := rand.New(rand.NewSource(seed*0x5851F42D4C957F2D + 1))
	arrivals := rand.New(rand.NewSource(seed*0x2545F4914F6CDD1D + 2))
	g, err := newGenerator(w, content)
	if err != nil {
		return nil, err
	}
	var ops []Op
	for round := 0; round < w.Prep; round++ {
		for slot := 0; slot < w.Analysts; slot++ {
			ops = append(ops, g.query(PhasePrep, slot))
		}
	}
	closed, open := w.phaseCounts(seconds)
	for i := 0; i < w.Warmup; i++ {
		ops = append(ops, g.next(PhaseWarm))
	}
	for i := 0; i < closed; i++ {
		ops = append(ops, g.next(PhaseClosed))
	}
	for i := 0; i < open; i++ {
		ops = append(ops, g.next(PhaseOpen))
	}
	interleave(ops, order)
	var due time.Duration
	for i := range ops {
		if ops[i].Phase == PhaseOpen {
			due += time.Duration(arrivals.ExpFloat64() / w.OpenRate * float64(time.Second))
			ops[i].Due = due
		}
	}
	return ops, nil
}

// interleave reorders ops in place, block by block (a block is a run of
// one phase's queries between updates), into a uniformly random merge
// of the analysts' request sequences: each analyst's requests keep
// their order and their phase, and updates keep their positions.
func interleave(ops []Op, rng *rand.Rand) {
	start := 0
	for i := 0; i <= len(ops); i++ {
		if i < len(ops) && !ops[i].Update && ops[i].Phase == ops[start].Phase {
			continue
		}
		block := ops[start:i]
		queues := map[int][]Op{}
		slots := make([]int, len(block))
		for j, op := range block {
			queues[op.Slot] = append(queues[op.Slot], op)
			slots[j] = op.Slot
		}
		rng.Shuffle(len(slots), func(a, b int) { slots[a], slots[b] = slots[b], slots[a] })
		for j, slot := range slots {
			block[j] = queues[slot][0]
			queues[slot] = queues[slot][1:]
		}
		start = i
		if i < len(ops) && ops[i].Update {
			start = i + 1
		}
	}
}

// generator draws requests for one workload.
type generator struct {
	w        *Workload
	rng      *rand.Rand
	pool     []statement
	zipf     *rand.Zipf
	newcomer int
	n        int // requests drawn (drives the update cadence)
	updates  int
}

func newGenerator(w *Workload, rng *rand.Rand) (*generator, error) {
	g := &generator{w: w, rng: rng}
	switch w.Shape {
	case "sql":
		pool, err := statementPool(w, stackConfig(w).NewDataset())
		if err != nil {
			return nil, err
		}
		g.pool = pool
		if w.Zipf > 1 {
			g.zipf = rand.NewZipf(rng, w.Zipf, 1, uint64(len(pool)-1))
		}
	case "ranges":
		if w.RangeMin < 1 || w.RangeMax < w.RangeMin || w.RangeMax > w.N {
			return nil, fmt.Errorf("workload %s: bad range sizes [%d, %d]", w.Name, w.RangeMin, w.RangeMax)
		}
	default:
		return nil, fmt.Errorf("workload %s: unknown shape %q", w.Name, w.Shape)
	}
	if w.Analysts < 1 {
		return nil, fmt.Errorf("workload %s: analysts must be >= 1", w.Name)
	}
	return g, nil
}

// next draws the next request of a timed or warm-up phase: an update
// every UpdateEvery requests, otherwise a query from a steady analyst or
// (with probability NewcomerFrac) a first-time one.
func (g *generator) next(ph Phase) Op {
	g.n++
	if g.w.UpdateEvery > 0 && g.n%g.w.UpdateEvery == 0 {
		op := Op{Phase: ph, Update: true, Index: g.rng.Intn(g.w.N), Value: updateBase + float64(g.updates)*updateStep}
		g.updates++
		return op
	}
	slot := g.rng.Intn(g.w.Analysts)
	if g.w.NewcomerFrac > 0 && g.rng.Float64() < g.w.NewcomerFrac {
		slot = g.w.Analysts + g.newcomer
		g.newcomer++
	}
	return g.query(ph, slot)
}

// query draws one query for the analyst in slot.
func (g *generator) query(ph Phase, slot int) Op {
	op := Op{Phase: ph, Slot: slot, Analyst: analystName(g.w, slot)}
	if g.pool != nil {
		i := g.rng.Intn(len(g.pool))
		if g.zipf != nil {
			i = int(g.zipf.Uint64())
		}
		op.SQL, op.Kind = g.pool[i].sql, g.pool[i].kind
		return op
	}
	size := g.w.RangeMin + g.rng.Intn(g.w.RangeMax-g.w.RangeMin+1)
	op.Kind = "sum"
	op.Lo = g.rng.Intn(g.w.N - size + 1)
	op.Hi = op.Lo + size
	return op
}

func analystName(w *Workload, slot int) string {
	if slot < w.Analysts {
		return "a" + strconv.Itoa(slot)
	}
	return "new" + strconv.Itoa(slot-w.Analysts)
}

// statementPool builds the workload's fixed SQL pool over the company
// schema (ages 21–65, five zips, five departments). Statement i takes
// its aggregate from the mix by index, so the Zipf-hot head of the pool
// is spread across kinds the same way on every run. A predicate that
// selects no row of the workload's table is drawn again, so no request
// of the pool fails.
func statementPool(w *Workload, ds *dataset.Dataset) ([]statement, error) {
	type weighted struct {
		kind   string
		weight int
	}
	var mix []weighted
	total := 0
	for _, part := range strings.Split(w.Mix, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("workload %s: bad mix entry %q", w.Name, part)
		}
		n, err := strconv.Atoi(kv[1])
		if err != nil || n < 1 {
			return nil, fmt.Errorf("workload %s: bad mix weight %q", w.Name, part)
		}
		mix = append(mix, weighted{kv[0], n})
		total += n
	}
	if w.Statements < 1 || total == 0 {
		return nil, fmt.Errorf("workload %s: empty statement pool", w.Name)
	}
	rng := rand.New(rand.NewSource(contentSeed))
	zips := []string{"94305", "94301", "94025", "95014", "94040"}
	depts := []string{"eng", "sales", "hr", "finance", "legal"}
	pool := make([]statement, 0, w.Statements)
	for i := 0; i < w.Statements; i++ {
		k := i % total
		kind := mix[0].kind
		for _, m := range mix {
			if k < m.weight {
				kind = m.kind
				break
			}
			k -= m.weight
		}
		for {
			var where string
			switch rng.Intn(4) {
			case 0:
				lo := 21 + rng.Intn(35)
				where = fmt.Sprintf("age BETWEEN %d AND %d", lo, lo+4+rng.Intn(18))
			case 1:
				where = fmt.Sprintf("dept = '%s'", depts[rng.Intn(len(depts))])
			case 2:
				where = fmt.Sprintf("zip = '%s' AND age >= %d", zips[rng.Intn(len(zips))], 21+rng.Intn(25))
			default:
				where = fmt.Sprintf("age >= %d", 21+rng.Intn(35))
			}
			sql := fmt.Sprintf("SELECT %s(salary) WHERE %s", kind, where)
			if _, err := core.ResolveSQL(ds, "salary", sql); err == nil {
				pool = append(pool, statement{sql: sql, kind: kind})
				break
			}
		}
	}
	return pool, nil
}

// segments splits a phase's ops at update barriers: each segment is a
// run of queries followed by at most one update.
func segments(ops []Op) [][]Op {
	var out [][]Op
	start := 0
	for i, op := range ops {
		if op.Update {
			out = append(out, ops[start:i+1])
			start = i + 1
		}
	}
	if start < len(ops) {
		out = append(out, ops[start:])
	}
	return out
}

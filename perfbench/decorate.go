package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"queryaudit/internal/audit"
	"queryaudit/internal/core"
	"queryaudit/internal/mcpar"
	"queryaudit/internal/query"
)

// auditorStats accumulates one auditor package's spans.
type auditorStats struct {
	mu         sync.Mutex
	decide     []time.Duration
	record     time.Duration
	noteUpdate time.Duration
	candidates int
	rank       int // highest sumfull rank seen
}

// timed is the timing decorator's core: it times Decide and Record and
// forwards them to the wrapped auditor.
type timed struct {
	inner audit.Auditor
	st    *auditorStats
}

func (t *timed) Name() string { return t.inner.Name() }

func (t *timed) Decide(q query.Query) (audit.Decision, error) {
	t0 := time.Now()
	d, err := t.inner.Decide(q)
	el := time.Since(t0)
	// Counted outside the span: Candidates repeats part of Decide's work.
	var cands int
	if c, ok := t.inner.(interface{ Candidates(query.Set) []float64 }); ok {
		cands = len(c.Candidates(q.Set))
	}
	t.st.mu.Lock()
	t.st.decide = append(t.st.decide, el)
	t.st.candidates += cands
	t.st.mu.Unlock()
	return d, err
}

func (t *timed) Record(q query.Query, answer float64) {
	t0 := time.Now()
	t.inner.Record(q, answer)
	el := time.Since(t0)
	t.st.mu.Lock()
	t.st.record += el
	t.st.mu.Unlock()
	t.noteRank()
}

// noteRank tracks the sum auditor's rank, a count that a change to the
// layer must leave unchanged.
func (t *timed) noteRank() {
	if r, ok := t.inner.(interface{ Rank() int }); ok {
		rank := r.Rank()
		t.st.mu.Lock()
		t.st.rank = max(t.st.rank, rank)
		t.st.mu.Unlock()
	}
}

// The forwarders below each carry one optional interface the engine
// probes for; decorate composes exactly those the wrapped auditor has.

type updateFwd struct{ t *timed }

func (f updateFwd) NoteUpdate(idx int) {
	t0 := time.Now()
	f.t.inner.(audit.UpdateObserver).NoteUpdate(idx)
	el := time.Since(t0)
	f.t.st.mu.Lock()
	f.t.st.noteUpdate += el
	f.t.st.mu.Unlock()
	f.t.noteRank()
}

type knowledgeFwd struct{ t *timed }

func (f knowledgeFwd) Knowledge() []audit.ElementKnowledge {
	return f.t.inner.(audit.KnowledgeReporter).Knowledge()
}

type tunableFwd struct{ t *timed }

func (f tunableFwd) SetWorkers(n int) { f.t.inner.(core.MCTunable).SetWorkers(n) }
func (f tunableFwd) SetMCObserver(o mcpar.Observer) {
	f.t.inner.(core.MCTunable).SetMCObserver(o)
}

type schedFwd struct{ t *timed }

func (f schedFwd) SetScheduler(s *mcpar.Scheduler) { f.t.inner.(core.MCSchedulable).SetScheduler(s) }

// Bits of the optional-interface mask.
const (
	hasUpdate = 1 << iota
	hasKnowledge
	hasTunable
	hasSched
)

// composers builds the decorator for each optional-interface mask.
var composers = [16]func(*timed) audit.Auditor{
	0: func(t *timed) audit.Auditor { return t },
	hasUpdate: func(t *timed) audit.Auditor {
		return struct {
			*timed
			updateFwd
		}{t, updateFwd{t}}
	},
	hasKnowledge: func(t *timed) audit.Auditor {
		return struct {
			*timed
			knowledgeFwd
		}{t, knowledgeFwd{t}}
	},
	hasUpdate | hasKnowledge: func(t *timed) audit.Auditor {
		return struct {
			*timed
			updateFwd
			knowledgeFwd
		}{t, updateFwd{t}, knowledgeFwd{t}}
	},
	hasTunable: func(t *timed) audit.Auditor {
		return struct {
			*timed
			tunableFwd
		}{t, tunableFwd{t}}
	},
	hasUpdate | hasTunable: func(t *timed) audit.Auditor {
		return struct {
			*timed
			updateFwd
			tunableFwd
		}{t, updateFwd{t}, tunableFwd{t}}
	},
	hasKnowledge | hasTunable: func(t *timed) audit.Auditor {
		return struct {
			*timed
			knowledgeFwd
			tunableFwd
		}{t, knowledgeFwd{t}, tunableFwd{t}}
	},
	hasUpdate | hasKnowledge | hasTunable: func(t *timed) audit.Auditor {
		return struct {
			*timed
			updateFwd
			knowledgeFwd
			tunableFwd
		}{t, updateFwd{t}, knowledgeFwd{t}, tunableFwd{t}}
	},
	hasSched: func(t *timed) audit.Auditor {
		return struct {
			*timed
			schedFwd
		}{t, schedFwd{t}}
	},
	hasUpdate | hasSched: func(t *timed) audit.Auditor {
		return struct {
			*timed
			updateFwd
			schedFwd
		}{t, updateFwd{t}, schedFwd{t}}
	},
	hasKnowledge | hasSched: func(t *timed) audit.Auditor {
		return struct {
			*timed
			knowledgeFwd
			schedFwd
		}{t, knowledgeFwd{t}, schedFwd{t}}
	},
	hasUpdate | hasKnowledge | hasSched: func(t *timed) audit.Auditor {
		return struct {
			*timed
			updateFwd
			knowledgeFwd
			schedFwd
		}{t, updateFwd{t}, knowledgeFwd{t}, schedFwd{t}}
	},
	hasTunable | hasSched: func(t *timed) audit.Auditor {
		return struct {
			*timed
			tunableFwd
			schedFwd
		}{t, tunableFwd{t}, schedFwd{t}}
	},
	hasUpdate | hasTunable | hasSched: func(t *timed) audit.Auditor {
		return struct {
			*timed
			updateFwd
			tunableFwd
			schedFwd
		}{t, updateFwd{t}, tunableFwd{t}, schedFwd{t}}
	},
	hasKnowledge | hasTunable | hasSched: func(t *timed) audit.Auditor {
		return struct {
			*timed
			knowledgeFwd
			tunableFwd
			schedFwd
		}{t, knowledgeFwd{t}, tunableFwd{t}, schedFwd{t}}
	},
	hasUpdate | hasKnowledge | hasTunable | hasSched: func(t *timed) audit.Auditor {
		return struct {
			*timed
			updateFwd
			knowledgeFwd
			tunableFwd
			schedFwd
		}{t, updateFwd{t}, knowledgeFwd{t}, tunableFwd{t}, schedFwd{t}}
	},
}

// decorate wraps a in a timing decorator recording into st. The result
// implements audit.UpdateObserver, audit.KnowledgeReporter,
// core.MCTunable and core.MCSchedulable exactly when a does.
func decorate(a audit.Auditor, st *auditorStats) audit.Auditor {
	return composers[optionalMask(a)](&timed{inner: a, st: st})
}

// optionalMask reports which of the optional interfaces a implements.
func optionalMask(a audit.Auditor) int {
	mask := 0
	if _, ok := a.(audit.UpdateObserver); ok {
		mask |= hasUpdate
	}
	if _, ok := a.(audit.KnowledgeReporter); ok {
		mask |= hasKnowledge
	}
	if _, ok := a.(core.MCTunable); ok {
		mask |= hasTunable
	}
	if _, ok := a.(core.MCSchedulable); ok {
		mask |= hasSched
	}
	return mask
}

// layerName names an auditor by its Go package ("*sumfull.Auditor[...]"
// → "sumfull"), the name its per-layer metrics carry.
func layerName(a audit.Auditor) string {
	name := strings.TrimPrefix(fmt.Sprintf("%T", a), "*")
	if i := strings.IndexByte(name, '.'); i >= 0 {
		name = name[:i]
	}
	return name
}

// Package fixture exercises the lockorder analyzer: a two-class
// acquisition cycle, a summary-propagated self-deadlock, the TryLock
// fast-path exemption, a blocking edge upgrading an earlier Try edge,
// and an acquires-annotated helper closing a cycle the syntax alone
// would miss.
package fixture

import "sync"

// A and B are two independently locked structures.
type A struct {
	mu sync.Mutex
	n  int
}

type B struct {
	mu sync.Mutex
	n  int
}

// LockAB acquires A.mu then B.mu.
func LockAB(a *A, b *B) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want `lock-order cycle \(deadlock risk\).*A\.mu → .*B\.mu → .*A\.mu`
	b.n++
	b.mu.Unlock()
}

// LockBA acquires them in the opposite order — together with LockAB
// this is the deadlock pair. The cycle is reported once, anchored at
// the first edge in source order (in LockAB above).
func LockBA(a *A, b *B) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a.mu.Lock()
	a.n++
	a.mu.Unlock()
}

// C self-deadlocks through a helper: Outer holds C.mu when it calls
// lockedHelper, whose summary says it blocks on C.mu again.
type C struct {
	mu sync.Mutex
	n  int
}

func (c *C) Outer(other *C) {
	c.mu.Lock()
	defer c.mu.Unlock()
	other.lockedHelper() // want `lock .*C\.mu acquired while an instance of the same class is already held`
}

func (c *C) lockedHelper() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

// D and E order against each other only through TryLock fast paths:
// the reverse edge is non-blocking, so no deadlock cycle exists.
type D struct {
	mu sync.Mutex
	n  int
}

type E struct {
	mu sync.Mutex
	n  int
}

func LockDE(d *D, e *E) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e.mu.Lock()
	e.n++
	e.mu.Unlock()
}

func TryED(d *D, e *E) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !d.mu.TryLock() { // fails fast: not a blocking edge, no cycle
		return false
	}
	d.n++
	d.mu.Unlock()
	return true
}

// F and G cycle through an annotated helper: touchF carries
// auditlint:acquires(mu) instead of visible lock syntax (imagine the
// lock buried behind build tags), and the annotation alone must supply
// the G.mu → F.mu edge.
type F struct {
	mu sync.Mutex
	n  int
}

type G struct {
	mu sync.Mutex
	n  int
}

func LockFG(f *F, g *G) {
	f.mu.Lock()
	defer f.mu.Unlock()
	g.mu.Lock() // want `lock-order cycle \(deadlock risk\).*F\.mu → .*G\.mu → .*F\.mu`
	g.n++
	g.mu.Unlock()
}

func LockGThenTouchF(f *F, g *G) {
	g.mu.Lock()
	defer g.mu.Unlock()
	touchF(f)
}

// auditlint:acquires(mu)
func touchF(f *F) {
	f.n++ // the annotation asserts the lock; lockcheck trusts it too
}

// H and I cycle through a blocking edge that follows a TryLock edge on
// the same class pair: TryHI records H.mu → I.mu as a fast path first,
// and the blocking LockHI must still upgrade it, or the H → I → H cycle
// with LockIH would be dropped along with the Try edge.
type H struct {
	mu sync.Mutex
	n  int
}

type I struct {
	mu sync.Mutex
	n  int
}

func TryHI(h *H, i *I) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !i.mu.TryLock() {
		return false
	}
	i.n++
	i.mu.Unlock()
	return true
}

func LockHI(h *H, i *I) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i.mu.Lock() // want `lock-order cycle \(deadlock risk\).*H\.mu → .*I\.mu → .*H\.mu`
	i.n++
	i.mu.Unlock()
}

func LockIH(h *H, i *I) {
	i.mu.Lock()
	defer i.mu.Unlock()
	h.mu.Lock()
	h.n++
	h.mu.Unlock()
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder returns the deadlock analyzer. It abstracts every mutex in
// the module to a lock CLASS — a named struct type plus mutex field
// name (replica.Node.mu), or a package-level variable — and builds the
// acquisition-order graph: an edge A → B whenever some goroutine can
// acquire a B-class mutex while holding an A-class one. Acquisitions
// are observed three ways:
//
//   - directly: base.mu.Lock()/RLock()/TryLock() in a function body,
//     tracked by a lexical held-set scan (Unlock pops, TryLock guard
//     clauses push, `go` literals start a fresh context);
//
//   - through calls: holding A and calling any module function whose
//     engine summary says it (transitively) acquires B adds A → B, so
//     the classic two-package deadlock — replica holds its mu and calls
//     into session, session holds its mu and calls into replica — is
//     visible even though no single function shows both locks;
//
//   - through annotations: a function marked // auditlint:acquires(mu)
//     counts as acquiring mu of the entity type in its signature, and
//     calling it pushes that class onto the held set (matching
//     lockcheck's reading of the same annotation).
//
// A cycle in the class graph is a deadlock risk; each distinct cycle is
// reported once, with a witness chain showing every acquisition on the
// cycle down to the concrete Lock call. A self-edge A → A (acquiring a
// class already held) is reported too unless both acquisitions are read
// locks. Classes are types, not instances: hand-over-hand locking of
// two objects of one type is indistinguishable from re-locking the same
// object and needs an //auditlint:allow lockorder <reason> stating the
// instance-ordering argument.
func LockOrder() *Analyzer {
	return &Analyzer{
		Name: "lockorder",
		Doc:  "no cycles in the mutex-class acquisition graph (deadlock risk)",
		Run:  runLockOrder,
	}
}

// lockClass identifies a mutex statically.
type lockClass struct {
	pkg  string // import path
	typ  string // enclosing named type; "" for package-level vars
	name string // field or variable name
}

func (c lockClass) String() string {
	p := strings.TrimPrefix(c.pkg, "queryaudit/")
	if c.typ != "" {
		return p + "." + c.typ + "." + c.name
	}
	return p + "." + c.name
}

var lockOps = map[string]bool{"Lock": true, "RLock": true, "TryLock": true, "TryRLock": true}
var unlockOps = map[string]bool{"Unlock": true, "RUnlock": true}

func readOp(op string) bool { return op == "RLock" || op == "TryRLock" }

// tryOp reports a non-blocking acquisition. A TryLock cannot be the
// blocking edge of a deadlock cycle: the goroutine fails fast instead
// of waiting, so Try* edges participate in held-set tracking (locks
// obtained that way ARE held afterwards) but never close a cycle.
func tryOp(op string) bool { return op == "TryLock" || op == "TryRLock" }

// mutexOp classifies a call as a mutex operation on a lock class:
// base.mu.Lock(), pkgMu.Lock(), or x.Lock() through an embedded mutex.
func mutexOp(prog *Program, call *ast.CallExpr) (lockClass, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockClass{}, "", false
	}
	fn, ok := prog.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return lockClass{}, "", false
	}
	op := fn.Name()
	if !lockOps[op] && !unlockOps[op] {
		return lockClass{}, "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !isMutexType(sig.Recv().Type()) {
		return lockClass{}, "", false
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr: // base.mu.Lock()
		if v, ok := prog.Info.Uses[x.Sel].(*types.Var); ok {
			if v.IsField() {
				if s, ok := prog.Info.Selections[x]; ok {
					if named := namedOf(s.Recv()); named != nil && named.Obj().Pkg() != nil {
						return lockClass{named.Obj().Pkg().Path(), named.Obj().Name(), v.Name()}, op, true
					}
				}
			} else if pkgLevelVar(v) {
				return lockClass{v.Pkg().Path(), "", v.Name()}, op, true
			}
		}
	case *ast.Ident: // mu.Lock() on a package-level var
		if v, ok := prog.Info.Uses[x].(*types.Var); ok && pkgLevelVar(v) {
			return lockClass{v.Pkg().Path(), "", v.Name()}, op, true
		}
	}
	// x.Lock() promoted through an embedded mutex field.
	if s, ok := prog.Info.Selections[sel]; ok && len(s.Index()) > 1 {
		if named := namedOf(s.Recv()); named != nil && named.Obj().Pkg() != nil {
			if st, ok := named.Underlying().(*types.Struct); ok && s.Index()[0] < st.NumFields() {
				return lockClass{named.Obj().Pkg().Path(), named.Obj().Name(), st.Field(s.Index()[0]).Name()}, op, true
			}
		}
	}
	return lockClass{}, "", false
}

func isMutexType(t types.Type) bool {
	named := namedOf(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

func pkgLevelVar(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() != nil && v.Parent() == v.Pkg().Scope()
}

// lockAcq is one entry of a function's acquisition summary: the class,
// the operation, where (a direct Lock, or the call leading toward one),
// and the next hop (nil at a direct acquisition).
type lockAcq struct {
	class lockClass
	op    string
	pos   token.Pos
	next  *types.Func
}

func findAcq(list []lockAcq, c lockClass) *lockAcq {
	for i := range list {
		if list[i].class == c {
			return &list[i]
		}
	}
	return nil
}

// collectAcquires computes the per-function acquisition summaries to a
// fixed point, plus the directly annotated classes (acquires(mu)).
func collectAcquires(prog *Program, g *Graph) (map[*types.Func][]lockAcq, map[*types.Func]lockClass) {
	acq := map[*types.Func][]lockAcq{}
	for _, fn := range g.Funcs() {
		fnAcq := acq[fn]
		inspectOwn(g.Decls[fn].Decl.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return true // non-go literals still run on the caller's schedule
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if c, op, ok := mutexOp(prog, call); ok && lockOps[op] {
				if prev := findAcq(fnAcq, c); prev == nil {
					fnAcq = append(fnAcq, lockAcq{class: c, op: op, pos: call.Pos()})
				} else if tryOp(prev.op) && !tryOp(op) {
					// A blocking acquisition outranks a Try fast path
					// (the lockShard idiom: TryLock, else blocking Lock).
					*prev = lockAcq{class: c, op: op, pos: call.Pos()}
				}
			}
			return true
		})
		acq[fn] = fnAcq
	}
	_, acquires, _ := collectGuards(prog)
	anno := map[*types.Func]lockClass{}
	for fn, mu := range acquires {
		if c, ok := annotatedClass(fn, mu); ok {
			anno[fn] = c
			if findAcq(acq[fn], c) == nil {
				acq[fn] = append(acq[fn], lockAcq{class: c, op: "Lock", pos: fn.Pos()})
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range g.Funcs() {
			for _, e := range g.Callees(fn) {
				for _, a := range acq[e.Callee] {
					prev := findAcq(acq[fn], a.class)
					if prev == nil {
						acq[fn] = append(acq[fn], lockAcq{class: a.class, op: a.op, pos: e.Pos, next: e.Callee})
						changed = true
					} else if tryOp(prev.op) && !tryOp(a.op) {
						*prev = lockAcq{class: a.class, op: a.op, pos: e.Pos, next: e.Callee}
						changed = true
					}
				}
			}
		}
	}
	return acq, anno
}

// annotatedClass resolves an acquires(mu) annotation to the class it
// locks: the first result or parameter type whose struct carries a
// mutex field named mu (matching lockcheck's entity-based reading).
func annotatedClass(fn *types.Func, mu string) (lockClass, bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return lockClass{}, false
	}
	var cands []types.Type
	for i := 0; i < sig.Results().Len(); i++ {
		cands = append(cands, sig.Results().At(i).Type())
	}
	for i := 0; i < sig.Params().Len(); i++ {
		cands = append(cands, sig.Params().At(i).Type())
	}
	for _, t := range cands {
		named := namedOf(t)
		if named == nil || named.Obj().Pkg() == nil {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Name() == mu && isMutexType(f.Type()) {
				return lockClass{named.Obj().Pkg().Path(), named.Obj().Name(), mu}, true
			}
		}
	}
	return lockClass{}, false
}

// orderEdge records "toClass acquired while fromClass held" with enough
// context to print a witness.
type orderEdge struct {
	from, to     lockClass
	fromOp, toOp string
	pos          token.Pos   // acquisition or call site of `to`
	fromPos      token.Pos   // where `from` was locked
	via          *types.Func // non-nil: `to` acquired inside this callee
	fn           *types.Func // function containing the edge
}

type heldLock struct {
	class lockClass
	op    string
	pos   token.Pos
}

type orderScanner struct {
	prog  *Program
	g     *Graph
	acq   map[*types.Func][]lockAcq
	anno  map[*types.Func]lockClass
	edges []orderEdge
	keys  map[[2]lockClass]int // index into edges
}

func (s *orderScanner) note(fn *types.Func, held []heldLock, to lockClass, toOp string, pos token.Pos, via *types.Func) {
	for _, h := range held {
		if h.class == to && readOp(h.op) && readOp(toOp) {
			continue // RLock while RLock-held: shared, not an order fact
		}
		e := orderEdge{
			from: h.class, to: to, fromOp: h.op, toOp: toOp,
			pos: pos, fromPos: h.pos, via: via, fn: fn,
		}
		key := [2]lockClass{h.class, to}
		if k, ok := s.keys[key]; ok {
			if tryOp(s.edges[k].toOp) && !tryOp(toOp) {
				// A blocking edge outranks a Try fast path seen first,
				// as in collectAcquires; keeping the Try edge would hide
				// the cycle from reportCycles.
				s.edges[k] = e
			}
			continue
		}
		s.keys[key] = len(s.edges)
		s.edges = append(s.edges, e)
	}
}

// scanExpr walks e for mutex operations and summary-bearing calls,
// returning the updated held set. Function literals are skipped: they
// run on their own schedule (go) or are rare enough inline that the
// lexical model would lie about them.
func (s *orderScanner) scanExpr(fn *types.Func, e ast.Expr, held []heldLock) []heldLock {
	if e == nil {
		return held
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if c, op, ok := mutexOp(s.prog, call); ok {
			if lockOps[op] {
				s.note(fn, held, c, op, call.Pos(), nil)
				held = append(held, heldLock{class: c, op: op, pos: call.Pos()})
			} else {
				held = removeHeld(held, c)
			}
			return false
		}
		callee := calleeFunc(s.prog.Info, call)
		if callee == nil {
			return true
		}
		if _, local := s.g.Decls[callee]; !local {
			// An interface method call: the graph's dynamic edges at this
			// position name every module-bound implementation; each
			// target's summary contributes order edges, exactly as a
			// static call to it would.
			for _, e := range s.g.Callees(fn) {
				if !e.Dynamic || e.Pos != call.Pos() {
					continue
				}
				for _, a := range s.acq[e.Callee] {
					s.note(fn, held, a.class, a.op, call.Pos(), e.Callee)
				}
			}
			return true
		}
		for _, a := range s.acq[callee] {
			via := callee
			if a.next == nil && a.pos == callee.Pos() {
				via = nil // annotation-only summary: the callee IS the acquisition
			}
			s.note(fn, held, a.class, a.op, call.Pos(), via)
		}
		if c, ok := s.anno[callee]; ok {
			// The annotated helper returns with the entity locked.
			held = append(held, heldLock{class: c, op: "Lock", pos: call.Pos()})
		}
		return true
	})
	return held
}

func removeHeld(held []heldLock, c lockClass) []heldLock {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].class == c {
			return append(append([]heldLock{}, held[:i]...), held[i+1:]...)
		}
	}
	return held
}

func copyHeld(held []heldLock) []heldLock {
	return append([]heldLock(nil), held...)
}

// scanStmt processes one statement, scanning nested control-flow bodies
// with a copy of the held set (their effects are conditional) and
// returning the held set after the statement for straight-line flow.
func (s *orderScanner) scanStmt(fn *types.Func, st ast.Stmt, held []heldLock) []heldLock {
	switch st := st.(type) {
	case *ast.ExprStmt:
		return s.scanExpr(fn, st.X, held)
	case *ast.AssignStmt:
		for _, r := range st.Rhs {
			held = s.scanExpr(fn, r, held)
		}
		return held
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, sp := range gd.Specs {
				if vs, ok := sp.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						held = s.scanExpr(fn, v, held)
					}
				}
			}
		}
		return held
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			held = s.scanExpr(fn, r, held)
		}
		return held
	case *ast.SendStmt:
		held = s.scanExpr(fn, st.Chan, held)
		return s.scanExpr(fn, st.Value, held)
	case *ast.IfStmt:
		if st.Init != nil {
			held = s.scanStmt(fn, st.Init, held)
		}
		// `if base.mu.TryLock() { ... }`: body runs with the lock held.
		if c, op, ok := condTryLock(s.prog, st.Cond); ok {
			s.note(fn, held, c, op, st.Cond.Pos(), nil)
			s.scanList(fn, st.Body.List, append(copyHeld(held), heldLock{class: c, op: op, pos: st.Cond.Pos()}))
			if st.Else != nil {
				s.scanElse(fn, st.Else, copyHeld(held))
			}
			return held
		}
		// `if !base.mu.TryLock() { return }`: the rest of the list runs
		// with the lock held.
		if u, ok := ast.Unparen(st.Cond).(*ast.UnaryExpr); ok && u.Op == token.NOT {
			if c, op, ok := condTryLock(s.prog, u.X); ok && terminates(st.Body) {
				s.note(fn, held, c, op, st.Cond.Pos(), nil)
				s.scanList(fn, st.Body.List, copyHeld(held))
				return append(held, heldLock{class: c, op: op, pos: st.Cond.Pos()})
			}
		}
		held = s.scanExpr(fn, st.Cond, held)
		s.scanList(fn, st.Body.List, copyHeld(held))
		if st.Else != nil {
			s.scanElse(fn, st.Else, copyHeld(held))
		}
		return held
	case *ast.ForStmt:
		if st.Init != nil {
			held = s.scanStmt(fn, st.Init, held)
		}
		held = s.scanExpr(fn, st.Cond, held)
		inner := copyHeld(held)
		inner = s.scanList(fn, st.Body.List, inner)
		if st.Post != nil {
			s.scanStmt(fn, st.Post, inner)
		}
		return held
	case *ast.RangeStmt:
		held = s.scanExpr(fn, st.X, held)
		s.scanList(fn, st.Body.List, copyHeld(held))
		return held
	case *ast.SwitchStmt:
		if st.Init != nil {
			held = s.scanStmt(fn, st.Init, held)
		}
		held = s.scanExpr(fn, st.Tag, held)
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				s.scanList(fn, cc.Body, copyHeld(held))
			}
		}
		return held
	case *ast.TypeSwitchStmt:
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				s.scanList(fn, cc.Body, copyHeld(held))
			}
		}
		return held
	case *ast.SelectStmt:
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				inner := copyHeld(held)
				if cc.Comm != nil {
					inner = s.scanStmt(fn, cc.Comm, inner)
				}
				s.scanList(fn, cc.Body, inner)
			}
		}
		return held
	case *ast.BlockStmt:
		s.scanList(fn, st.List, copyHeld(held))
		return held
	case *ast.LabeledStmt:
		return s.scanStmt(fn, st.Stmt, held)
	case *ast.DeferStmt, *ast.GoStmt:
		// defer Unlock releases at return (the lock stays held for the
		// rest of the scan — correct); goroutines get a fresh context at
		// their own scan below.
		return held
	}
	return held
}

func (s *orderScanner) scanElse(fn *types.Func, st ast.Stmt, held []heldLock) {
	switch st := st.(type) {
	case *ast.BlockStmt:
		s.scanList(fn, st.List, held)
	default:
		s.scanStmt(fn, st, held)
	}
}

func (s *orderScanner) scanList(fn *types.Func, stmts []ast.Stmt, held []heldLock) []heldLock {
	for _, st := range stmts {
		held = s.scanStmt(fn, st, held)
	}
	return held
}

// condTryLock matches `base.mu.TryLock()` (no negation) as a condition.
func condTryLock(prog *Program, e ast.Expr) (lockClass, string, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return lockClass{}, "", false
	}
	c, op, ok := mutexOp(prog, call)
	if !ok || (op != "TryLock" && op != "TryRLock") {
		return lockClass{}, "", false
	}
	return c, op, true
}

func runLockOrder(prog *Program) []Finding {
	g := prog.Engine()
	acq, anno := collectAcquires(prog, g)
	s := &orderScanner{prog: prog, g: g, acq: acq, anno: anno, keys: map[[2]lockClass]int{}}
	for _, fn := range g.Funcs() {
		body := g.Decls[fn].Decl.Body
		s.scanList(fn, body.List, nil)
		// Goroutine literals start a fresh, empty lock context.
		ast.Inspect(body, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
				s.scanList(fn, lit.Body.List, nil)
			}
			return true
		})
	}
	return reportCycles(prog, g, s, acq)
}

// reportCycles finds cycles in the class graph and reports each
// distinct one once, anchored at its first recorded edge.
func reportCycles(prog *Program, g *Graph, s *orderScanner, acq map[*types.Func][]lockAcq) []Finding {
	// Only blocking acquisitions can close a deadlock cycle; Try* edges
	// fail fast instead of waiting.
	var blocking []orderEdge
	for _, e := range s.edges {
		if !tryOp(e.toOp) {
			blocking = append(blocking, e)
		}
	}
	adj := map[lockClass][]orderEdge{}
	for _, e := range blocking {
		adj[e.from] = append(adj[e.from], e)
	}
	for _, list := range adj {
		sort.Slice(list, func(i, j int) bool { return list[i].to.String() < list[j].to.String() })
	}
	var out []Finding
	seen := map[string]bool{}
	for _, e := range blocking {
		cycle := closeCycle(adj, e)
		if cycle == nil {
			continue
		}
		names := make([]string, len(cycle))
		for i, ce := range cycle {
			names[i] = ce.from.String()
		}
		canon := append([]string(nil), names...)
		sort.Strings(canon)
		key := strings.Join(canon, "|")
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, cycleFinding(prog, g, cycle, names, acq))
	}
	return out
}

// closeCycle returns the cycle through e (e first), or nil: e itself if
// it is a self-edge, otherwise e plus the shortest path e.to ⇝ e.from.
func closeCycle(adj map[lockClass][]orderEdge, e orderEdge) []orderEdge {
	if e.from == e.to {
		return []orderEdge{e}
	}
	type node struct {
		class lockClass
		path  []orderEdge
	}
	frontier := []node{{class: e.to}}
	visited := map[lockClass]bool{e.to: true}
	for len(frontier) > 0 {
		var next []node
		for _, n := range frontier {
			for _, oe := range adj[n.class] {
				if oe.to == e.from {
					return append([]orderEdge{e}, append(append([]orderEdge(nil), n.path...), oe)...)
				}
				if visited[oe.to] {
					continue
				}
				visited[oe.to] = true
				next = append(next, node{class: oe.to, path: append(append([]orderEdge(nil), n.path...), oe)})
			}
		}
		frontier = next
	}
	return nil
}

func cycleFinding(prog *Program, g *Graph, cycle []orderEdge, names []string, acq map[*types.Func][]lockAcq) Finding {
	var witness []WitnessStep
	for _, e := range cycle {
		step := WitnessStep{
			Func: "acquire " + e.to.String() + " while holding " + e.from.String(),
			Pos:  prog.Fset.Position(e.pos),
			Note: "in " + FuncDisplayName(e.fn),
		}
		witness = append(witness, step)
		// Expand the summary chain from the call site down to the Lock.
		for via := e.via; via != nil; {
			a := findAcq(acq[via], e.to)
			if a == nil {
				break
			}
			hop := WitnessStep{Pos: prog.Fset.Position(a.pos)}
			if a.next != nil {
				hop.Func = FuncDisplayName(a.next)
				hop.Note = "call"
			} else {
				hop.Func = a.op + " " + e.to.String()
				hop.Note = "root"
			}
			witness = append(witness, hop)
			via = a.next
		}
	}
	anchor := cycle[0]
	if len(cycle) == 1 {
		return Finding{
			Analyzer: "lockorder",
			Pos:      prog.Fset.Position(anchor.pos),
			Message: "lock " + anchor.to.String() + " acquired while an instance of the same class is already held" +
				" (self-deadlock if it is the same instance)",
			Hint:    "release before re-acquiring, use a *Locked helper, or allow with the instance-ordering argument",
			Witness: witness,
		}
	}
	return Finding{
		Analyzer: "lockorder",
		Pos:      prog.Fset.Position(anchor.pos),
		Message:  "lock-order cycle (deadlock risk): " + strings.Join(append(names, names[0]), " → "),
		Hint:     "pick one global acquisition order for these mutexes, or collapse them into a single lock",
		Witness:  witness,
	}
}

// Package lockorder enforces a single global lock acquisition order. It
// builds the module's lock-acquisition graph — which mutex is taken while
// which other one is held, resolved through the package call graph
// (rvet/callgraph) and across package boundaries (rvet.Pass.Load) — and
// requires every observed edge to be declared in the checked-in lock-rank
// table (table.go), which the analyzer itself verifies is acyclic. An
// acyclic declared order over all real nesting is exactly the classic
// proof of deadlock freedom: two goroutines can only deadlock on mutexes
// by acquiring some pair in opposite orders, and opposite orders cannot
// both appear in an acyclic table.
//
// Locks are named by where they live, not by which instance is locked:
// "<pkg>.<Type>.<field>" for struct-field mutexes, "<pkg>.<var>" for
// package-level ones. Acquiring a lock whose name is already held —
// directly or through a callee — is reported unconditionally: same-name
// nesting is either recursive locking (self-deadlock with sync.Mutex, and
// writer-starvation-prone even for RLock) or unrankable instance-order
// nesting that needs restructuring, not a table row.
//
// Like lockio, the held-set tracking is straight-line per function;
// function-literal bodies and `go` statements run on their own schedule
// and are analyzed with an empty held set — except a literal passed to a
// package-local function that calls that parameter with locks held (core's
// Store.locked runs its install step under Store.mu): the literal runs
// then, and is analyzed with those locks held on top of its caller's.
// Callee lock sets are the
// may-acquire closure of the callee's own goroutine (literals and spawned
// goroutines excluded), so an undeclared edge means "this call path can
// block on that lock while holding this one".
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"

	"rstore/internal/analysis/rvet"
	"rstore/internal/analysis/rvet/callgraph"
)

// Analyzer is the lockorder rule over the production lock-rank table.
var Analyzer = &rvet.Analyzer{
	Name: "lockorder",
	Doc: "mutex nesting must follow the acyclic lock-rank table (deadlock freedom by global lock order)\n\n" +
		"Scope: every non-test package. An acquisition of lock B while lock A is\n" +
		"held — in the same function or through any call path, across packages —\n" +
		"is an edge A -> B that must be declared in\n" +
		"internal/analysis/lockorder/table.go; the table itself must stay acyclic.",
	Run: func(pass *rvet.Pass) error { return run(pass, Table) },
}

// NewAnalyzer returns a lockorder analyzer checked against table. The
// production Analyzer uses Table; fixture tests substitute small tables to
// exercise the completeness and acyclicity rules.
func NewAnalyzer(table []Edge) *rvet.Analyzer {
	a := *Analyzer
	a.Run = func(pass *rvet.Pass) error { return run(pass, table) }
	return &a
}

// locks is a set of canonical lock names.
type locks map[string]bool

func run(pass *rvet.Pass, table []Edge) error {
	if len(pass.Files()) == 0 {
		return nil
	}
	if cyc := tableCycle(table); cyc != nil {
		pass.Reportf(pass.Files()[0].Pos(), "lock-rank table is cyclic (%s): a cyclic rank order proves nothing — remove an edge or restructure the locking", strings.Join(cyc, " -> "))
	}
	allowed := make(map[[2]string]bool, len(table))
	for _, e := range table {
		allowed[[2]string{e.From, e.To}] = true
	}
	s := &summarizer{pass: pass, memo: make(map[string]map[string]locks)}
	g := callgraph.Build(pass.Pkg)
	local := s.localSummaries(pass.Pkg, g)
	c := &checker{
		pass:     pass,
		g:        g,
		s:        s,
		local:    local,
		allowed:  allowed,
		reported: make(map[siteEdge]bool),
		holds:    make(map[*types.Func]map[int][]string),
		bound:    make(map[*ast.FuncLit]bool),
	}
	fns := make([]*types.Func, 0, len(g.Decls))
	for fn := range g.Decls {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return g.Decls[fns[i]].Pos() < g.Decls[fns[j]].Pos() })
	// A quiet first walk finds the locks each function holds when it calls
	// a func parameter; the second checks, reporting.
	c.quiet = true
	for _, fn := range fns {
		c.cur, c.params = fn, funcParams(fn)
		c.checkBody(g.Decls[fn].Body, nil)
	}
	c.quiet, c.params = false, nil
	for _, fn := range fns {
		c.checkBody(g.Decls[fn].Body, nil)
	}
	return nil
}

// funcParams maps fn's parameters of func type to their positions.
func funcParams(fn *types.Func) map[types.Object]int {
	params := make(map[types.Object]int)
	sig := fn.Type().(*types.Signature).Params()
	for i := range sig.Len() {
		if _, ok := sig.At(i).Type().Underlying().(*types.Signature); ok {
			params[sig.At(i)] = i
		}
	}
	return params
}

// checker walks one package's function bodies in statement order,
// maintaining the held-lock set and validating every acquisition edge.
type checker struct {
	pass     *rvet.Pass
	g        *callgraph.Graph
	s        *summarizer
	local    map[*types.Func]locks
	allowed  map[[2]string]bool
	reported map[siteEdge]bool // one report per edge per site

	// holds maps a function to the locks it holds when it calls a func
	// parameter, by the parameter's position; bound marks the literals
	// analyzed with such locks held. quiet (the first walk) reports nothing
	// and fills holds for cur, whose func parameters are params.
	holds  map[*types.Func]map[int][]string
	bound  map[*ast.FuncLit]bool
	quiet  bool
	cur    *types.Func
	params map[types.Object]int
}

// reportf reports unless the walk is the quiet one.
func (c *checker) reportf(pos token.Pos, format string, args ...any) {
	if !c.quiet {
		c.pass.Reportf(pos, format, args...)
	}
}

// siteEdge is an undeclared edge at one acquisition or call site. Reports are
// per site, not per edge, so an escape silences its own site and no other.
type siteEdge struct {
	from, to string
	pos      token.Pos
}

// checkBody scans body with the given held locks (nil for a fresh
// function). heldOrder keeps acquisition order for deterministic reports.
func (c *checker) checkBody(body *ast.BlockStmt, heldOrder []string) {
	info := c.pass.TypesInfo()
	held := make(map[string]token.Pos, len(heldOrder))
	for _, h := range heldOrder {
		held[h] = token.NoPos
	}
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A literal runs on its own schedule (callback, goroutine,
			// defer chain): empty held set, like lockio — unless the call it
			// is passed to runs it with locks held (below).
			if !c.bound[n] {
				c.checkBody(n.Body, nil)
			}
			return false
		case *ast.GoStmt:
			// A spawned goroutine's acquisitions are concurrent with the
			// spawner's held locks, not ordered after them.
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				c.checkBody(lit.Body, nil)
			}
			return false
		case *ast.IfStmt:
			// An early-exit branch (body ends in return/break/continue/
			// panic) is a dead end: its unlocks must not bleed into the
			// fallthrough path — the "if closed { unlock; return }" guard
			// idiom would otherwise erase the held set for the rest of the
			// function. Analyze the branch with a snapshot instead.
			if terminates(n.Body) {
				if n.Init != nil {
					ast.Inspect(n.Init, visit)
				}
				ast.Inspect(n.Cond, visit)
				c.checkBody(n.Body, append([]string(nil), heldOrder...))
				if n.Else != nil {
					ast.Inspect(n.Else, visit)
				}
				return false
			}
		case *ast.DeferStmt:
			if _, mode, ok := rvet.MutexOp(info, n.Call); ok && (mode == "unlock" || mode == "runlock") {
				// Deferred unlock: the region stays open to the end.
				return false
			}
		case *ast.CallExpr:
			if expr, mode, ok := rvet.MutexOp(info, n); ok {
				name := lockName(c.pass.Pkg, expr)
				switch mode {
				case "lock", "rlock":
					// TryLock never blocks, so it cannot close a deadlock
					// cycle: no edge, no recursion finding. It does hold
					// the lock on success, so it still extends the held
					// set for the acquisitions that follow.
					if !isTry(n) {
						if _, again := held[name]; again {
							c.reportf(n.Pos(), "%s is acquired while already held: recursive or instance-ordered locking cannot be ranked — restructure", name)
							return true
						}
						for _, h := range heldOrder {
							c.checkEdge(h, name, n.Pos(), "")
						}
					}
					if _, again := held[name]; !again {
						held[name] = n.Pos()
						heldOrder = append(heldOrder, name)
					}
				case "unlock", "runlock":
					if _, ok := held[name]; ok {
						delete(held, name)
						for i, h := range heldOrder {
							if h == name {
								heldOrder = append(heldOrder[:i], heldOrder[i+1:]...)
								break
							}
						}
					}
				}
				return true
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(heldOrder) > 0 {
				if i, ok := c.params[info.Uses[id]]; ok {
					if c.holds[c.cur] == nil {
						c.holds[c.cur] = make(map[int][]string)
					}
					c.holds[c.cur][i] = union(c.holds[c.cur][i], heldOrder)
				}
			}
			callee := rvet.Callee(info, n)
			if callee == nil {
				return true
			}
			for i, locks := range c.holds[callee] {
				if i >= len(n.Args) {
					continue
				}
				if lit, ok := ast.Unparen(n.Args[i]).(*ast.FuncLit); ok {
					c.bound[lit] = true
					c.checkBody(lit.Body, union(heldOrder, locks))
				}
			}
			if len(heldOrder) == 0 {
				return true
			}
			var set locks
			if _, isLocal := c.g.Decls[callee]; isLocal {
				set = c.local[callee]
			} else {
				set = c.s.calleeLocks(callee)
			}
			for _, l := range sorted(set) {
				if _, again := held[l]; again {
					c.reportf(n.Pos(), "call to %s can re-acquire %s, which is already held here: self-deadlock", callee.Name(), l)
					continue
				}
				for _, h := range heldOrder {
					c.checkEdge(h, l, n.Pos(), callee.Name())
				}
			}
		}
		return true
	}
	ast.Inspect(body, visit)
}

// terminates reports whether a block's last statement leaves the enclosing
// function or loop: return, break/continue/goto, or a panic call — the
// shape of an early-exit guard branch.
func terminates(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	switch last := body.List[len(body.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// isTry reports whether a MutexOp-recognized acquisition is the
// non-blocking TryLock/TryRLock variant.
func isTry(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && strings.HasPrefix(sel.Sel.Name, "Try")
}

// checkEdge validates one observed acquisition edge against the table.
func (c *checker) checkEdge(from, to string, pos token.Pos, via string) {
	if from == to || c.allowed[[2]string{from, to}] || c.quiet {
		return
	}
	key := siteEdge{from, to, pos}
	if c.reported[key] {
		return
	}
	c.reported[key] = true
	detail := ""
	if via != "" {
		detail = fmt.Sprintf(" (via the call to %s)", via)
	}
	c.pass.Reportf(pos, "lock-order edge %s -> %s%s is not in the lock-rank table: declare it in internal/analysis/lockorder/table.go or restructure the nesting", from, to, detail)
}

// summarizer computes, per package, the set of locks each function may
// acquire on its own goroutine, memoized across the cross-package loads a
// module-wide walk needs. The import graph is acyclic, so the recursion
// terminates; an unloadable package (or a driver without a loader)
// contributes nothing rather than failing the pass.
type summarizer struct {
	pass *rvet.Pass
	memo map[string]map[string]locks // pkg path -> func FullName -> lock set
}

// calleeLocks resolves the may-acquire set of a function from another
// package of this module.
func (s *summarizer) calleeLocks(fn *types.Func) locks {
	pkg := fn.Pkg()
	if pkg == nil {
		return nil
	}
	path := pkg.Path()
	if path == s.pass.BasePath() || (path != "rstore" && !strings.HasPrefix(path, "rstore/")) {
		return nil
	}
	m, ok := s.memo[path]
	if !ok {
		s.memo[path] = nil // in-progress or failed: no summaries
		if loaded, err := s.pass.Load(path); err == nil {
			m = s.localByName(loaded, callgraph.Build(loaded))
			s.memo[path] = m
		}
	}
	if m == nil {
		return nil
	}
	return m[fn.FullName()]
}

// localSummaries computes the may-acquire closure for every function of
// pkg: locks taken directly, through package-local calls, or through calls
// into other packages of the module.
func (s *summarizer) localSummaries(pkg *rvet.Package, g *callgraph.Graph) map[*types.Func]locks {
	direct := make(map[*types.Func]locks, len(g.Decls))
	syncCalls := make(map[*types.Func][]*types.Func)
	for fn, fd := range g.Decls {
		set := make(locks)
		syncNodes(fd.Body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			if expr, mode, ok := rvet.MutexOp(pkg.Info, call); ok {
				// Summaries answer "can this callee block on that lock":
				// TryLock cannot, so it contributes nothing.
				if (mode == "lock" || mode == "rlock") && !isTry(call) {
					set[lockName(pkg, expr)] = true
				}
				return
			}
			callee := rvet.Callee(pkg.Info, call)
			if callee == nil {
				return
			}
			if _, isLocal := g.Decls[callee]; isLocal {
				syncCalls[fn] = append(syncCalls[fn], callee)
				return
			}
			for l := range s.calleeLocks(callee) {
				set[l] = true
			}
		})
		direct[fn] = set
	}
	// Fixed point: union callee sets up the package-local call graph.
	for changed := true; changed; {
		changed = false
		for fn, callees := range syncCalls {
			for _, callee := range callees {
				for l := range direct[callee] {
					if !direct[fn][l] {
						direct[fn][l] = true
						changed = true
					}
				}
			}
		}
	}
	return direct
}

// localByName is localSummaries keyed by FullName, the identity that
// survives the export-data/source object split across packages.
func (s *summarizer) localByName(pkg *rvet.Package, g *callgraph.Graph) map[string]locks {
	byFn := s.localSummaries(pkg, g)
	m := make(map[string]locks, len(byFn))
	for fn, set := range byFn {
		m[fn.FullName()] = set
	}
	return m
}

// syncNodes visits the nodes of body that execute on the caller's own
// goroutine with its locks held: `go` statements and function-literal
// bodies are skipped (they run on their own schedule and get their own
// empty-held analysis).
func syncNodes(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.GoStmt, *ast.FuncLit:
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// lockName canonicalizes a mutex expression to its rank-table identity:
// the owning named type's field for struct fields ("pkg.Type.field",
// covering every instance of the type), the package-level variable
// otherwise ("pkg.var").
func lockName(pkg *rvet.Package, expr ast.Expr) string {
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[e]; ok {
			t := sel.Recv()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				if obj := named.Obj(); obj.Pkg() != nil {
					return obj.Pkg().Path() + "." + obj.Name() + "." + e.Sel.Name
				}
			}
		}
		if obj := pkg.Info.Uses[e.Sel]; obj != nil && obj.Pkg() != nil {
			return obj.Pkg().Path() + "." + obj.Name()
		}
	case *ast.Ident:
		if obj := pkg.Info.Uses[e]; obj != nil && obj.Pkg() != nil {
			if obj.Parent() == obj.Pkg().Scope() {
				return obj.Pkg().Path() + "." + obj.Name()
			}
			return obj.Pkg().Path() + ".(local)." + obj.Name()
		}
	}
	return pkg.BasePath() + "." + types.ExprString(expr)
}

// tableCycle returns a lock cycle in the declared table, or nil if the
// table is acyclic.
func tableCycle(table []Edge) []string {
	next := make(map[string][]string)
	nodes := make([]string, 0, len(table))
	seenNode := make(map[string]bool)
	for _, e := range table {
		next[e.From] = append(next[e.From], e.To)
		for _, n := range []string{e.From, e.To} {
			if !seenNode[n] {
				seenNode[n] = true
				nodes = append(nodes, n)
			}
		}
	}
	sort.Strings(nodes)
	const (
		visiting = 1
		done     = 2
	)
	state := make(map[string]int)
	var stack []string
	var dfs func(n string) []string
	dfs = func(n string) []string {
		state[n] = visiting
		stack = append(stack, n)
		sort.Strings(next[n])
		for _, m := range next[n] {
			switch state[m] {
			case visiting:
				for i, s := range stack {
					if s == m {
						return append(append([]string(nil), stack[i:]...), m)
					}
				}
			case 0:
				if cyc := dfs(m); cyc != nil {
					return cyc
				}
			}
		}
		stack = stack[:len(stack)-1]
		state[n] = done
		return nil
	}
	for _, n := range nodes {
		if state[n] == 0 {
			if cyc := dfs(n); cyc != nil {
				return cyc
			}
		}
	}
	return nil
}

// union is a's locks followed by those of b it lacks, in order.
func union(a, b []string) []string {
	out := append([]string(nil), a...)
	for _, l := range b {
		if !slices.Contains(out, l) {
			out = append(out, l)
		}
	}
	return out
}

func sorted(set locks) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

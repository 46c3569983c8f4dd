// Package lockorder detects potential deadlocks from inconsistent mutex
// acquisition order, interprocedurally and across packages.
//
// Every mutex is canonicalized to a lock class — "pkg.Type.field" for a
// mutex struct field, "pkg.var" for a package-level mutex — so any two
// call paths that acquire the same field of the same struct type meet in
// one graph node regardless of which instance they lock. The analyzer
// builds a lock-acquisition graph: an edge A → B means some call path
// acquires class B while holding class A. Within a package the edges come
// from a fixpoint over the call graph (a function's summary is what it
// acquires directly plus, transitively, what its callees acquire);
// across packages each function's summary travels as an object fact and
// each package's edges travel as a package fact, so a dependent package
// sees the whole graph below it. Any cycle that includes an edge
// introduced by the package under analysis is reported there, once, with
// the full witness chain of call sites behind every edge.
//
// Soundness caveats (documented in docs/ALGORITHMS.md): calls through
// function values, interfaces or reflection are invisible to the call
// graph; lock classes are instance-insensitive, so an edge from a class
// to itself (two instances of one struct locked in sequence) is skipped
// rather than reported.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// locksFact is the object fact exported per function: every lock class
// the function may acquire (directly or transitively), each with the
// call-site chain that reaches the acquisition.
type locksFact struct {
	Locks map[string][]string `json:"locks"`
}

func (*locksFact) AFact() {}

// graphFact is the package fact: the acquisition edges this package's
// code introduces.
type graphFact struct {
	Edges []factEdge `json:"edges"`
}

func (*graphFact) AFact() {}

type factEdge struct {
	From    string   `json:"from"`
	To      string   `json:"to"`
	Witness []string `json:"witness"`
}

// edge is a factEdge plus the position it was observed at (own edges
// only; imported edges carry no position).
type edge struct {
	factEdge
	pos token.Pos
}

// New returns the lockorder analyzer.
func New() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "lockorder",
		Doc:  "report lock-order cycles in the cross-package mutex acquisition graph",
		Run:  run,
	}
}

// acquireSite is one direct Lock/RLock call: the class acquired and the
// classes held at that point.
type acquireSite struct {
	class string
	held  []string
	pos   token.Pos
}

// callSite is one static call to another function, with the classes held.
type callSite struct {
	callee *types.Func
	held   []string
	pos    token.Pos
}

type funcInfo struct {
	acquires []acquireSite
	calls    []callSite
}

func run(pass *analysis.Pass) error {
	locals := map[*types.Func]*funcInfo{}
	var order []*types.Func
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			locals[fn] = collect(pass, fd)
			order = append(order, fn)
		}
	}

	summaries := fixpoint(pass, locals, order)

	// Own edges: held → acquired, at direct acquisitions and at calls into
	// lock-acquiring functions. First (From, To) observation wins.
	seen := map[[2]string]bool{}
	var own []edge
	addEdge := func(from, to string, witness []string, pos token.Pos) {
		if from == to || seen[[2]string{from, to}] {
			return // instance-insensitive classes: self-edges are not decidable
		}
		seen[[2]string{from, to}] = true
		own = append(own, edge{factEdge{From: from, To: to, Witness: witness}, pos})
	}
	for _, fn := range order {
		li := locals[fn]
		for _, a := range li.acquires {
			for _, h := range a.held {
				addEdge(h, a.class, []string{posStr(pass.Fset, a.pos)}, a.pos)
			}
		}
		for _, c := range li.calls {
			if len(c.held) == 0 {
				continue
			}
			for class, chain := range calleeLocks(pass, locals, summaries, c.callee) {
				witness := append([]string{posStr(pass.Fset, c.pos)}, chain...)
				for _, h := range c.held {
					addEdge(h, class, witness, c.pos)
				}
			}
		}
	}

	// The graph below this package, keyed by the dependency that exported
	// each edge set.
	depEdges := map[string][]factEdge{}
	for _, rec := range pass.AllImportedFacts(analysis.PackageFactKind, (*graphFact)(nil)) {
		var gf graphFact
		if err := rec.Decode(&gf); err == nil {
			depEdges[rec.Key] = gf.Edges
		}
	}

	reportCycles(pass, own, depEdges)

	// Export: this package's edges, and a summary per lock-acquiring
	// function so dependents can extend the graph through calls into us.
	if len(own) > 0 {
		gf := &graphFact{}
		for _, e := range own {
			gf.Edges = append(gf.Edges, e.factEdge)
		}
		pass.ExportPackageFact(gf)
	}
	for _, fn := range order {
		if sum := summaries[fn]; len(sum) > 0 {
			pass.ExportObjectFact(fn, &locksFact{Locks: sum})
		}
	}
	return nil
}

// collect walks one function body recording direct acquisitions and
// static call sites, each with the lexical lock state canonicalized to
// classes.
func collect(pass *analysis.Pass, fd *ast.FuncDecl) *funcInfo {
	li := &funcInfo{}
	info := pass.TypesInfo

	def := analysis.LockFree
	initial := map[string]analysis.LockState{}
	recv := receiverName(fd)
	lex2class := map[string]string{}
	for _, d := range analysis.Directives(fd.Doc) {
		var state analysis.LockState
		switch d.Name {
		case "locked":
			state = analysis.LockWrite
		case "rlocked":
			state = analysis.LockRead
		default:
			continue
		}
		for _, mu := range strings.Fields(d.Args) {
			key := lockKey(recv, mu)
			initial[key] = state
			if class, ok := directiveClass(pass, fd, mu); ok {
				lex2class[key] = class
			}
		}
	}
	if strings.HasSuffix(fd.Name.Name, "Locked") {
		def = analysis.LockUnknown
	}

	// First pass: map every lexical mutex key in the body to its class.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if mu, _, ok := mutexRecv(info, call); ok {
			if class, ok := classOf(info, mu); ok {
				lex2class[types.ExprString(mu)] = class
			}
		}
		return true
	})

	heldClasses := func(locks analysis.Locks) []string {
		var out []string
		for _, lex := range locks.Held() {
			if class, ok := lex2class[lex]; ok {
				out = append(out, class)
			}
		}
		sort.Strings(out)
		return out
	}

	analysis.WalkWithLocks(info, fd.Body, initial, def, func(n ast.Node, locks analysis.Locks) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if mu, acquiring, ok := mutexRecv(info, call); ok {
			if !acquiring {
				return
			}
			if class, ok := classOf(info, mu); ok {
				li.acquires = append(li.acquires, acquireSite{class: class, held: heldClasses(locks), pos: n.Pos()})
			}
			return
		}
		if fn := staticCallee(info, call); fn != nil {
			li.calls = append(li.calls, callSite{callee: fn, held: heldClasses(locks), pos: n.Pos()})
		}
	})
	return li
}

// fixpoint computes each local function's lock summary: direct
// acquisitions plus everything reachable through local calls, with
// external callees resolved through imported facts. Locks are added only
// when absent, so recursion terminates.
func fixpoint(pass *analysis.Pass, locals map[*types.Func]*funcInfo, order []*types.Func) map[*types.Func]map[string][]string {
	summaries := map[*types.Func]map[string][]string{}
	for fn, li := range locals {
		sum := map[string][]string{}
		for _, a := range li.acquires {
			if _, ok := sum[a.class]; !ok {
				sum[a.class] = []string{posStr(pass.Fset, a.pos)}
			}
		}
		summaries[fn] = sum
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range order {
			sum := summaries[fn]
			for _, c := range locals[fn].calls {
				for class, chain := range calleeLocks(pass, locals, summaries, c.callee) {
					if _, ok := sum[class]; !ok {
						sum[class] = append([]string{posStr(pass.Fset, c.pos)}, chain...)
						changed = true
					}
				}
			}
		}
	}
	return summaries
}

// calleeLocks resolves what a callee acquires: the in-package summary if
// local, the imported object fact otherwise.
func calleeLocks(pass *analysis.Pass, locals map[*types.Func]*funcInfo, summaries map[*types.Func]map[string][]string, fn *types.Func) map[string][]string {
	if _, ok := locals[fn]; ok {
		return summaries[fn]
	}
	if fn.Pkg() == nil || fn.Pkg().Path() == "sync" {
		return nil
	}
	var lf locksFact
	if pass.ImportObjectFact(fn, &lf) {
		return lf.Locks
	}
	return nil
}

// reportCycles finds cycles in dep edges ∪ own edges that pass through at
// least one own edge and reports each once, at the own edge, with every
// edge's witness chain.
func reportCycles(pass *analysis.Pass, own []edge, depEdges map[string][]factEdge) {
	adj := map[string][]factEdge{}
	for _, edges := range depEdges {
		for _, e := range edges {
			adj[e.From] = append(adj[e.From], e)
		}
	}
	for _, e := range own {
		adj[e.From] = append(adj[e.From], e.factEdge)
	}

	reported := map[string]bool{}
	for _, e := range own {
		path, ok := shortestPath(adj, e.To, e.From)
		if !ok {
			continue
		}
		cycle := append([]factEdge{e.factEdge}, path...)
		key := cycleKey(cycle)
		if reported[key] {
			continue
		}
		reported[key] = true
		if coveredByOneDep(cycle, depEdges) {
			continue // the dependency that owns every edge reported it already
		}
		parts := make([]string, len(cycle))
		for i, ce := range cycle {
			parts[i] = fmt.Sprintf("%s -> %s (at %s)", ce.From, ce.To, strings.Join(ce.Witness, " -> "))
		}
		pass.Reportf(e.pos, "lock-order deadlock: %s", strings.Join(parts, "; "))
	}
}

// shortestPath BFSes from one class to another, returning the edge path.
func shortestPath(adj map[string][]factEdge, from, to string) ([]factEdge, bool) {
	if from == to {
		return nil, true
	}
	type hop struct {
		class string
		via   []factEdge
	}
	visited := map[string]bool{from: true}
	queue := []hop{{class: from}}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		for _, e := range adj[h.class] {
			if visited[e.To] {
				continue
			}
			via := append(append([]factEdge{}, h.via...), e)
			if e.To == to {
				return via, true
			}
			visited[e.To] = true
			queue = append(queue, hop{class: e.To, via: via})
		}
	}
	return nil, false
}

func cycleKey(cycle []factEdge) string {
	classes := make([]string, len(cycle))
	for i, e := range cycle {
		classes[i] = e.From
	}
	sort.Strings(classes)
	return strings.Join(classes, "|")
}

// coveredByOneDep reports whether a single dependency's edge set contains
// every (From, To) pair of the cycle — in which case the cycle was fully
// visible, and reported, when that dependency was analyzed.
func coveredByOneDep(cycle []factEdge, depEdges map[string][]factEdge) bool {
	for _, edges := range depEdges {
		pairs := map[[2]string]bool{}
		for _, e := range edges {
			pairs[[2]string{e.From, e.To}] = true
		}
		all := true
		for _, ce := range cycle {
			if !pairs[[2]string{ce.From, ce.To}] {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// mutexRecv reports whether call is Lock/RLock/Unlock/RUnlock on a sync
// mutex, returning the mutex expression and whether it acquires.
func mutexRecv(info *types.Info, call *ast.CallExpr) (mu ast.Expr, acquiring bool, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || len(call.Args) != 0 {
		return nil, false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquiring = true
	case "Unlock", "RUnlock":
	default:
		return nil, false, false
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, false, false
	}
	return sel.X, acquiring, true
}

// classOf canonicalizes a mutex expression to its lock class:
// "pkg.Type.field" for a field of a named struct, "pkg.var" for a
// package-level variable. Mutexes held in locals, maps or unnamed
// structs have no class and are ignored.
func classOf(info *types.Info, e ast.Expr) (string, bool) {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			if named := derefNamed(sel.Recv()); named != nil && named.Obj().Pkg() != nil {
				obj := named.Obj()
				return analysis.BasePath(obj.Pkg().Path()) + "." + obj.Name() + "." + sel.Obj().Name(), true
			}
			return "", false
		}
		// Qualified package-level mutex: pkg.Mu.
		if id, isID := x.X.(*ast.Ident); isID {
			if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				if v, isVar := info.Uses[x.Sel].(*types.Var); isVar && v.Pkg() != nil {
					return analysis.BasePath(v.Pkg().Path()) + "." + v.Name(), true
				}
			}
		}
	case *ast.Ident:
		if v, isVar := info.Uses[x].(*types.Var); isVar && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return analysis.BasePath(v.Pkg().Path()) + "." + v.Name(), true
		}
	}
	return "", false
}

func derefNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// directiveClass resolves a //sit:locked argument to a lock class: a
// field of the receiver's type, or a package-level variable.
func directiveClass(pass *analysis.Pass, fd *ast.FuncDecl, mu string) (string, bool) {
	name := mu
	if i := strings.LastIndex(mu, "."); i >= 0 {
		name = mu[i+1:]
	}
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		if tv, ok := pass.TypesInfo.Types[fd.Recv.List[0].Type]; ok {
			if named := derefNamed(tv.Type); named != nil && named.Obj().Pkg() != nil {
				if st, ok := named.Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						if st.Field(i).Name() == name {
							obj := named.Obj()
							return analysis.BasePath(obj.Pkg().Path()) + "." + obj.Name() + "." + name, true
						}
					}
				}
			}
		}
	}
	if v, ok := pass.Pkg.Scope().Lookup(name).(*types.Var); ok {
		return analysis.BasePath(pass.Pkg.Path()) + "." + v.Name(), true
	}
	return "", false
}

// staticCallee resolves a call to a statically known function or method;
// calls through function values or interfaces return nil (a documented
// soundness gap).
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

func lockKey(base, mu string) string {
	if strings.Contains(mu, ".") || base == "" {
		return mu
	}
	return base + "." + mu
}

func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

func posStr(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

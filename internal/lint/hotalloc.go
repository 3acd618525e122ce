package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// HotAlloc turns the AllocsPerRun benchmark guarantees into compile-time
// findings: allocation sites reachable from the pinned zero-alloc paths —
// the 18 ns engine schedule/cancel, the timer re-arm built on it, the 852 ns
// fabric forward, the per-packet TorPipeline methods, and the 14 ns counter
// update — are flagged with the full root→site call chain. Flagged sites:
//
//   - composite literals that allocate (&T{...}, slice and map literals);
//   - make and new;
//   - closures (a func literal built per packet escapes to the heap the
//     moment it is scheduled — use AtArg/ScheduleArg instead);
//   - append whose destination escapes (a field, an element, a return value);
//   - interface boxing: passing a non-pointer-shaped concrete value to an
//     interface parameter copies it to the heap.
//
// Two cold-path refinements keep the signal honest. Arguments to panic() are
// never scanned — a panicking run is over, not on the steady-state path. And a
// `//lint:alloc-ok` directive on a function DECLARATION marks the whole
// function as a reviewed cold branch (per-flow setup, cache fill, post-failure
// recompute): its body is not scanned and the hot set does not propagate
// through it to callees. A site-level justified `//lint:alloc-ok` on the
// flagged line still suppresses a single site (amortized growth, pool miss).
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "forbid allocation sites reachable from the pinned zero-alloc hot paths",
	Run:  runHotAlloc,
}

// hotAllocRootNames are the exact entry points of the pinned zero-alloc
// paths, spelled relative to the module path. LinkStateChanged is
// deliberately absent: link events are rare-path, only per-packet work is
// held to the zero-alloc bar.
func hotAllocRootNames(modPath string) []string {
	return []string{
		"(*" + modPath + "/internal/sim.Engine).At",
		"(*" + modPath + "/internal/sim.Engine).AtArg",
		"(*" + modPath + "/internal/sim.Engine).AtPri",
		"(*" + modPath + "/internal/sim.Engine).AtArgPri",
		"(*" + modPath + "/internal/sim.Engine).AtTurn",
		"(*" + modPath + "/internal/sim.Engine).Schedule",
		"(*" + modPath + "/internal/sim.Engine).ScheduleArg",
		"(*" + modPath + "/internal/sim.Engine).Cancel",
		// Run/AdvanceTo pin the pop side of the scheduler: step, the wheel's
		// pop/refill/cascade machinery and the heap oracle are all reachable
		// from here, so slot-migration or run-heap maintenance growing an
		// allocation fails the lint before it shows up in a benchmark.
		"(*" + modPath + "/internal/sim.Engine).Run",
		"(*" + modPath + "/internal/sim.Engine).AdvanceTo",
		// The sender re-arms its RTO on every cumulative ACK and DCQCN its α
		// timer on every congestion signal: a re-arm is per-packet work.
		"(*" + modPath + "/internal/sim.Timer).Reset",
		"(*" + modPath + "/internal/sim.Timer).Stop",
		"(*" + modPath + "/internal/fabric.Network).Inject",
		"(*" + modPath + "/internal/fabric.Network).deliverToHost",
		"(*" + modPath + "/internal/fabric.swInst).receive",
		// The egress serializer's completion path and the propagation pipe's
		// burst drain are per-packet work on every hop.
		"(*" + modPath + "/internal/fabric.outQueue).txDone",
		"(*" + modPath + "/internal/fabric.outQueue).deliverBurst",
	}
}

// hotAllocEntryMethods are per-packet TorPipeline entry points matched by
// method name on any receiver, like the hotpath analyzer's seeding: the
// middleware contract is the interface, not one concrete type.
var hotAllocEntryMethods = map[string]bool{
	"SelectUplink":      true,
	"OnDeliverToHost":   true,
	"FilterHostControl": true,
}

// hotSet is the memoized forward closure of the hot roots, with the BFS
// parent edges that reconstruct a root→function call chain for reporting.
type hotSet struct {
	in     map[string]bool
	parent map[string]CallEdge // first edge by which a function was reached
	roots  map[string]bool
}

// hotFuncs computes (once per Program) every function reachable from a
// pinned zero-alloc root through the static call graph. Calls through plain
// function values are not tracked, so a callback scheduled on the engine does
// not drag its body into the hot set — its construction site does the
// escaping, and that is what gets flagged.
func (prog *Program) hotFuncs() *hotSet {
	if prog.hot != nil {
		return prog.hot
	}
	g := prog.Graph
	roots := make(map[string]bool)
	for _, r := range hotAllocRootNames(prog.ModPath) {
		if g.Funcs[r] != nil {
			roots[r] = true
		}
	}
	for _, name := range g.FuncNames {
		fi := g.Funcs[name]
		if fi.Decl.Recv != nil && hotAllocEntryMethods[fi.Fn.Name()] {
			roots[name] = true
		}
	}
	// A //lint:alloc-ok on a function declaration marks a reviewed cold
	// branch: the function is excluded from the hot set entirely, so neither
	// its body nor its callees (via it) are scanned.
	annCache := make(map[*ast.File]map[int]bool)
	cold := func(name string) bool {
		fi := g.Funcs[name]
		if fi == nil {
			return false
		}
		f := enclosingFile(fi.Pkg, fi.Decl.Pos())
		if f == nil {
			return false
		}
		ann, ok := annCache[f]
		if !ok {
			ann = annotatedLines(prog.Fset, f, "lint:alloc-ok")
			annCache[f] = ann
		}
		line := prog.Fset.Position(fi.Decl.Pos()).Line
		return ann[line] || ann[line-1]
	}
	hs := &hotSet{in: make(map[string]bool), parent: make(map[string]CallEdge), roots: roots}
	var queue []string
	for _, r := range sortedKeys(roots) {
		if cold(r) {
			continue
		}
		hs.in[r] = true
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range g.Edges[cur] {
			if !hs.in[e.Callee] && !cold(e.Callee) {
				hs.in[e.Callee] = true
				hs.parent[e.Callee] = e
				queue = append(queue, e.Callee)
			}
		}
	}
	prog.hot = hs
	return hs
}

// HotFunctions exposes the hot set for the vacuity guards: the analyzer is
// only meaningful while real packages actually sit on the pinned paths.
func (prog *Program) HotFunctions() []string {
	hs := prog.hotFuncs()
	return sortedKeys(hs.in)
}

// pathTo renders the root→fn call chain recorded by the BFS parents.
func (hs *hotSet) pathTo(prog *Program, fn string) []Step {
	var chain []CallEdge
	cur := fn
	for !hs.roots[cur] {
		e, ok := hs.parent[cur]
		if !ok {
			break
		}
		chain = append(chain, e)
		cur = e.Caller
	}
	var steps []Step
	if fi := prog.Graph.Funcs[cur]; fi != nil {
		steps = append(steps, Step{
			Pos:  prog.Fset.Position(fi.Decl.Pos()),
			Note: "pinned zero-alloc root " + shortFuncName(prog.ModPath, cur),
		})
	}
	for i := len(chain) - 1; i >= 0; i-- {
		e := chain[i]
		steps = append(steps, Step{
			Pos:  prog.Fset.Position(e.Pos),
			Note: shortFuncName(prog.ModPath, e.Caller) + " calls " + shortFuncName(prog.ModPath, e.Callee),
		})
	}
	return steps
}

// shortFuncName strips the module path from a FullName for readable reports:
// "(*themis/internal/sim.Engine).Schedule" -> "(*sim.Engine).Schedule".
func shortFuncName(modPath, full string) string {
	full = strings.ReplaceAll(full, modPath+"/internal/", "")
	return strings.ReplaceAll(full, modPath+"/", "")
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func runHotAlloc(pass *Pass) []Diagnostic {
	prog := pass.Prog
	if prog == nil {
		return nil
	}
	if prog.allocDiags == nil {
		prog.allocDiags = make(map[string][]Diagnostic)
		hs := prog.hotFuncs()
		for _, name := range prog.Graph.FuncNames {
			if !hs.in[name] {
				continue
			}
			fi := prog.Graph.Funcs[name]
			pkgPath := fi.Pkg.Path
			diags := hotAllocScan(prog, hs, name, fi)
			prog.allocDiags[pkgPath] = append(prog.allocDiags[pkgPath], diags...)
		}
	}
	return prog.allocDiags[pass.Pkg.Path]
}

// hotAllocScan flags the allocation sites inside one hot function body.
func hotAllocScan(prog *Program, hs *hotSet, name string, fi *FuncInfo) []Diagnostic {
	var diags []Diagnostic
	info := fi.Pkg.Info
	file := enclosingFile(fi.Pkg, fi.Decl.Pos())
	var allowed map[int]bool
	if file != nil {
		allowed = annotatedLines(prog.Fset, file, "lint:alloc-ok")
	}
	report := func(pos token.Pos, what string) {
		line := prog.Fset.Position(pos).Line
		if allowed[line] || allowed[line-1] {
			return
		}
		diags = append(diags, Diagnostic{
			Pos:  prog.Fset.Position(pos),
			Rule: "hotalloc",
			Message: what + " in " + shortFuncName(prog.ModPath, name) +
				", which is on a pinned zero-alloc hot path — hoist it, pool it, or justify with //lint:alloc-ok",
			Path: append(hs.pathTo(prog, name), Step{Pos: prog.Fset.Position(pos), Note: what}),
		})
	}

	// escaping destinations for the append heuristic: a slice stored through
	// a selector or index, or returned, outlives the call and drags the
	// grown backing array to the heap.
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CompositeLit:
			switch info.Types[e].Type.Underlying().(type) {
			case *types.Slice:
				report(e.Pos(), "slice literal")
			case *types.Map:
				report(e.Pos(), "map literal")
			}
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
					report(e.Pos(), "&composite literal")
				}
			}
		case *ast.FuncLit:
			report(e.Pos(), "closure (func literal)")
			return false // the body runs later; its allocations are its scheduler's problem
		case *ast.CallExpr:
			if isBuiltinCall(info, e, "panic") {
				// A panicking run is over; allocations building the panic
				// message are not on the steady-state path.
				return false
			}
			hotAllocCall(fi, e, report)
		case *ast.AssignStmt:
			for i, rhs := range e.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltinCall(info, call, "append") || i >= len(e.Lhs) {
					continue
				}
				switch ast.Unparen(e.Lhs[i]).(type) {
				case *ast.SelectorExpr, *ast.IndexExpr:
					report(call.Pos(), "append into an escaping destination")
				}
			}
		case *ast.ReturnStmt:
			for _, r := range e.Results {
				if call, ok := ast.Unparen(r).(*ast.CallExpr); ok && isBuiltinCall(info, call, "append") {
					report(call.Pos(), "append returned to the caller")
				}
			}
		}
		return true
	})
	return diags
}

// hotAllocCall flags make/new and interface-boxing argument conversions at a
// call site inside a hot function.
func hotAllocCall(fi *FuncInfo, call *ast.CallExpr, report func(token.Pos, string)) {
	info := fi.Pkg.Info
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				switch info.Types[call].Type.Underlying().(type) {
				case *types.Slice:
					report(call.Pos(), "make([]T)")
				case *types.Map:
					report(call.Pos(), "make(map)")
				case *types.Chan:
					report(call.Pos(), "make(chan)")
				}
			case "new":
				report(call.Pos(), "new(T)")
			}
			return
		}
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type() // []T... passed whole, no boxing
			} else if sl, ok := params.At(params.Len() - 1).Type().Underlying().(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at, ok := info.Types[arg]
		if !ok || at.Type == nil || types.IsInterface(at.Type) || at.IsNil() {
			continue
		}
		if isPointerShaped(at.Type) {
			continue
		}
		report(arg.Pos(), "interface boxing of "+at.Type.String()+" into "+fn.Name()+" parameter")
	}
}

// isPointerShaped reports whether values of the type fit the interface data
// word without a heap copy.
func isPointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

// isBuiltinCall reports whether the call invokes the named builtin.
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// enclosingFile returns the package file containing pos.
func enclosingFile(p *Package, pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

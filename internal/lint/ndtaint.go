package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// NDTaint is the interprocedural nondeterminism-taint analyzer: it tracks
// values originating at nondeterministic sources along the module call graph
// into determinism sinks and reports the full source→sink path.
//
// Sources:
//   - map `range` order (the key/value variables observe Go's randomized
//     iteration order; a loop audited commutative carries //lint:ordered);
//   - `select` with two or more communication cases (runtime picks at random);
//   - unseeded math/rand top-level functions (process-global source);
//   - sync.Map.Range callback parameters;
//   - pointer→uintptr conversions (ASLR leaks address bits into values);
//   - time.Now and friends (wall clock), anywhere in the module — including
//     cmd/, which the site-level wallclock analyzer deliberately exempts.
//
// Sinks — the places where a nondeterministic value corrupts the contract:
// engine event scheduling, trace recording, Trial/report JSON encoding, trace
// JSONL export, and FIB construction. A sink call audited as safe carries a
// justified //lint:taint-ok on its line or the line above.
//
// The propagation graph is value-level and flow-insensitive: assignments,
// field stores (field-sensitive, instance-insensitive), container element
// collapse, call-argument → parameter binding (interface calls resolved to
// every module implementation), return-value binding, and pass-through for
// calls that leave the module (stdlib). Calls through plain function values
// are not tracked, matching the call graph's contract.
var NDTaint = &Analyzer{
	Name: "ndtaint",
	Doc:  "track nondeterministic values along the call graph into determinism sinks",
	Run:  runNDTaint,
}

// taintSinkNames maps fully-qualified function names to sink categories.
func taintSinkNames(modPath string) map[string]string {
	m := make(map[string]string)
	for _, n := range []string{"At", "AtArg", "AtPri", "AtArgPri", "AtTurn", "Reserve", "Schedule", "ScheduleArg"} {
		m["(*"+modPath+"/internal/sim.Engine)."+n] = "event scheduling"
	}
	for _, n := range []string{"Post", "PostArg"} {
		m["(*"+modPath+"/internal/sim.ShardGroup)."+n] = "event scheduling"
	}
	m["(*"+modPath+"/internal/sim.Timer).Reset"] = "event scheduling"
	for _, n := range []string{"Record", "RecordPacket", "RecordFault"} {
		m["(*"+modPath+"/internal/trace.Tracer)."+n] = "trace recording"
	}
	m[modPath+"/internal/exp.NewReport"] = "report JSON encoding"
	m["(*"+modPath+"/internal/exp.Report).JSON"] = "report JSON encoding"
	m["(*"+modPath+"/internal/exp.Report).WriteFile"] = "report JSON encoding"
	m[modPath+"/internal/obs.NewDump"] = "trace JSONL export"
	m[modPath+"/internal/obs.WriteJSONL"] = "trace JSONL export"
	m[modPath+"/internal/route.recompute"] = "FIB construction"
	m["(*"+modPath+"/internal/route.Plane).reconcile"] = "FIB construction"
	return m
}

// tnode is one node of the taint-propagation graph. Comparable, so it keys
// the adjacency and visited maps directly.
type tnode struct {
	kind byte         // 'o' object, 'r' function return, 'c' call site, 's' source site, 'k' sink site
	obj  types.Object // kind 'o'
	fn   string       // kind 'r': FullName
	pos  token.Pos    // kind 's'/'k': site identity
	desc string       // kind 's'/'k': human label
}

// tedge is one directed propagation step, labeled for path reporting.
type tedge struct {
	to   tnode
	pos  token.Pos
	note string
}

// taintGraph is the module-wide propagation graph plus the bookkeeping the
// reporter and the vacuity guards need.
type taintGraph struct {
	prog    *Program
	sinks   map[string]string
	out     map[tnode][]tedge
	sources []tnode
	// sinkPkg/sinkMsg describe each sink node (package owning the call site,
	// category); sinkCalls counts every sink call site seen per category,
	// tainted or not, so tests can prove the sinks are non-vacuous.
	sinkPkg   map[tnode]string
	sinkCalls map[string][]token.Pos
	// per-file escape annotations
	ordered map[*ast.File]map[int]bool
	taintOK map[*ast.File]map[int]bool
}

func runNDTaint(pass *Pass) []Diagnostic {
	prog := pass.Prog
	if prog == nil {
		return nil
	}
	prog.taint()
	return prog.taintDiags[pass.Pkg.Path]
}

// taint builds the propagation graph and solves it once per Program.
func (prog *Program) taint() {
	if prog.taintDiags != nil {
		return
	}
	tg := &taintGraph{
		prog:      prog,
		sinks:     taintSinkNames(prog.ModPath),
		out:       make(map[tnode][]tedge),
		sinkPkg:   make(map[tnode]string),
		sinkCalls: make(map[string][]token.Pos),
		ordered:   make(map[*ast.File]map[int]bool),
		taintOK:   make(map[*ast.File]map[int]bool),
	}
	for _, p := range prog.Pkgs {
		for _, f := range p.Files {
			tg.ordered[f] = annotatedLines(prog.Fset, f, "lint:ordered")
			tg.taintOK[f] = annotatedLines(prog.Fset, f, "lint:taint-ok")
		}
	}
	for _, p := range prog.Pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				tg.walkFunc(p, f, fd, fn)
			}
		}
	}
	prog.taintDiags = tg.solve()
	prog.taintSinkCalls = tg.sinkCalls
}

// TaintSinkCalls exposes, per sink category, every sink call site seen in the
// module — the vacuity guard asserts each category is exercised by a real
// package, so the analyzer cannot silently rot into checking nothing.
func (prog *Program) TaintSinkCalls() map[string][]token.Pos {
	prog.taint()
	return prog.taintSinkCalls
}

func (tg *taintGraph) edge(from, to tnode, pos token.Pos, note string) {
	tg.out[from] = append(tg.out[from], tedge{to: to, pos: pos, note: note})
}

func objNode(o types.Object) tnode { return tnode{kind: 'o', obj: o} }
func retNode(fn string) tnode      { return tnode{kind: 'r', fn: fn} }
func (tg *taintGraph) sourceNode(pos token.Pos, desc string) tnode {
	n := tnode{kind: 's', pos: pos, desc: desc}
	tg.sources = append(tg.sources, n)
	return n
}

// suppressed reports whether a source or sink on the given line carries one
// of the accepted escape markers.
func (tg *taintGraph) suppressed(f *ast.File, pos token.Pos, alsoOrdered bool) bool {
	line := tg.prog.Fset.Position(pos).Line
	if m := tg.taintOK[f]; m != nil && (m[line] || m[line-1]) {
		return true
	}
	if alsoOrdered {
		if m := tg.ordered[f]; m != nil && (m[line] || m[line-1]) {
			return true
		}
	}
	return false
}

// walkFunc adds the propagation edges contributed by one function body.
func (tg *taintGraph) walkFunc(p *Package, f *ast.File, fd *ast.FuncDecl, fn *types.Func) {
	caller := fn.FullName()
	info := p.Info

	// Named results flow to the function's return node even on bare returns.
	if sig, ok := fn.Type().(*types.Signature); ok {
		res := sig.Results()
		for i := 0; i < res.Len(); i++ {
			if v := res.At(i); v.Name() != "" {
				tg.edge(objNode(v), retNode(caller), fd.Pos(), "returned from "+fn.Name())
			}
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.AssignStmt:
			tg.walkAssign(p, e)
		case *ast.GenDecl:
			for _, spec := range e.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					obj := info.Defs[name]
					if obj == nil {
						continue
					}
					var rhs ast.Expr
					if len(vs.Values) == len(vs.Names) {
						rhs = vs.Values[i]
					} else if len(vs.Values) == 1 {
						rhs = vs.Values[0]
					}
					if rhs != nil {
						for _, from := range tg.exprNodes(p, rhs) {
							tg.edge(from, objNode(obj), name.Pos(), "assigned to "+name.Name)
						}
					}
				}
			}
		case *ast.RangeStmt:
			tg.walkRange(p, f, e)
		case *ast.SelectStmt:
			tg.walkSelect(p, f, e)
		case *ast.ReturnStmt:
			for _, r := range e.Results {
				for _, from := range tg.exprNodes(p, r) {
					tg.edge(from, retNode(caller), r.Pos(), "returned from "+fn.Name())
				}
			}
		case *ast.CallExpr:
			tg.walkCall(p, f, caller, e)
		}
		return true
	})
}

// walkAssign wires rhs taint into lhs destinations. Stores through a field or
// an element collapse onto the field object / container object.
func (tg *taintGraph) walkAssign(p *Package, as *ast.AssignStmt) {
	for i, lhs := range as.Lhs {
		var rhs ast.Expr
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		} else if len(as.Rhs) == 1 {
			rhs = as.Rhs[0] // tuple: every lhs gets the full rhs taint
		}
		if rhs == nil {
			continue
		}
		from := tg.exprNodes(p, rhs)
		if len(from) == 0 {
			continue
		}
		for _, to := range tg.destNodes(p, lhs) {
			for _, fr := range from {
				tg.edge(fr, to, as.TokPos, "assigned to "+destLabel(lhs))
			}
		}
	}
}

// destLabel renders a short name for an assignment destination.
func destLabel(e ast.Expr) string {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return v.Sel.Name
	case *ast.IndexExpr:
		return destLabel(v.X) + "[...]"
	case *ast.StarExpr:
		return "*" + destLabel(v.X)
	}
	return "destination"
}

// destNodes resolves an assignment destination to graph nodes.
func (tg *taintGraph) destNodes(p *Package, e ast.Expr) []tnode {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := identObj(p.Info, v); obj != nil {
			return []tnode{objNode(obj)}
		}
	case *ast.SelectorExpr:
		var out []tnode
		if sel, ok := p.Info.Selections[v]; ok && sel.Kind() == types.FieldVal {
			out = append(out, objNode(sel.Obj()))
		} else if obj := identObj(p.Info, v.Sel); obj != nil {
			out = append(out, objNode(obj)) // qualified package-level var
		}
		// Storing through x.f taints x as a container too.
		out = append(out, tg.destNodes(p, v.X)...)
		return out
	case *ast.IndexExpr:
		return tg.destNodes(p, v.X) // element stores collapse onto the container
	case *ast.StarExpr:
		return tg.destNodes(p, v.X)
	}
	return nil
}

// identObj returns the variable object an identifier refers to, nil for
// constants, types, packages and the blank identifier.
func identObj(info *types.Info, id *ast.Ident) types.Object {
	if id.Name == "_" {
		return nil
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if _, ok := obj.(*types.Var); ok {
		return obj
	}
	return nil
}

// walkRange seeds map-iteration-order taint on the key/value variables and
// propagates container taint for other range forms.
func (tg *taintGraph) walkRange(p *Package, f *ast.File, rs *ast.RangeStmt) {
	tv, ok := p.Info.Types[rs.X]
	if !ok {
		return
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	var dests []tnode
	for _, ke := range []ast.Expr{rs.Key, rs.Value} {
		if ke == nil {
			continue
		}
		if id, ok := ke.(*ast.Ident); ok {
			if obj := identObj(p.Info, id); obj != nil {
				dests = append(dests, objNode(obj))
			}
		}
	}
	if isMap && !tg.suppressed(f, rs.For, true) {
		src := tg.sourceNode(rs.For, "map iteration order")
		for _, d := range dests {
			tg.edge(src, d, rs.For, "observed in map-range order")
		}
	}
	// Element taint: ranging a tainted container taints the loop variables
	// regardless of the container kind.
	for _, from := range tg.exprNodes(p, rs.X) {
		for _, d := range dests {
			tg.edge(from, d, rs.For, "ranged over "+destLabel(rs.X))
		}
	}
}

// walkSelect seeds scheduler-choice taint on variables bound by a select with
// two or more communication cases.
func (tg *taintGraph) walkSelect(p *Package, f *ast.File, ss *ast.SelectStmt) {
	comms := 0
	for _, c := range ss.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
			comms++
		}
	}
	if comms < 2 || tg.suppressed(f, ss.Select, false) {
		return
	}
	src := tg.sourceNode(ss.Select, "select with multiple ready cases")
	for _, c := range ss.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if as, ok := cc.Comm.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if obj := identObj(p.Info, id); obj != nil {
						tg.edge(src, objNode(obj), ss.Select, "bound in select case")
					}
				}
			}
		}
	}
}

// walkCall binds arguments to parameters of every statically-resolved module
// callee (interface calls fan out to each implementation), records sink call
// sites, and seeds the sync.Map.Range source.
func (tg *taintGraph) walkCall(p *Package, f *ast.File, caller string, call *ast.CallExpr) {
	// sync.Map.Range: iteration order taints the callback parameters.
	if fn := calleeFunc(p.Info, call); fn != nil && fn.Name() == "Range" &&
		fn.Pkg() != nil && fn.Pkg().Path() == "sync" && len(call.Args) == 1 {
		if fl, ok := ast.Unparen(call.Args[0]).(*ast.FuncLit); ok && !tg.suppressed(f, call.Pos(), true) {
			src := tg.sourceNode(call.Pos(), "sync.Map.Range iteration order")
			for _, field := range fl.Type.Params.List {
				for _, name := range field.Names {
					if obj := p.Info.Defs[name]; obj != nil {
						tg.edge(src, objNode(obj), call.Pos(), "observed in sync.Map.Range order")
					}
				}
			}
		}
	}

	// Resolve the callees via the call graph (same positions, interface
	// calls already fanned out).
	var recvExpr ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := p.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			recvExpr = sel.X
		}
	}
	for _, e := range tg.prog.Graph.Edges[caller] {
		if e.Pos != call.Pos() {
			continue
		}
		callee := e.Callee
		if cat, isSink := tg.sinks[callee]; isSink {
			tg.sinkCalls[cat] = append(tg.sinkCalls[cat], call.Pos())
			if !tg.suppressed(f, call.Pos(), false) {
				sink := tnode{kind: 'k', pos: call.Pos(), desc: cat}
				tg.sinkPkg[sink] = p.Path
				args := call.Args
				if recvExpr != nil {
					args = append([]ast.Expr{recvExpr}, args...)
				}
				for _, a := range args {
					for _, from := range tg.exprNodes(p, a) {
						tg.edge(from, sink, call.Pos(), "flows into "+shortFuncName(tg.prog.ModPath, callee)+" ("+cat+")")
					}
				}
			}
		}
		fi := tg.prog.Graph.Funcs[callee]
		if fi == nil {
			continue
		}
		sig, ok := fi.Fn.Type().(*types.Signature)
		if !ok {
			continue
		}
		if recvExpr != nil && sig.Recv() != nil {
			for _, from := range tg.exprNodes(p, recvExpr) {
				tg.edge(from, objNode(sig.Recv()), call.Pos(), "receiver of "+fi.Fn.Name())
			}
		}
		params := sig.Params()
		for i, a := range call.Args {
			var pv *types.Var
			switch {
			case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
				pv = params.At(i)
			case sig.Variadic() && params.Len() > 0:
				pv = params.At(params.Len() - 1)
			}
			if pv == nil {
				continue
			}
			for _, from := range tg.exprNodes(p, a) {
				tg.edge(from, objNode(pv), a.Pos(), "passed to "+fi.Fn.Name()+" as "+paramLabel(pv))
			}
		}
		// The call expression observes the callee's return taint, including
		// through interface dispatch.
		tg.edge(retNode(callee), tnode{kind: 'c', pos: call.Pos()}, call.Pos(), "returned by "+fi.Fn.Name())
	}
}

// paramLabel names a parameter for path steps.
func paramLabel(v *types.Var) string {
	if v.Name() != "" && v.Name() != "_" {
		return v.Name()
	}
	return "arg"
}

// exprNodes collects the taint-graph nodes whose taint the expression
// carries: identifiers, field selections, module-call returns, and the
// synthetic sources seeded by nondeterministic constructs.
func (tg *taintGraph) exprNodes(p *Package, e ast.Expr) []tnode {
	var out []tnode
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := identObj(p.Info, v); obj != nil {
			out = append(out, objNode(obj))
		}
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[v]; ok && sel.Kind() == types.FieldVal {
			out = append(out, objNode(sel.Obj()))
			out = append(out, tg.exprNodes(p, v.X)...)
		} else if obj := identObj(p.Info, v.Sel); obj != nil {
			out = append(out, objNode(obj))
		} else {
			out = append(out, tg.exprNodes(p, v.X)...) // method value: carry receiver taint
		}
	case *ast.CallExpr:
		out = append(out, tg.callNodes(p, v)...)
	case *ast.BinaryExpr:
		out = append(out, tg.exprNodes(p, v.X)...)
		out = append(out, tg.exprNodes(p, v.Y)...)
	case *ast.UnaryExpr:
		out = append(out, tg.exprNodes(p, v.X)...)
	case *ast.StarExpr:
		out = append(out, tg.exprNodes(p, v.X)...)
	case *ast.IndexExpr:
		out = append(out, tg.exprNodes(p, v.X)...)
		out = append(out, tg.exprNodes(p, v.Index)...)
	case *ast.SliceExpr:
		out = append(out, tg.exprNodes(p, v.X)...)
	case *ast.TypeAssertExpr:
		out = append(out, tg.exprNodes(p, v.X)...)
	case *ast.CompositeLit:
		for _, el := range v.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			out = append(out, tg.exprNodes(p, el)...)
		}
	case *ast.FuncLit:
		// A closure carries the taint of every variable it touches: if it is
		// later scheduled or recorded, that taint goes with it.
		ast.Inspect(v.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := identObj(p.Info, id); obj != nil {
					out = append(out, objNode(obj))
				}
			}
			return true
		})
	}
	return out
}

// callNodes models what a call expression evaluates to, taint-wise.
func (tg *taintGraph) callNodes(p *Package, call *ast.CallExpr) []tnode {
	// Conversion? T(x) carries x's taint; pointer→uintptr is a fresh source.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		var out []tnode
		if len(call.Args) == 1 {
			out = tg.exprNodes(p, call.Args[0])
			if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Kind() == types.Uintptr {
				if at, ok := p.Info.Types[call.Args[0]]; ok && isAddrLike(at.Type) {
					f := enclosingFile(p, call.Pos())
					if f == nil || !tg.suppressed(f, call.Pos(), false) {
						out = append(out, tg.sourceNode(call.Pos(), "pointer→uintptr conversion"))
					}
				}
			}
		}
		return out
	}

	fn := calleeFunc(p.Info, call)

	// Nondeterministic stdlib sources.
	if fn != nil && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "time":
			if forbiddenTime[fn.Name()] {
				f := enclosingFile(p, call.Pos())
				if f == nil || !tg.suppressed(f, call.Pos(), false) {
					return []tnode{tg.sourceNode(call.Pos(), "time."+fn.Name()+" (wall clock)")}
				}
				return nil
			}
		case "math/rand", "math/rand/v2":
			if recvOf(fn) == nil && !allowedRand[fn.Name()] {
				f := enclosingFile(p, call.Pos())
				if f == nil || !tg.suppressed(f, call.Pos(), false) {
					return []tnode{tg.sourceNode(call.Pos(), "rand."+fn.Name()+" (process-global source)")}
				}
				return nil
			}
		}
	}

	// Module callee (direct or via a module interface): the call expression
	// observes the resolved callees' return taint through the call-site node
	// wired up in walkCall.
	if fn != nil {
		if _, inModule := tg.prog.Graph.Funcs[fn.FullName()]; inModule {
			return []tnode{{kind: 'c', pos: call.Pos()}}
		}
		if fn.Pkg() != nil && (fn.Pkg().Path() == tg.prog.ModPath || strings.HasPrefix(fn.Pkg().Path(), tg.prog.ModPath+"/")) {
			return []tnode{{kind: 'c', pos: call.Pos()}}
		}
	}

	// Unknown or extern callee: conservative pass-through of arguments and
	// receiver (strings.Join(taintedKeys, ...) stays tainted).
	var out []tnode
	for _, a := range call.Args {
		out = append(out, tg.exprNodes(p, a)...)
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := p.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			out = append(out, tg.exprNodes(p, sel.X)...)
		}
	}
	return out
}

// isAddrLike reports whether a type holds an address (pointer or
// unsafe.Pointer), for the pointer→uintptr source.
func isAddrLike(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// solve runs BFS from every source and converts each reached sink node into
// a diagnostic carrying the full propagation path.
func (tg *taintGraph) solve() map[string][]Diagnostic {
	type parentEdge struct {
		from tnode
		pos  token.Pos
		note string
	}
	parent := make(map[tnode]parentEdge)
	visited := make(map[tnode]bool)
	var queue []tnode
	for _, s := range tg.sources {
		if !visited[s] {
			visited[s] = true
			queue = append(queue, s)
		}
	}
	var reachedSinks []tnode
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.kind == 'k' {
			reachedSinks = append(reachedSinks, cur)
			continue // sinks have no out-edges
		}
		for _, e := range tg.out[cur] {
			if !visited[e.to] {
				visited[e.to] = true
				parent[e.to] = parentEdge{from: cur, pos: e.pos, note: e.note}
				queue = append(queue, e.to)
			}
		}
	}

	diags := make(map[string][]Diagnostic)
	for _, sink := range reachedSinks {
		// Reconstruct source→sink steps from the BFS parents.
		var rev []Step
		cur := sink
		src := sink
		for {
			pe, ok := parent[cur]
			if !ok {
				break
			}
			rev = append(rev, Step{Pos: tg.prog.Fset.Position(pe.pos), Note: pe.note})
			cur = pe.from
			src = cur
		}
		steps := make([]Step, 0, len(rev)+1)
		steps = append(steps, Step{Pos: tg.prog.Fset.Position(src.pos), Note: "source: " + src.desc})
		for i := len(rev) - 1; i >= 0; i-- {
			steps = append(steps, rev[i])
		}
		pkg := tg.sinkPkg[sink]
		diags[pkg] = append(diags[pkg], Diagnostic{
			Pos:  tg.prog.Fset.Position(sink.pos),
			Rule: "ndtaint",
			Message: "nondeterministic value (" + src.desc + ", " + shortPos(tg.prog.Fset, src.pos) +
				") reaches " + sink.desc + " — thread a seeded/deterministic value instead or justify with //lint:taint-ok",
			Path: steps,
		})
	}
	for pkg := range diags {
		SortDiagnostics(diags[pkg])
	}
	return diags
}

// shortPos renders file:line with the directory stripped.
func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return name + ":" + strconv.Itoa(p.Line)
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// sinkNames lists the functions whose invocation order is order-sensitive
// simulation state: scheduling on the event queue or posting to a shard
// mailbox (every fabric-link delivery, serializer completion and pause frame
// is one of the Arg/Pri forms; an elided completion reserves its place in the
// order and fills it later), (re)arming timers, and appending to the trace
// ring. A function from which any of these is reachable must not iterate maps
// (see MapOrder).
func sinkNames(modPath string) map[string]bool {
	return map[string]bool{
		"(*" + modPath + "/internal/sim.Engine).At":             true,
		"(*" + modPath + "/internal/sim.Engine).AtArg":          true,
		"(*" + modPath + "/internal/sim.Engine).AtPri":          true,
		"(*" + modPath + "/internal/sim.Engine).AtArgPri":       true,
		"(*" + modPath + "/internal/sim.Engine).AtTurn":         true,
		"(*" + modPath + "/internal/sim.Engine).Reserve":        true,
		"(*" + modPath + "/internal/sim.Engine).Schedule":       true,
		"(*" + modPath + "/internal/sim.Engine).ScheduleArg":    true,
		"(*" + modPath + "/internal/sim.ShardGroup).Post":       true,
		"(*" + modPath + "/internal/sim.ShardGroup).PostArg":    true,
		"(*" + modPath + "/internal/sim.Timer).Reset":           true,
		"(*" + modPath + "/internal/sim.Ticker).Start":          true,
		"(*" + modPath + "/internal/trace.Tracer).Record":       true,
		"(*" + modPath + "/internal/trace.Tracer).RecordPacket": true,
		"(*" + modPath + "/internal/trace.Tracer).RecordFault":  true,
		"(*" + modPath + "/internal/fabric.Network).Inject":     true,
	}
}

// CallEdge is one statically-resolved call: Caller invokes Callee at Pos.
// Interface calls fan out into one edge per concrete module implementation.
type CallEdge struct {
	Caller string // types.Func.FullName of the enclosing declaration
	Callee string // types.Func.FullName of the resolved callee
	Pos    token.Pos
}

// FuncInfo ties a module function's type object to its declaration site.
type FuncInfo struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
}

// Graph is the module-wide static call graph shared by the interprocedural
// analyzers (map-order reach, nondeterminism taint, hot-path allocation).
// The construction is simple by design:
//
//   - direct calls (pkg.F, recv.M, local f) produce edges;
//   - calls through an interface method are resolved class-hierarchy style to
//     every concrete method in the module that implements the interface;
//   - calls through plain function values are not tracked.
//
// Closures count toward their enclosing declaration: a function that builds
// an event callback inside a map range is exactly the bug the taint and
// map-order analyzers hunt, even though the callback body runs later.
type Graph struct {
	// Edges holds the out-edges of each caller, in source order.
	Edges map[string][]CallEdge
	// Funcs maps FullName to the declaration for every module function.
	Funcs map[string]*FuncInfo
	// FuncNames is the deterministic iteration order over Funcs.
	FuncNames []string
}

// BuildGraph constructs the call graph over all loaded module packages.
func BuildGraph(pkgs []*Package, modPath string) *Graph {
	// Concrete (non-interface) named types, for interface-call resolution.
	var concrete []types.Type
	for _, p := range pkgs {
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if !types.IsInterface(tn.Type()) {
				concrete = append(concrete, tn.Type())
			}
		}
	}

	// implementers resolves an interface method to the matching concrete
	// methods in the module.
	implementers := func(iface *types.Interface, name string, pkg *types.Package) []*types.Func {
		var out []*types.Func
		for _, t := range concrete {
			pt := types.NewPointer(t)
			if !types.Implements(t, iface) && !types.Implements(pt, iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(pt, true, pkg, name)
			if fn, ok := obj.(*types.Func); ok {
				out = append(out, fn)
			}
		}
		return out
	}

	g := &Graph{
		Edges: make(map[string][]CallEdge),
		Funcs: make(map[string]*FuncInfo),
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				caller, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				from := caller.FullName()
				g.Funcs[from] = &FuncInfo{Fn: caller, Decl: fd, Pkg: p}
				g.FuncNames = append(g.FuncNames, from)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					fn := calleeFunc(p.Info, call)
					if fn == nil {
						return true
					}
					// Origin names a method of an instantiated generic type by its
					// declaration, so the edge lands on the body in Funcs.
					g.Edges[from] = append(g.Edges[from], CallEdge{Caller: from, Callee: fn.Origin().FullName(), Pos: call.Pos()})
					if recv := recvOf(fn); recv != nil {
						if iface, ok := recv.Underlying().(*types.Interface); ok {
							for _, impl := range implementers(iface, fn.Name(), fn.Pkg()) {
								g.Edges[from] = append(g.Edges[from], CallEdge{Caller: from, Callee: impl.FullName(), Pos: call.Pos()})
							}
						}
					}
					return true
				})
			}
		}
	}
	sort.Strings(g.FuncNames)
	return g
}

// ReachingTo computes the reverse closure of the given sinks: every function
// from which a sink is reachable through the static call graph.
func (g *Graph) ReachingTo(sinks map[string]bool) map[string]bool {
	rev := make(map[string][]string)
	for _, edges := range g.Edges {
		for _, e := range edges {
			rev[e.Callee] = append(rev[e.Callee], e.Caller)
		}
	}
	reach := make(map[string]bool)
	var queue []string
	for s := range sinks {
		reach[s] = true
		queue = append(queue, s)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, caller := range rev[cur] {
			if !reach[caller] {
				reach[caller] = true
				queue = append(queue, caller)
			}
		}
	}
	return reach
}

// BuildReach computes, over all loaded module packages, the set of functions
// (keyed by types.Func.FullName) from which an event-queue or trace sink is
// reachable through the static call graph.
func BuildReach(pkgs []*Package, modPath string) map[string]bool {
	return BuildGraph(pkgs, modPath).ReachingTo(sinkNames(modPath))
}

// calleeFunc resolves the statically-known callee of a call expression.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// recvOf returns the receiver type of a method, nil for plain functions.
func recvOf(fn *types.Func) types.Type {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// sinkTable is the one list of sinks, spelled relative to the module path,
// and each entry says which analyzer reads it. An ordered entry is a call
// whose invocation order is simulation state: scheduling on the event queue
// or handing to a shard mailbox (every fabric-link delivery, serializer
// completion and pause frame is one of the Arg/Pri forms or, across a shard
// boundary, a hand-off; an elided completion reserves its place in the order
// and fills it later), (re)arming timers, and appending to the trace ring.
// maporder forbids map iteration in any function that reaches one. A
// category makes the call an ndtaint sink. The two columns are not the same
// set: only maporder reads Ticker.Start and Network.Inject, and only ndtaint
// reads the report, JSONL and FIB builders.
var sinkTable = []struct {
	recv     string // "(*internal/sim.Engine)" for methods, "internal/exp" for functions
	names    []string
	ordered  bool
	category string
}{
	{"(*internal/sim.Engine)", []string{"At", "AtArg", "AtPri", "AtArgPri", "AtTurn", "Reserve", "Schedule", "ScheduleArg"}, true, "event scheduling"},
	{"(*internal/sim.ShardGroup)", []string{"Post", "Hand"}, true, "event scheduling"},
	{"(*internal/sim.Timer)", []string{"Reset"}, true, "event scheduling"},
	{"(*internal/sim.Ticker)", []string{"Start"}, true, ""},
	{"(*internal/fabric.Network)", []string{"Inject"}, true, ""},
	{"(*internal/trace.Tracer)", []string{"Record", "RecordPacket", "RecordFault"}, true, "trace recording"},
	{"internal/exp", []string{"NewReport"}, false, "report JSON encoding"},
	{"(*internal/exp.Report)", []string{"JSON", "WriteFile"}, false, "report JSON encoding"},
	{"internal/obs", []string{"NewDump", "WriteJSONL"}, false, "trace JSONL export"},
	{"internal/route", []string{"recompute"}, false, "FIB construction"},
	{"(*internal/route.Plane)", []string{"reconcile"}, false, "FIB construction"},
}

// sinks returns the sinkTable entries one analyzer reads, keyed by
// types.Func.FullName: the ordered ones for maporder, the categorized ones
// (with their category) for ndtaint.
func sinks(modPath string, ordered bool) map[string]string {
	m := make(map[string]string)
	for _, s := range sinkTable {
		if (ordered && !s.ordered) || (!ordered && s.category == "") {
			continue
		}
		prefix := modPath + "/" + s.recv + "."
		if rest, ok := strings.CutPrefix(s.recv, "(*"); ok {
			prefix = "(*" + modPath + "/" + rest + "."
		}
		for _, n := range s.names {
			m[prefix+n] = s.category
		}
	}
	return m
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

// walk is the result of search: every node reached, in visiting order, and
// for each node first reached through an edge, that edge and its source.
type walk[N comparable, E any] struct {
	seen   map[N]bool
	order  []N
	parent map[N]hop[N, E]
}

type hop[N comparable, E any] struct {
	from N
	edge E
}

// search is the one breadth-first search of the suite: from roots it follows
// out and to, visits each node once, and records the edge that first reached
// it. The map-order reach set, both hot sets and the taint solver all walk
// through it.
func search[N comparable, E any](roots []N, out func(N) []E, to func(E) N) *walk[N, E] {
	w := &walk[N, E]{seen: make(map[N]bool), parent: make(map[N]hop[N, E])}
	for _, r := range roots {
		if !w.seen[r] {
			w.seen[r] = true
			w.order = append(w.order, r)
		}
	}
	for i := 0; i < len(w.order); i++ {
		cur := w.order[i]
		for _, e := range out(cur) {
			if n := to(e); !w.seen[n] {
				w.seen[n] = true
				w.parent[n] = hop[N, E]{from: cur, edge: e}
				w.order = append(w.order, n)
			}
		}
	}
	return w
}

// calls searches the call graph forward from roots, entering only the
// callees keep accepts.
func (g *Graph) calls(roots []string, keep func(fn string) bool) *walk[string, CallEdge] {
	out := func(fn string) []CallEdge {
		var kept []CallEdge
		for _, e := range g.Edges[fn] {
			if keep(e.Callee) {
				kept = append(kept, e)
			}
		}
		return kept
	}
	return search(roots, out, func(e CallEdge) string { return e.Callee })
}

// path rebuilds the chain that reached n: the root it started from and the
// edges taken, root first.
func (w *walk[N, E]) path(n N) (root N, edges []E) {
	for {
		h, ok := w.parent[n]
		if !ok {
			slices.Reverse(edges)
			return n, edges
		}
		edges = append(edges, h.edge)
		n = h.from
	}
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

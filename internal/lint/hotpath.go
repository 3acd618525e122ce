package lint

// torPipelineMethods are the fabric.TorPipeline methods — the per-packet and
// per-event entry points of the middleware — matched by method name on any
// receiver: the middleware contract is the interface, not one concrete type.
// hotpath seeds from all of them. hotalloc seeds from the per-packet ones
// (true): link events are rare-path, and only per-packet work is held to the
// zero-alloc bar.
var torPipelineMethods = map[string]bool{
	"SelectUplink":      true,
	"OnDeliverToHost":   true,
	"FilterHostControl": true,
	"LinkStateChanged":  false,
}

// Hotpath flags full-map iteration in the middleware's packet hot path: any
// function reachable (through same-package call edges) from a
// fabric.TorPipeline method body. A map range there is O(registered flows)
// work per packet — the class of bug that turned OnDeliverToHost into a 92 µs
// call at 8k flows. Scoped to internal/core (see inScope). A loop that is
// deliberately O(n) — and not on the per-packet path, e.g. pull-based stats —
// may carry a `//lint:hotpath-ok` annotation on the `for` line or the line
// directly above it.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "forbid map iteration reachable from fabric.TorPipeline hot-path methods",
	Run:  runHotpath,
}

func runHotpath(pass *Pass) []Diagnostic {
	g := pass.Prog.Graph
	var roots []string
	for _, name := range g.FuncNames {
		fi := g.Funcs[name]
		if _, entry := torPipelineMethods[fi.Fn.Name()]; entry && fi.Pkg == pass.Pkg && fi.Decl.Recv != nil {
			roots = append(roots, name)
		}
	}
	// Closures count toward their enclosing declaration, as everywhere in the
	// call graph: a callback built on the hot path still runs per packet.
	hot := g.calls(roots, func(fn string) bool {
		fi := g.Funcs[fn]
		return fi != nil && fi.Pkg == pass.Pkg
	})
	return mapRanges(pass, "hotpath", "hotpath-ok", hot.seen,
		", which is reachable from a TorPipeline hot-path method; this is O(flows) per packet — keep incremental state instead or annotate //lint:hotpath-ok")
}

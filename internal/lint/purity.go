package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Purity bans concurrency inside the deterministic core: `go` statements,
// channel operations (send, receive, close, make(chan), range-over-channel),
// `select`, and any use of sync / sync/atomic in the purityScope subtrees
// (sim, fabric, rnic, core, route, lb, cc, exp). The simulator's determinism
// contract — and the planned sharded space-parallel engine, which wants a
// provably goroutine-free single-shard core — rests on the event loop being
// the only scheduler. The one sanctioned exception is the exp.Runner seed-
// sweep worker pool, allowlisted by name; anything else needs a justified
// `//lint:purity-ok` escape.
var Purity = &Analyzer{
	Name: "purity",
	Doc:  "forbid goroutines, channels, select and sync primitives in the deterministic core",
	Run:  runPurity,
}

// purityAllowed returns whether the function may use concurrency primitives.
// Exactly two parallel constructs are sanctioned, both allowlisted by exact
// symbol name:
//
//   - exp.Runner.Run — the seed-sweep worker pool: trials never share
//     mutable state and the output slice is index-addressed, so the report
//     stays independent of scheduling.
//   - sim.ShardGroup.Run — the space-parallel shard coordinator: every
//     goroutine, atomic and barrier lives lexically inside this one method
//     (the analyzer skips whole function declarations, so that lexical
//     containment is load-bearing), shards own disjoint state during an
//     epoch — mail is posted into one bank and drained from the other — and
//     cross-shard mail drains in a deterministic (source, post) order.
func purityAllowed(fn *types.Func, modPath string) bool {
	if fn == nil {
		return false
	}
	name := fn.FullName()
	return name == "("+modPath+"/internal/exp.Runner).Run" ||
		name == "(*"+modPath+"/internal/exp.Runner).Run" ||
		name == "("+modPath+"/internal/sim.ShardGroup).Run" ||
		name == "(*"+modPath+"/internal/sim.ShardGroup).Run"
}

func runPurity(pass *Pass) []Diagnostic {
	var diags []Diagnostic
	report := func(pos token.Pos, what string) {
		if pass.Prog.escaped(pos, "purity-ok") {
			return
		}
		diags = append(diags, Diagnostic{
			Pos:  pass.Fset.Position(pos),
			Rule: "purity",
			Message: what + " in the deterministic core; the event loop is the only scheduler" +
				" (sharding assumes a goroutine-free single-shard engine) — justify with //lint:purity-ok if truly unavoidable",
		})
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if fn, _ := pass.Pkg.Info.Defs[fd.Name].(*types.Func); purityAllowed(fn, pass.Prog.ModPath) {
					continue
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch e := n.(type) {
				case *ast.GoStmt:
					report(e.Pos(), "go statement")
				case *ast.SendStmt:
					report(e.Arrow, "channel send")
				case *ast.UnaryExpr:
					if e.Op == token.ARROW {
						report(e.OpPos, "channel receive")
					}
				case *ast.SelectStmt:
					report(e.Select, "select statement")
				case *ast.RangeStmt:
					if tv, ok := pass.Pkg.Info.Types[e.X]; ok {
						if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
							report(e.For, "range over channel")
						}
					}
				case *ast.CallExpr:
					if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
						if b, ok := pass.Pkg.Info.Uses[id].(*types.Builtin); ok {
							if b.Name() == "close" {
								report(e.Pos(), "close on channel")
							}
							if b.Name() == "make" && len(e.Args) > 0 {
								if tv, ok := pass.Pkg.Info.Types[e.Args[0]]; ok {
									if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
										report(e.Pos(), "make(chan)")
									}
								}
							}
						}
					}
				case *ast.SelectorExpr:
					if id, ok := e.X.(*ast.Ident); ok {
						if pn, ok := pass.Pkg.Info.Uses[id].(*types.PkgName); ok {
							switch pn.Imported().Path() {
							case "sync", "sync/atomic":
								report(e.Pos(), pn.Imported().Name()+"."+e.Sel.Name)
							}
						}
					}
				}
				return true
			})
		}
	}
	return diags
}

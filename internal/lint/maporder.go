package lint

import (
	"go/ast"
	"go/types"
)

// MapOrder flags `range` over a map inside any function from which an
// event-queue or trace sink is reachable. Go randomizes map iteration order,
// so such a loop feeds nondeterminism straight into the simulation schedule.
// A loop whose body is verified commutative (e.g. deleting independent stale
// entries) may carry a `//lint:ordered` annotation on the `for` line or the
// line directly above it.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "forbid map iteration in functions that reach the event queue or trace ring",
	Run:  runMapOrder,
}

func runMapOrder(pass *Pass) []Diagnostic {
	return mapRanges(pass, "maporder", "ordered", pass.Prog.Reach(),
		", which reaches the event queue or trace ring; iterate sorted keys or annotate //lint:ordered")
}

// mapRanges is the map-range rule maporder and hotpath share: every `range`
// over a map in a function of the pass package that selected holds is a
// finding, unless the loop carries //lint:<directive>. The message names the
// function, then says why.
func mapRanges(pass *Pass, rule, directive string, selected map[string]bool, why string) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok || !selected[fn.FullName()] {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if ok && isMap(pass.Pkg.Info, rs.X) && !pass.Prog.escaped(rs.For, directive) {
					diags = append(diags, Diagnostic{
						Pos:     pass.Fset.Position(rs.For),
						Rule:    rule,
						Message: "map iteration in " + fn.Name() + why,
					})
				}
				return true
			})
		}
	}
	return diags
}

// isMap reports whether the expression has a map type.
func isMap(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	_, m := tv.Type.Underlying().(*types.Map)
	return m
}

package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Escapes audits the suite's escape hatches. Every `//lint:*` directive —
// `//lint:ordered`, `//lint:hotpath-ok`, `//lint:purity-ok`,
// `//lint:alloc-ok`, `//lint:taint-ok` — suppresses a real analyzer, so each
// must carry a justification after the directive recording what was reviewed
// and why the suppression is sound. A bare escape is itself a finding, and an
// unknown directive (a typo silently suppressing nothing) is too.
// `themis-lint -escapes` lists every active escape with its location.
var Escapes = &Analyzer{
	Name: "escapes",
	Doc:  "require a justification on every //lint:* escape directive",
	Run:  runEscapes,
}

// knownDirectives are the escape markers honored by the suite, and the only
// ones escaped will match.
var knownDirectives = map[string]bool{
	"ordered":    true,
	"hotpath-ok": true,
	"purity-ok":  true,
	"alloc-ok":   true,
	"taint-ok":   true,
}

func runEscapes(pass *Pass) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pass.Pkg.Files {
		directives(f, func(c *ast.Comment, directive, just string) {
			if !knownDirectives[directive] {
				diags = append(diags, Diagnostic{
					Pos:     pass.Fset.Position(c.Pos()),
					Rule:    "escapes",
					Message: fmt.Sprintf("unknown lint directive //lint:%s suppresses nothing — known directives: %s", directive, knownDirectiveList()),
				})
			} else if just == "" {
				diags = append(diags, Diagnostic{
					Pos:     pass.Fset.Position(c.Pos()),
					Rule:    "escapes",
					Message: fmt.Sprintf("bare //lint:%s escape without justification — state what was reviewed and why the suppression is sound", directive),
				})
			}
		})
	}
	return diags
}

// srcLine is one line of one source file.
type srcLine struct {
	file string
	line int
}

// escape is one known directive comment.
type escape struct {
	directive string
	pos       token.Pos
}

// escaped is the one suppression rule of every analyzer: a finding at pos is
// suppressed by a //lint:<directive> comment on its line or the line directly
// above. Only comments parseDirective accepts count, so prose that mentions a
// marker, or a longer directive that starts with one, suppresses nothing —
// the same comments the escapes audit and -escapes see. Each escape applied
// is recorded in prog.honored.
func (prog *Program) escaped(pos token.Pos, directive string) bool {
	if prog.escapes == nil {
		prog.escapes = make(map[srcLine]escape)
		prog.honored = make(map[token.Pos]bool)
		for _, p := range prog.Pkgs {
			for _, f := range p.Files {
				directives(f, func(c *ast.Comment, directive, _ string) {
					if knownDirectives[directive] {
						at := prog.Fset.Position(c.Pos())
						prog.escapes[srcLine{at.Filename, at.Line}] = escape{directive, c.Pos()}
					}
				})
			}
		}
	}
	at := prog.Fset.Position(pos)
	for _, line := range []int{at.Line, at.Line - 1} {
		if e, ok := prog.escapes[srcLine{at.Filename, line}]; ok && e.directive == directive {
			prog.honored[e.pos] = true
			return true
		}
	}
	return false
}

// directives calls visit for every `//lint:` directive comment in f.
func directives(f *ast.File, visit func(c *ast.Comment, directive, justification string)) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if directive, just, ok := parseDirective(c.Text); ok {
				visit(c, directive, just)
			}
		}
	}
}

// parseDirective recognizes `//lint:<directive> <justification>` comments.
// The directive must follow `//` immediately (prose mentioning a directive
// after a space is not a directive).
func parseDirective(text string) (directive, justification string, ok bool) {
	rest, found := strings.CutPrefix(text, "//lint:")
	if !found {
		return "", "", false
	}
	directive = rest
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		directive = rest[:i]
		justification = strings.TrimSpace(rest[i+1:])
	}
	// Strip decorative separators so `//lint:ordered — reason` and
	// `//lint:ordered: reason` both count the reason, but `//lint:ordered —`
	// does not.
	justification = strings.TrimLeft(justification, "—–-: \t")
	justification = strings.TrimSpace(justification)
	return directive, justification, directive != ""
}

func knownDirectiveList() string {
	names := make([]string, 0, len(knownDirectives))
	for n := range knownDirectives {
		names = append(names, n)
	}
	sort.Strings(names)
	return "lint:" + strings.Join(names, ", lint:")
}

// ActiveEscape is one escape directive with its resolved location, for the
// `themis-lint -escapes` inventory.
type ActiveEscape struct {
	File          string `json:"file"`
	Line          int    `json:"line"`
	Directive     string `json:"directive"`
	Justification string `json:"justification"`
}

// ListEscapes loads the packages matched by patterns and returns every
// active escape directive, in file/line order.
func ListEscapes(modRoot string, patterns []string) ([]ActiveEscape, error) {
	ldr, targets, err := load(modRoot, patterns)
	if err != nil {
		return nil, err
	}
	return activeEscapes(ldr.Fset, ldr.ModPath, targets), nil
}

// activeEscapes lists the known directives in the pkgs the escapes audit
// covers.
func activeEscapes(fset *token.FileSet, modPath string, pkgs []*Package) []ActiveEscape {
	var out []ActiveEscape
	for _, p := range pkgs {
		rel, ok := relPkgPath(modPath, p.Path)
		if !ok || !inScope(Escapes, rel) {
			continue
		}
		for _, f := range p.Files {
			directives(f, func(c *ast.Comment, directive, just string) {
				if knownDirectives[directive] {
					pos := fset.Position(c.Pos())
					out = append(out, ActiveEscape{File: pos.Filename, Line: pos.Line, Directive: directive, Justification: just})
				}
			})
		}
	}
	return out
}

// Package lint is themis-lint: a stdlib-only static-analysis suite that
// enforces the two properties the whole repo rests on — bit-for-bit
// deterministic simulation and the paper's protocol invariants.
//
// The suite has two tiers. Five site analyzers flag single constructs:
//
//   - no-wallclock / no-global-rand: simulation packages must not read the
//     wall clock (time.Now, time.Since, ...) or the process-global math/rand
//     source; virtual time comes from sim.Engine and randomness from the
//     seeded *rand.Rand threaded through the scenario seed.
//
//   - map-order: `range` over a map inside any function that (transitively,
//     through the module call graph) schedules simulation events or appends
//     to the trace ring is flagged — Go randomizes map iteration order, so
//     such a loop feeds nondeterminism straight into the event queue.
//
//   - psn-compare: direct `<` `>` `<=` `>=` between packet.PSN operands is
//     wrong near the 24-bit wrap point; use the serial-number-safe
//     Before/After/Diff helpers.
//
//   - time-units: untyped integer literals added to or subtracted from
//     sim.Time / sim.Duration values are raw picoseconds in disguise; scale
//     a unit constant instead (e.g. 5*sim.Microsecond).
//
//   - escapes: every `//lint:*` escape directive must carry a justification
//     after the directive; a bare escape is itself a finding.
//
// Four dataflow analyzers prove the determinism contract interprocedurally,
// reporting full source→sink paths:
//
//   - nd-taint: values originating at nondeterministic sources (map range
//     order, multi-case select, unseeded math/rand, sync.Map.Range,
//     pointer→uintptr, time.Now) are tracked along the call graph into
//     determinism sinks (event scheduling, trace recording, report JSON,
//     JSONL export, FIB construction).
//
//   - purity: the deterministic core (sim, fabric, rnic, core, route, lb,
//     cc, exp) must stay free of goroutines, channels, select and sync
//     primitives, so sharding can assume a goroutine-free single-shard
//     engine; exp.Runner's worker pool is the one allowlisted exception.
//
//   - hotpath: map iteration in any internal/core function reachable from a
//     fabric.TorPipeline method body is O(registered flows) work per packet.
//
//   - hot-alloc: allocation sites (composite literals, make/new, closures,
//     escaping append, interface boxing) reachable from the pinned zero-alloc
//     paths (engine schedule, fabric forward, TorPipeline, counters) turn the
//     AllocsPerRun benchmark guarantees into compile-time findings.
//
// The families share their machinery: one call graph (Program.Graph), one
// breadth-first search with parent edges (search), one sink table
// (sinkTable), one map-range rule (mapRanges, for map-order and hotpath) and
// one suppression rule (Program.escaped) over the directives the escapes
// audit parses.
//
// The driver (cmd/themis-lint) exits non-zero on findings so the suite gates
// `make verify`; it also emits SARIF for CI annotation (-sarif) and lists
// active escape hatches with -escapes. Analyzers are built on go/parser +
// go/types only — no dependencies beyond the standard library.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Step is one hop of an interprocedural source→sink path.
type Step struct {
	Pos  token.Position
	Note string
}

// Diagnostic is one finding, carrying an exact source position and, for the
// dataflow analyzers, the source→sink path that produced it.
type Diagnostic struct {
	Pos     token.Position
	Rule    string // analyzer name
	Message string
	Path    []Step // source→sink chain, nil for site findings
}

// String renders the diagnostic in the conventional file:line:col form, with
// the source→sink path, if any, on indented continuation lines.
func (d Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
	for _, s := range d.Path {
		fmt.Fprintf(&b, "\n\t%s:%d: %s", s.Pos.Filename, s.Pos.Line, s.Note)
	}
	return b.String()
}

// Pass is the per-package unit of analyzer work.
type Pass struct {
	Fset *token.FileSet
	Pkg  *Package
	// Prog is the whole-module context shared by the interprocedural
	// analyzers; they compute module-wide results once, memoized on Prog, and
	// filter diagnostics down to Pkg.
	Prog *Program
}

// Analyzer is one rule family.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) []Diagnostic
}

// Analyzers is the full suite, in reporting order.
var Analyzers = []*Analyzer{Wallclock, MapOrder, PSNCompare, TimeUnits, Hotpath, NDTaint, Purity, HotAlloc, Escapes}

// Program is the whole-module analysis context: every loaded package plus the
// call graph over them, with memoized module-wide analysis results so a run
// over N target packages does the interprocedural work once, not N times.
type Program struct {
	ModPath string
	Fset    *token.FileSet
	Pkgs    []*Package
	Graph   *Graph

	reach          map[string]bool
	hot            *walk[string, CallEdge]
	taintDiags     map[string][]Diagnostic // keyed by package path
	taintSinkCalls map[string][]token.Pos  // sink category -> call sites seen
	allocDiags     map[string][]Diagnostic
	escapes        map[srcLine]escape // every known directive, by its line
	honored        map[token.Pos]bool // the directives escaped has applied
}

// NewProgram builds the shared context over all loaded module packages.
func NewProgram(fset *token.FileSet, pkgs []*Package, modPath string) *Program {
	return &Program{
		ModPath: modPath,
		Fset:    fset,
		Pkgs:    pkgs,
		Graph:   BuildGraph(pkgs, modPath),
	}
}

// Reach memoizes the reverse closure of the ordered sinks: every function
// from which one is reachable through the static call graph.
func (prog *Program) Reach() map[string]bool {
	if prog.reach == nil {
		callers := make(map[string][]string)
		for _, edges := range prog.Graph.Edges {
			for _, e := range edges {
				callers[e.Callee] = append(callers[e.Callee], e.Caller)
			}
		}
		prog.reach = search(sortedKeys(sinks(prog.ModPath, true)),
			func(fn string) []string { return callers[fn] },
			func(caller string) string { return caller }).seen
	}
	return prog.reach
}

// Run loads every package matched by patterns (relative to modRoot), runs the
// suite with its per-analyzer package scoping, and returns the findings
// sorted by position. Patterns are directories or `dir/...` wildcards, as the
// go tool spells them; `testdata` trees are always skipped.
func Run(modRoot string, patterns []string) ([]Diagnostic, error) {
	ldr, targets, err := load(modRoot, patterns)
	if err != nil {
		return nil, err
	}
	return NewProgram(ldr.Fset, ldr.Packages(), ldr.ModPath).lint(targets), nil
}

// load parses and type-checks every package matched by patterns; the loader
// also holds their module-internal dependencies.
func load(modRoot string, patterns []string) (*Loader, []*Package, error) {
	ldr, err := NewLoader(modRoot)
	if err != nil {
		return nil, nil, err
	}
	dirs, err := expandPatterns(modRoot, patterns)
	if err != nil {
		return nil, nil, err
	}
	var targets []*Package
	for _, dir := range dirs {
		p, err := ldr.LoadDir(dir)
		if err != nil {
			return nil, nil, fmt.Errorf("lint: loading %s: %w", dir, err)
		}
		targets = append(targets, p)
	}
	return ldr, targets, nil
}

// lint runs every analyzer in scope over the target packages and returns the
// findings sorted by position.
func (prog *Program) lint(targets []*Package) []Diagnostic {
	var diags []Diagnostic
	for _, p := range targets {
		rel, ok := relPkgPath(prog.ModPath, p.Path)
		if !ok {
			continue
		}
		for _, a := range Analyzers {
			if inScope(a, rel) {
				diags = append(diags, a.Run(&Pass{Fset: prog.Fset, Pkg: p, Prog: prog})...)
			}
		}
	}
	SortDiagnostics(diags)
	return diags
}

// SortDiagnostics orders findings by position, then rule, for stable output.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

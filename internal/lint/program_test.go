package lint

import (
	"go/types"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// realPatterns are the packages the vacuity guards analyze.
var realPatterns = []string{"internal/...", "cmd/..."}

// realProg loads the real module (internal/... and cmd/...) exactly once for
// all vacuity-guard tests: the interprocedural results are memoized on the
// Program, so every guard reads the same analysis the production Run sees.
var realProg = sync.OnceValues(func() (*Program, error) {
	modRoot, err := filepath.Abs("../..")
	if err != nil {
		return nil, err
	}
	ldr, _, err := load(modRoot, realPatterns)
	if err != nil {
		return nil, err
	}
	return NewProgram(ldr.Fset, ldr.Packages(), ldr.ModPath), nil
})

// TestTaintSinksNonVacuous pins every nd-taint sink category to at least one
// real call site in the module. A sink table entry that matches nothing —
// because the sink was renamed, moved, or never existed — silently turns the
// taint analyzer into a no-op for that category; this guard makes such rot a
// test failure instead.
func TestTaintSinksNonVacuous(t *testing.T) {
	prog, err := realProg()
	if err != nil {
		t.Fatal(err)
	}
	calls := prog.TaintSinkCalls()
	for _, category := range []string{
		"event scheduling",
		"trace recording",
		"report JSON encoding",
		"trace JSONL export",
		"FIB construction",
	} {
		sites := calls[category]
		real := 0
		for _, pos := range sites {
			file := prog.Fset.Position(pos).Filename
			if !strings.Contains(file, "testdata") {
				real++
			}
		}
		if real == 0 {
			t.Errorf("taint sink category %q has no call site outside testdata — the analyzer checks nothing for it", category)
		}
	}
}

// TestHotSetSpansRealPackages pins the hot-alloc root set to the packages the
// pinned zero-alloc benchmarks actually live in: the 18 ns schedule path
// (internal/sim) and the 852 ns forward path (internal/fabric + internal/core
// + internal/lb). If a root is renamed away, the hot set collapses to fixtures
// only and this guard fails before the analyzer can rot into vacuity.
func TestHotSetSpansRealPackages(t *testing.T) {
	prog, err := realProg()
	if err != nil {
		t.Fatal(err)
	}
	hot := prog.HotFunctions()
	for _, pkg := range []string{
		"/internal/sim.",
		"/internal/fabric.",
		"/internal/core.",
		"/internal/lb.",
	} {
		found := false
		for _, fn := range hot {
			if strings.Contains(fn, pkg) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("hot set contains no function from %s — a pinned zero-alloc root no longer resolves there", strings.Trim(pkg, "/."))
		}
	}
	// The timing-wheel pop path and the fabric burst drain are pinned by
	// name: Run/AdvanceTo must drag the wheel internals into the hot set, and
	// the outQueue roots must resolve against the real receiver. The lb
	// selectors ride the lb.Selector interface fan-out from swInst.receive:
	// every concrete Select in the module is per-packet work on the forward
	// path, so the hot-alloc scan must reach the spraying arms — if the
	// congestion-aware or flowlet Select falls out, its //lint:alloc-ok
	// reviews guard nothing. If any of these vanish the corresponding root
	// has rotted into vacuity.
	for _, fn := range []string{
		"/internal/sim.wheel).pop",
		"/internal/sim.wheel).refill",
		"/internal/sim.wheel).cascade",
		"/internal/fabric.outQueue).txDone",
		"/internal/fabric.pipe).deliverBurst",
		"/internal/fabric.pipe).push",
		// Methods of the generic FIFO resolve by declaration (fifo[T]), not by
		// instantiation: lose this and the queues' append goes unscanned.
		"/internal/fabric.fifo[T]).push",
		"/internal/fabric.fifo[T]).pop",
		"/internal/lb.CongestionAware).Select",
		"/internal/lb.Flowlet).Select",
	} {
		found := false
		for _, h := range hot {
			if strings.Contains(h, fn) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("hot set lost %s — wheel/burst entry points are no longer pinned", fn)
		}
	}
}

// TestReachCoversFeedbackPaths pins the map-order/taint reach set over the
// ACK-feedback plane: the sender's ACK/NACK hooks drive retransmission and
// RTO re-arming (event-queue sinks), and the per-path DCQCN cut re-arms the
// α-decay timer. All three must sit in the reverse closure of the sinks —
// otherwise a map range added to the feedback path would feed Go's
// randomized iteration order into the event queue without a finding, and the
// map-order analyzer would be vacuous over the entropy-cache machinery.
func TestReachCoversFeedbackPaths(t *testing.T) {
	prog, err := realProg()
	if err != nil {
		t.Fatal(err)
	}
	reach := prog.Reach()
	for _, fn := range []string{
		"/internal/rnic.SenderQP).onAck",
		"/internal/rnic.SenderQP).onNack",
		"/internal/cc.DCQCN).OnCNPPath",
	} {
		found := false
		for name, ok := range reach {
			if ok && strings.Contains(name, fn) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("reach set lost %s — the map-order analyzer no longer covers the feedback path", fn)
		}
	}
}

// TestPurityScopeCoversArms proves the purity analyzer is non-vacuous over
// the LB arms and the congestion-control state: internal/lb and internal/cc
// are inside the purity scope, and the loaded module actually declares
// functions there — so a goroutine, channel, or mutex smuggled into REPS,
// CongestionAware, or PathAlpha is a lint finding, not a silent
// shard-determinism hazard.
func TestPurityScopeCoversArms(t *testing.T) {
	prog, err := realProg()
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"internal/lb", "internal/cc"} {
		if !inScope(Purity, rel) {
			t.Errorf("purity scope lost %s", rel)
		}
		n := 0
		for _, name := range prog.Graph.FuncNames {
			if strings.Contains(name, "/"+rel+".") {
				n++
			}
		}
		if n == 0 {
			t.Errorf("no %s functions loaded — the purity scope entry is vacuous", rel)
		}
	}
}

// TestPurityAllowlistMatches proves the purity allowlist is not vacuous:
// each sanctioned concurrency site — exp.Runner.Run, the seed-sweep worker
// pool, and sim.ShardGroup.Run, the space-parallel barrier coordinator — must
// actually be matched by purityAllowed against the real type object. A
// receiver-shape drift, a rename or a package move would otherwise re-flag the
// site, or leave the allowlist entry dead while the comments claim otherwise.
func TestPurityAllowlistMatches(t *testing.T) {
	prog, err := realProg()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, pkg, typ string }{
		{"Runner", "internal/exp", "Runner"},
		{"ShardGroup", "internal/sim", "ShardGroup"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var run *types.Func
			for _, p := range prog.Pkgs {
				if p.Path != prog.ModPath+"/"+c.pkg {
					continue
				}
				obj := p.Pkg.Scope().Lookup(c.typ)
				if obj == nil {
					t.Fatalf("%s no longer declares %s", c.pkg, c.typ)
				}
				named, ok := obj.Type().(*types.Named)
				if !ok {
					t.Fatalf("%s.%s is %T, not a named type", c.pkg, c.typ, obj.Type())
				}
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Name() == "Run" {
						run = m
					}
				}
			}
			if run == nil {
				t.Fatalf("%s.%s.Run not found — the purity allowlist has nothing to allow", c.pkg, c.typ)
			}
			if !purityAllowed(run, prog.ModPath) {
				t.Errorf("purityAllowed rejects the real %s — the sanctioned site would be flagged", run.FullName())
			}
		})
	}
}

// TestEveryEscapeIsHonored runs every analyzer over the real module and
// requires each escape of the -escapes inventory to have suppressed a
// finding. An escape that guards nothing claims a review for code that no
// longer needs one; delete it.
func TestEveryEscapeIsHonored(t *testing.T) {
	prog, err := realProg()
	if err != nil {
		t.Fatal(err)
	}
	prog.lint(prog.Pkgs)
	honored := make(map[srcLine]bool)
	for pos := range prog.honored {
		at := prog.Fset.Position(pos)
		honored[srcLine{at.Filename, at.Line}] = true
	}
	for _, e := range activeEscapes(prog.Fset, prog.ModPath, prog.Pkgs) {
		if !honored[srcLine{e.File, e.Line}] {
			t.Errorf("%s:%d: //lint:%s suppresses nothing", e.File, e.Line, e.Directive)
		}
	}
}

package lint

import (
	"go/types"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// realProg loads the real module (internal/... and cmd/...) exactly once for
// all vacuity-guard tests: the interprocedural results are memoized on the
// Program, so every guard reads the same analysis the production Run sees.
var realProg = sync.OnceValues(func() (*Program, error) {
	modRoot, err := filepath.Abs("../..")
	if err != nil {
		return nil, err
	}
	ldr, err := NewLoader(modRoot)
	if err != nil {
		return nil, err
	}
	dirs, err := expandPatterns(modRoot, []string{"internal/...", "cmd/..."})
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		if _, err := ldr.LoadDir(dir); err != nil {
			return nil, err
		}
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
		"/internal/fabric.outQueue).deliverBurst",
		"/internal/fabric.outQueue).pipePush",
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

// TestPurityAllowlistMatchesRunner proves the purity allowlist is not
// vacuous: the one sanctioned concurrency site, exp.Runner.Run, must actually
// be matched by purityAllowed against the real type object — a receiver-shape
// or package-move drift would otherwise re-flag the worker pool (or worse,
// allowlist nothing while the escape comments claim otherwise).
func TestPurityAllowlistMatchesRunner(t *testing.T) {
	prog, err := realProg()
	if err != nil {
		t.Fatal(err)
	}
	var run *types.Func
	for _, p := range prog.Pkgs {
		if p.Path != prog.ModPath+"/internal/exp" {
			continue
		}
		obj := p.Pkg.Scope().Lookup("Runner")
		if obj == nil {
			t.Fatal("internal/exp no longer declares Runner")
		}
		named, ok := obj.Type().(*types.Named)
		if !ok {
			t.Fatalf("exp.Runner is %T, not a named type", obj.Type())
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Name() == "Run" {
				run = m
			}
		}
	}
	if run == nil {
		t.Fatal("exp.Runner.Run not found — the purity allowlist has nothing to allow")
	}
	if !purityAllowed(run, prog.ModPath) {
		t.Errorf("purityAllowed rejects the real %s — the sanctioned worker pool would be flagged", run.FullName())
	}
}

// TestPurityAllowlistMatchesShardGroup is the same vacuity guard for the
// second sanctioned concurrency site, sim.ShardGroup.Run (the space-parallel
// barrier coordinator). If the symbol is renamed or moved, the allowlist
// entry goes dead and this test fails before the stale escape comment can
// mislead anyone.
func TestPurityAllowlistMatchesShardGroup(t *testing.T) {
	prog, err := realProg()
	if err != nil {
		t.Fatal(err)
	}
	var run *types.Func
	for _, p := range prog.Pkgs {
		if p.Path != prog.ModPath+"/internal/sim" {
			continue
		}
		obj := p.Pkg.Scope().Lookup("ShardGroup")
		if obj == nil {
			t.Fatal("internal/sim no longer declares ShardGroup")
		}
		named, ok := obj.Type().(*types.Named)
		if !ok {
			t.Fatalf("sim.ShardGroup is %T, not a named type", obj.Type())
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Name() == "Run" {
				run = m
			}
		}
	}
	if run == nil {
		t.Fatal("sim.ShardGroup.Run not found — the purity allowlist has nothing to allow")
	}
	if !purityAllowed(run, prog.ModPath) {
		t.Errorf("purityAllowed rejects the real %s — the sanctioned barrier coordinator would be flagged", run.FullName())
	}
}

// TestSuiteWallBudget keeps the full-suite wall time inside the CI budget:
// the suite runs on every verify, so a quadratic regression in the loader or
// the taint solver must fail loudly here rather than slowly rot the edit
// cycle. The 30 s ceiling is ~7x the current cost on the CI runner class.
func TestSuiteWallBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-budget guard is not meaningful under -short")
	}
	modRoot, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := Run(modRoot, []string{"internal/...", "cmd/..."}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("full lint suite took %v, over the 30s budget", elapsed)
	}
}

package chaos

import (
	"reflect"
	"testing"

	"themis/internal/core"
	"themis/internal/rnic"
	"themis/internal/sim"
	"themis/internal/topo"
	"themis/internal/trace"
	"themis/internal/workload"
)

func testTopo(t *testing.T) *topo.Topology {
	t.Helper()
	tp, err := topo.NewLeafSpine(topo.LeafSpineConfig{
		Leaves: 3, Spines: 3, HostsPerLeaf: 2,
		HostLink:   topo.LinkSpec{Bandwidth: 100e9, Delay: sim.Microsecond},
		FabricLink: topo.LinkSpec{Bandwidth: 100e9, Delay: sim.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// runSeed runs the scenario gen derives for seed through RunGenerated and
// returns that scenario beside the outcome, for failure messages.
func runSeed(t *testing.T, seed int64, gen func(int64, *topo.Topology) Scenario, opt Options) (Scenario, workload.Outcome) {
	t.Helper()
	var sc Scenario
	res, err := RunGenerated(seed, func(seed int64, tp *topo.Topology) Scenario {
		sc = gen(seed, tp)
		return sc
	}, opt)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return sc, res
}

func TestFaultKindStrings(t *testing.T) {
	names := map[workload.FaultKind]string{
		workload.LinkFlap: "link-flap", workload.DropRate: "drop-rate", workload.CorruptRate: "corrupt-rate",
		workload.CtrlLoss: "ctrl-loss", workload.TorReboot: "tor-reboot", workload.Blackhole: "blackhole",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d: got %q want %q", k, k.String(), want)
		}
	}
}

func TestGenerateDeterministicAndWellFormed(t *testing.T) {
	tp := testTopo(t)
	a := Generate(42, tp)
	b := Generate(42, tp)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different scenarios:\n%v\n%v", a, b)
	}
	for seed := int64(1); seed <= 200; seed++ {
		sc := Generate(seed, tp)
		if len(sc.Faults) < 1 || len(sc.Faults) > 3 {
			t.Fatalf("seed %d: %d faults", seed, len(sc.Faults))
		}
		for _, f := range sc.Faults {
			if f.At <= 0 || f.Duration <= 0 {
				t.Fatalf("seed %d: non-positive times in %v", seed, f)
			}
			switch f.Kind {
			case workload.TorReboot:
				if sw := tp.Switch(f.Sw); sw.Tier != 0 {
					t.Fatalf("seed %d: reboot targets non-ToR %v", seed, f)
				}
			case workload.CtrlLoss:
				if f.Rate <= 0 || f.Rate >= 0.05 {
					t.Fatalf("seed %d: ctrl-loss rate %v", seed, f.Rate)
				}
			default:
				if tp.Switch(f.Sw).Ports[f.Port].IsHostPort() {
					t.Fatalf("seed %d: fault targets host port %v", seed, f)
				}
			}
		}
	}
}

func TestScenarioString(t *testing.T) {
	sc := Scenario{Seed: 7, Faults: []workload.Fault{
		{Kind: workload.LinkFlap, At: sim.Microsecond, Duration: sim.Microsecond, Sw: 1, Port: 2},
		{Kind: workload.TorReboot, At: sim.Microsecond, Sw: 0},
	}}
	s := sc.String()
	for _, want := range []string{"seed 7", "link-flap", "sw1.2", "tor-reboot", "sw0"} {
		if !contains(s, want) {
			t.Fatalf("scenario string %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestRunScenarioNoFaultsBaseline(t *testing.T) {
	res, err := RunScenario(Scenario{Seed: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations on a fault-free run: %v", res.Violations)
	}
	if res.Sender.Completions == 0 {
		t.Fatal("no completions")
	}
}

func TestLinkFlapRecordsTraceAndRecovers(t *testing.T) {
	tr := trace.New(1 << 19)
	sc := Scenario{Seed: 3, Faults: []workload.Fault{
		{Kind: workload.LinkFlap, At: 20 * sim.Microsecond, Duration: 100 * sim.Microsecond, Sw: 0, Port: 2},
	}}
	res, err := RunScenario(sc, Options{ClusterConfig: workload.ClusterConfig{Tracer: tr}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if n := len(tr.ByOp(trace.FaultLinkDown)); n != 1 {
		t.Fatalf("fault-down events = %d", n)
	}
	if n := len(tr.ByOp(trace.FaultLinkUp)); n != 1 {
		t.Fatalf("fault-up events = %d", n)
	}
}

// The acceptance scenario: a ToR reboot mid-flow loses the Fig. 4a state.
// The hardened cluster (Relearn + RTO backoff) must complete every transfer
// and never permanently block a valid NACK — transfers finishing is the
// observable proof, relearns and the reboot counter pin down the mechanism.
func TestTorRebootRecovery(t *testing.T) {
	tr := trace.New(1 << 19)
	sc := Scenario{Seed: 11, Faults: []workload.Fault{
		// Reboot ToR 0 while its flows are mid-transfer, with concurrent
		// data loss so NACK traffic exercises the rebuilt state.
		{Kind: workload.TorReboot, At: 40 * sim.Microsecond, Sw: 0},
		{Kind: workload.DropRate, At: 10 * sim.Microsecond, Duration: 150 * sim.Microsecond, Sw: 0, Port: 2, Rate: 0.01},
	}}
	res, err := RunScenario(sc, Options{ClusterConfig: workload.ClusterConfig{Tracer: tr}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Middleware.Reboots != 1 {
		t.Fatalf("reboots = %d", res.Middleware.Reboots)
	}
	if res.Middleware.Relearns == 0 {
		t.Fatal("rebooted ToR never relearned its flows")
	}
	if n := len(tr.ByOp(trace.FaultReset)); n != 1 {
		t.Fatalf("fault-reset events = %d", n)
	}
}

func TestBlackholeDetectedAndRepaired(t *testing.T) {
	sc := Scenario{Seed: 5, Faults: []workload.Fault{
		{Kind: workload.Blackhole, At: 30 * sim.Microsecond, Duration: 120 * sim.Microsecond, Sw: 1, Port: 2},
	}}
	res, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	// The silent window must actually eat traffic; recovery then relies on
	// the sender's RTO backoff until detection fails the link over.
	if res.Net.DataDrops == 0 && res.Net.CtrlDrops == 0 {
		t.Fatal("blackhole dropped nothing")
	}
}

// DropEveryNData is a rule of the cluster's one loss hook, so a schedule that
// brings a rule of its own (seed 4: a drop-rate window; seed 6: a blackhole)
// composes with it just as a schedule with none does (seed 5: a lone reboot).
func TestDropEveryNComposesWithScheduleLossRules(t *testing.T) {
	for seed, wantRule := range map[int64]bool{4: true, 6: true, 5: false} {
		sc, base := runSeed(t, seed, Generate, Options{})
		hasRule := false
		for _, f := range sc.Faults {
			switch f.Kind {
			case workload.DropRate, workload.CorruptRate, workload.CtrlLoss, workload.Blackhole:
				hasRule = true
			}
		}
		if hasRule != wantRule {
			t.Fatalf("seed %d: schedule %v no longer fits the case it stands for", seed, sc)
		}
		knob, err := RunGenerated(seed, Generate, Options{ClusterConfig: workload.ClusterConfig{DropEveryNData: 50}})
		if err != nil {
			t.Fatal(err)
		}
		if knob.Net.DataDrops <= base.Net.DataDrops {
			t.Errorf("seed %d (%v): DropEveryNData ignored: %d data drops with the knob, %d without",
				seed, sc, knob.Net.DataDrops, base.Net.DataDrops)
		}
		if len(knob.Violations) != 0 {
			t.Errorf("seed %d: violations under periodic loss: %v", seed, knob.Violations)
		}
	}
}

func TestCtrlLossScenarioCompletes(t *testing.T) {
	sc := Scenario{Seed: 9, Faults: []workload.Fault{
		{Kind: workload.CtrlLoss, At: 10 * sim.Microsecond, Duration: 200 * sim.Microsecond, Sw: -1, Port: -1, Rate: 0.02},
	}}
	res, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Net.CtrlDrops == 0 {
		t.Fatal("no control packets dropped")
	}
}

func TestRunScenarioDeterministic(t *testing.T) {
	tp := testTopo(t)
	sc := Generate(17, tp)
	a, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.CCTMillis != b.CCTMillis || a.Sender != b.Sender || a.Middleware != b.Middleware || a.Net != b.Net {
		t.Fatalf("same scenario, different runs:\n%+v\n%+v", a, b)
	}
}

// TestChaosSoak is the tentpole acceptance gate: ≥50 seeded scenarios, every
// invariant holds on each. A failing seed prints its full scenario — rerun
// RunScenario(Generate(seed, topo), Options{}) to reproduce deterministically.
func TestChaosSoak(t *testing.T) {
	const seeds = 50
	faulted := 0
	for seed := int64(1); seed <= seeds; seed++ {
		sc, res := runSeed(t, seed, Generate, Options{})
		if len(res.Violations) != 0 {
			t.Errorf("%v\n  violations: %v", sc, res.Violations)
		}
		if res.Net.DataDrops+res.Net.CtrlDrops+res.Net.LinkDrops > 0 ||
			res.Middleware.Reboots > 0 || res.Sender.Timeouts > 0 {
			faulted++
		}
	}
	// The soak is vacuous if the schedules never actually hurt anything.
	if faulted < seeds/2 {
		t.Fatalf("only %d/%d scenarios caused observable damage", faulted, seeds)
	}
}

// TestHarnessPins: the hardened harness overrides exactly the knobs
// BuildCluster documents — a caller cannot soften the transport or arm the
// §6 fallback — and passes every other ClusterConfig knob through.
func TestHarnessPins(t *testing.T) {
	in := workload.ClusterConfig{
		Seed: 9, LB: workload.Flowlet, Transport: rnic.GoBackN, BurstBytes: 9000,
		TI: 10 * sim.Microsecond, RTO: sim.Second, RTOBackoff: 1,
		Themis: core.Config{FallbackOnFailure: true, DisableCompensation: true},
	}
	got := Options{ClusterConfig: in}.cluster(3)
	want := in
	want.Seed, want.LB = 3, workload.Themis
	want.Leaves, want.Spines, want.HostsPerLeaf, want.Bandwidth = 3, 3, 2, 100e9
	want.LossyControl, want.RTO, want.RTOBackoff, want.RTOMax = true, 200*sim.Microsecond, 2, 10*sim.Millisecond
	want.Themis = core.Config{Relearn: true, TableBudgetBytes: got.Themis.TableBudgetBytes}
	if !reflect.DeepEqual(got, want) || got.Themis.TableBudgetBytes <= 0 {
		t.Fatalf("harness pins drifted:\n got  %+v\n want %+v", got, want)
	}
	if armed := (Options{ClusterConfig: in, Shape: workload.Shape{LBArmed: true}}).cluster(3); armed.LB != workload.Flowlet {
		t.Fatalf("LBArmed arm = %v, want flowlet", armed.LB)
	}
}

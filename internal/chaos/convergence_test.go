package chaos

import (
	"reflect"
	"testing"

	"themis/internal/sim"
	"themis/internal/workload"
)

func TestConvergenceFaultKindStrings(t *testing.T) {
	names := map[workload.FaultKind]string{
		workload.FlapStorm: "flap-storm", workload.UplinkLoss: "uplink-loss", workload.Drain: "drain",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d: got %q want %q", k, k.String(), want)
		}
	}
}

func TestGenerateConvergenceDeterministicAndWellFormed(t *testing.T) {
	tp := testTopo(t)
	a := GenerateConvergence(42, tp)
	b := GenerateConvergence(42, tp)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different scenarios:\n%v\n%v", a, b)
	}
	sawRouting := false
	for seed := int64(1); seed <= 200; seed++ {
		sc := GenerateConvergence(seed, tp)
		if len(sc.Faults) < 1 || len(sc.Faults) > 3 {
			t.Fatalf("seed %d: %d faults", seed, len(sc.Faults))
		}
		for _, f := range sc.Faults {
			if f.At <= 0 || f.Duration <= 0 {
				t.Fatalf("seed %d: non-positive times in %v", seed, f)
			}
			switch f.Kind {
			case workload.FlapStorm, workload.UplinkLoss, workload.Drain:
				sawRouting = true
			}
			switch f.Kind {
			case workload.TorReboot, workload.UplinkLoss:
				if sw := tp.Switch(f.Sw); sw.Tier != 0 {
					t.Fatalf("seed %d: %v targets non-ToR", seed, f)
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
	if !sawRouting {
		t.Fatal("200 seeds never drew a routing stressor")
	}
}

func TestDrainFaultTargetsUplink(t *testing.T) {
	tp := testTopo(t)
	f := DrainFault(tp)
	if f.Kind != workload.Drain {
		t.Fatalf("kind = %v", f.Kind)
	}
	if tp.Switch(f.Sw).Tier != 0 {
		t.Fatalf("drain targets non-ToR sw %d", f.Sw)
	}
	if tp.Switch(f.Sw).Ports[f.Port].IsHostPort() {
		t.Fatalf("drain targets host port %d.%d", f.Sw, f.Port)
	}
}

// A maintenance drain under the distributed plane must degrade gracefully:
// routing withdraws the link, traffic shifts away, the physical drop and
// repair follow, and every invariant (including the new routing ones —
// converged FIBs, zero steady-state loop drops, no outstanding drains)
// holds at drain time.
func TestDrainScenarioGraceful(t *testing.T) {
	tp := testTopo(t)
	sc := Scenario{Seed: 21, Faults: []workload.Fault{DrainFault(tp)}}
	res, err := RunScenario(sc, Options{
		ClusterConfig: workload.ClusterConfig{DistributedRouting: true, ConvergenceDelay: 10 * sim.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Sender.Completions == 0 {
		t.Fatal("no completions")
	}
}

// A flap storm with a slow control plane is the worst case for stale FIBs:
// each cycle restarts convergence before the last settles. The run may drop
// packets in the reconvergence windows (that is the point) but must still
// complete every transfer and end converged with zero post-quiescence loop
// drops.
func TestFlapStormSlowConvergenceRecovers(t *testing.T) {
	sc := Scenario{Seed: 23, Faults: []workload.Fault{
		{Kind: workload.FlapStorm, At: 20 * sim.Microsecond, Duration: 120 * sim.Microsecond, Sw: 0, Port: 2},
	}}
	res, err := RunScenario(sc, Options{
		ClusterConfig: workload.ClusterConfig{DistributedRouting: true, ConvergenceDelay: 25 * sim.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
}

func TestUplinkLossShrinksThenRecovers(t *testing.T) {
	sc := Scenario{Seed: 29, Faults: []workload.Fault{
		{Kind: workload.UplinkLoss, At: 30 * sim.Microsecond, Duration: 100 * sim.Microsecond, Sw: 1},
	}}
	res, err := RunScenario(sc, Options{
		ClusterConfig: workload.ClusterConfig{DistributedRouting: true, ConvergenceDelay: 10 * sim.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
}

// Delay-0 distributed is the oracle: same fault schedules, same traffic,
// identical results down to every counter and the engine event count —
// reflect.DeepEqual over the whole Outcome, not a tolerance.
func TestDelayZeroDistributedIdenticalToOracle(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		tp := testTopo(t)
		sc := Generate(seed, tp)
		oracle, err := RunScenario(sc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		dist, err := RunScenario(sc, Options{ClusterConfig: workload.ClusterConfig{DistributedRouting: true}})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(oracle, dist) {
			t.Fatalf("seed %d: delay-0 distributed diverged from oracle:\noracle: %+v\ndist:   %+v", seed, oracle, dist)
		}
	}
}

func goodputGbps(res workload.Outcome) float64 {
	sec := res.CCTMillis / 1e3
	if sec <= 0 {
		return 0
	}
	return float64(res.Sender.GoodputBytes) * 8 / sec / 1e9
}

// TestConvergenceSoak is the PR's acceptance gate: 50 seeded routing-focused
// scenarios (flap storms, pod-uplink loss, maintenance drains, plus reboots
// and control loss) against the distributed plane with a deliberately slow
// 20 us per-hop delay. Every invariant — including converged FIBs and zero
// post-quiescence loop drops — must hold on every seed, and per-seed goodput
// must stay within a floor of the oracle baseline running the exact same
// schedules: reconvergence windows may hurt, but never wedge.
func TestConvergenceSoak(t *testing.T) {
	const seeds = 50
	opt := Options{
		ClusterConfig: workload.ClusterConfig{DistributedRouting: true, ConvergenceDelay: 20 * sim.Microsecond},
	}
	faulted := 0
	for seed := int64(1); seed <= seeds; seed++ {
		sc, res := runSeed(t, seed, GenerateConvergence, opt)
		_, oracle := runSeed(t, seed, GenerateConvergence, Options{})
		if len(res.Violations) != 0 {
			t.Errorf("%v\n  violations: %v", sc, res.Violations)
		}
		if len(oracle.Violations) != 0 {
			t.Errorf("oracle %v\n  violations: %v", sc, oracle.Violations)
		}
		if res.Net.DataDrops+res.Net.CtrlDrops+res.Net.LinkDrops+res.Net.LoopDrops > 0 ||
			res.Middleware.Reboots > 0 || res.Sender.Timeouts > 0 {
			faulted++
		}
		// Goodput floor, stated as its reciprocal: the transfers are fixed
		// size, so bounding completion time bounds goodput. A reconvergence
		// window costs recovery time in units of the RTO backoff (capped at
		// 10 ms) while the oracle loses nothing, so tens of ms of slip is
		// legitimate; 200 ms (≈0.5 Gbps aggregate over 12 MB) means flows
		// are leaking packets steadily, and the 2 s horizon means a wedge.
		if res.CCTMillis > oracle.CCTMillis+200 {
			t.Errorf("%v\n  end %.3fms exceeds oracle %.3fms by more than 200ms (goodput %.2f vs %.2f Gbps)",
				sc, res.CCTMillis, oracle.CCTMillis, goodputGbps(res), goodputGbps(oracle))
		}
	}
	// The soak is vacuous if the schedules never actually hurt anything.
	if faulted < seeds/2 {
		t.Fatalf("only %d/%d scenarios caused observable damage", faulted, seeds)
	}
}

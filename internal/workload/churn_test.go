package workload

import (
	"reflect"
	"testing"

	"themis/internal/core"
	"themis/internal/memmodel"
	"themis/internal/sim"
	"themis/internal/trace"
)

// dstEntryBytes is the §4 cost of one Themis-D entry on the default cluster
// topology (100 Gbps, 1 us hops): 20 B of flow state + a 25-entry PSN ring.
const dstEntryBytes = memmodel.FlowTableEntryBytes + 25*memmodel.QueueEntryBytes

// TestOverlappingFailureWithFallbackLatches is the regression test for the
// latch-clobber bug: the cluster-wide monitoring disable (FailLink →
// SetDisabled) and the §6 per-ToR link reaction (FallbackOnFailure →
// LinkStateChanged) used to share one boolean, so repairing a ToR-adjacent
// link re-enabled that ToR even while an unrelated failure elsewhere still
// required the whole fabric to stay on ECMP.
func TestOverlappingFailureWithFallbackLatches(t *testing.T) {
	cl, err := BuildCluster(ClusterConfig{
		Seed: 1, Leaves: 2, Spines: 4, HostsPerLeaf: 2, Bandwidth: 100e9,
		LB:        Themis,
		ThemisCfg: core.Config{FallbackOnFailure: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	tor0, tor1 := cl.Themis[0], cl.Themis[1]
	// Fault A is adjacent to ToR 0, fault B to ToR 1 (ports 0..1 are hosts,
	// 2.. are uplinks). Each trips both latches on its ToR: the cluster-wide
	// admin disable plus the ToR's own FallbackOnFailure reaction.
	cl.FailLink(0, 2)
	cl.FailLink(1, 2)
	if tor0.DownPorts() != 1 || tor1.DownPorts() != 1 {
		t.Fatalf("downPorts = %d,%d, want 1,1", tor0.DownPorts(), tor1.DownPorts())
	}
	// Repair A. ToR 0's link reaction clears (its ports are healthy again)
	// but fault B is still outstanding, so the admin latch must keep every
	// instance — including ToR 0 — disabled. With a single shared boolean the
	// link-up event clobbered the cluster-wide latch here.
	cl.RepairLink(0, 2)
	if tor0.DownPorts() != 0 {
		t.Fatalf("tor0 downPorts = %d after repair, want 0", tor0.DownPorts())
	}
	for id, th := range cl.Themis {
		if !th.Disabled() {
			t.Fatalf("sw %d re-enabled while fault B is outstanding", id)
		}
	}
	done := false
	cl.Conn(0, 2).Send(500_000, func() { done = true })
	cl.Run(sim.Second)
	if !done {
		t.Fatal("transfer incomplete under the remaining failure")
	}
	// Repair B: the admin latch clears everywhere and ToR 1's link reaction
	// clears with the up event — nothing may remain disabled.
	cl.RepairLink(1, 2)
	for id, th := range cl.Themis {
		if th.Disabled() {
			t.Fatalf("sw %d still disabled after the last repair", id)
		}
	}
}

// TestChurnUnboundedCompletes is the baseline arm: no budget, no faults —
// every flow completes, nothing is ever evicted or rejected.
func TestChurnUnboundedCompletes(t *testing.T) {
	res, err := RunChurn(ChurnConfig{
		ClusterConfig: ClusterConfig{Seed: 1, LB: Themis, ThemisCfg: core.Config{Relearn: true}},
		QPs:           60, Concurrency: 12, MessageBytes: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Completed != 60 || res.Opened != 60 {
		t.Fatalf("completed %d opened %d, want 60/60", res.Completed, res.Opened)
	}
	if res.Middleware.Evictions != 0 || res.Middleware.TableFull != 0 {
		t.Fatalf("unbounded run evicted: %+v", res.Middleware)
	}
	if res.Middleware.Unregistered == 0 {
		t.Fatal("CloseFlow never unregistered anything")
	}
	if res.GoodputGbps <= 0 {
		t.Fatalf("goodput = %v", res.GoodputGbps)
	}
}

// TestChurnBudgetedDegradesGracefully is the tentpole acceptance check at
// workload level: with SRAM for roughly 1/10 of the offered QPs, occupancy
// never exceeds the budget, flows that lose (or never get) an entry fall back
// to ECMP, and every transfer still completes.
func TestChurnBudgetedDegradesGracefully(t *testing.T) {
	budget := 6 * dstEntryBytes // 60 QPs offered, table fits ~6 dst entries
	res, err := RunChurn(ChurnConfig{
		ClusterConfig: ClusterConfig{
			Seed: 1, LB: Themis,
			ThemisCfg: core.Config{Relearn: true, TableBudgetBytes: budget},
		},
		QPs: 60, Concurrency: 12, MessageBytes: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Completed != 60 {
		t.Fatalf("completed %d/60 under budget pressure", res.Completed)
	}
	if res.TableBytesPeak > budget {
		t.Fatalf("peak occupancy %d B exceeds budget %d B", res.TableBytesPeak, budget)
	}
	// Non-vacuity: the budget must actually have displaced flows.
	if res.Middleware.Evictions == 0 && res.Middleware.TableFull == 0 {
		t.Fatalf("budget %d B never bit: %+v", budget, res.Middleware)
	}
	if res.TableBudgetBytes != budget {
		t.Fatalf("result echoes budget %d, want %d", res.TableBudgetBytes, budget)
	}
}

// TestChurnDeterministic: same seed, same config → byte-identical results.
func TestChurnDeterministic(t *testing.T) {
	cfg := ChurnConfig{
		ClusterConfig: ClusterConfig{
			Seed: 3, LB: Themis,
			ThemisCfg: core.Config{Relearn: true, FallbackOnFailure: true, TableBudgetBytes: 4 * dstEntryBytes},
		},
		QPs: 40, Concurrency: 8, MessageBytes: 32 << 10, Faults: true,
	}
	a, err := RunChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
}

// TestChurnFaultSchedule pins the churn fault mix to the draws the private
// scheduler it replaced made (recorded from scheduleChurnFaults at b68edb8 on
// the default 3×3×2 fabric): reboot, reboot, then one flap of a ToR uplink.
func TestChurnFaultSchedule(t *testing.T) {
	us := sim.Microsecond
	want := map[int64][]Fault{
		1: {
			{Kind: TorReboot, Sw: 1, At: 87 * us},
			{Kind: TorReboot, Sw: 1, At: 128 * us},
			{Kind: LinkFlap, Sw: 1, Port: 4, At: 97 * us, Duration: 87 * us},
		},
		2: {
			{Kind: TorReboot, Sw: 2, At: 94 * us},
			{Kind: TorReboot, Sw: 1, At: 144 * us},
			{Kind: LinkFlap, Sw: 1, Port: 4, At: 68 * us, Duration: 93 * us},
		},
		3: {
			{Kind: TorReboot, Sw: 1, At: 72 * us},
			{Kind: TorReboot, Sw: 0, At: 159 * us},
			{Kind: LinkFlap, Sw: 0, Port: 4, At: 91 * us, Duration: 123 * us},
		},
	}
	var cfg ChurnConfig
	cfg.resolve()
	tp, err := cfg.topology()
	if err != nil {
		t.Fatal(err)
	}
	for seed, w := range want {
		if got := churnFaults(seed, tp); !reflect.DeepEqual(got, w) {
			t.Errorf("seed %d:\n got  %v\n want %v", seed, got, w)
		}
	}
}

// TestChurnFaultsReachTheTrace: the churn flap goes through Cluster.FailLink /
// RepairLink like every injected fault, so a traced run (and hence a flight
// dump) shows it.
func TestChurnFaultsReachTheTrace(t *testing.T) {
	tr := trace.New(1 << 18)
	res, err := RunChurn(ChurnConfig{
		ClusterConfig: ClusterConfig{Seed: 1, LB: Themis, Tracer: tr, ThemisCfg: core.Config{Relearn: true}},
		QPs:           24, Concurrency: 8, MessageBytes: 32 << 10, Faults: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if down, up := len(tr.ByOp(trace.FaultLinkDown)), len(tr.ByOp(trace.FaultLinkUp)); down != 1 || up != 1 {
		t.Fatalf("fault-down/up events = %d/%d, want 1/1", down, up)
	}
}

// TestChurnSoak mixes flow churn with seeded ToR reboots and link flaps over
// 50 seeds, under a budget sized for 1/10 of the offered QPs. Two budgeted
// arms run per seed — relearn on (eviction means a one-packet relearn churn)
// and relearn off (eviction means a permanent fall back to ECMP, the arm that
// exercises conservative NACK forwarding) — plus an unbounded baseline. Every
// arm must hold all lifecycle invariants (occupancy ≤ budget, blocked-NACK
// conservation — i.e. evicted/unknown-QP NACKs are forwarded, never blocked —
// and armed compensations drain), and each budgeted arm's mean goodput must
// stay within 15% of the unbounded baseline.
func TestChurnSoak(t *testing.T) {
	const seeds = 50
	base := ChurnConfig{
		QPs: 120, Concurrency: 24, MessageBytes: 64 << 10, Faults: true,
		// The burst pacer is what turns spraying into OOO arrivals and hence
		// NACK traffic (rnic.Config.BurstBytes); without it the soak's NACK
		// invariants are near-vacuous.
		ClusterConfig: ClusterConfig{BurstBytes: 9000, LB: Themis, LossyControl: true},
	}
	budget := 12 * dstEntryBytes // table for 1/10 of the offered QPs
	arms := []struct {
		name string
		cfg  core.Config
	}{
		{"budgeted-relearn", core.Config{Relearn: true, FallbackOnFailure: true, TableBudgetBytes: budget}},
		{"budgeted-ecmp", core.Config{FallbackOnFailure: true, TableBudgetBytes: budget}},
		{"unbounded", core.Config{Relearn: true, FallbackOnFailure: true}},
	}
	goodput := make([]float64, len(arms))
	evictions, forwarded := uint64(0), uint64(0)
	for seed := int64(1); seed <= seeds; seed++ {
		for i, arm := range arms {
			cfg := base
			cfg.Seed = seed
			cfg.ThemisCfg = arm.cfg
			res, err := RunChurn(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Violations) != 0 {
				t.Errorf("seed %d %s: violations %v", seed, arm.name, res.Violations)
			}
			goodput[i] += res.GoodputGbps
			if arm.cfg.TableBudgetBytes > 0 {
				evictions += res.Middleware.Evictions
				forwarded += res.Middleware.UnknownNacksForwarded
			}
		}
	}
	// The soak is vacuous unless the budget displaced real state and the
	// degraded flows actually exercised the forward-don't-block path.
	if evictions == 0 {
		t.Fatal("soak never evicted a flow")
	}
	if forwarded == 0 {
		t.Fatal("soak never forwarded a NACK for an evicted/unknown QP")
	}
	for i, arm := range arms[:2] {
		if goodput[i] < 0.85*goodput[2] {
			t.Fatalf("%s mean goodput %.2f Gbps below 85%% of unbounded %.2f Gbps",
				arm.name, goodput[i]/seeds, goodput[2]/seeds)
		}
	}
}

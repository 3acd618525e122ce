package chaos

import (
	"themis/internal/core"
	"themis/internal/memmodel"
	"themis/internal/packet"
	"themis/internal/sim"
	"themis/internal/topo"
	"themis/internal/workload"
)

// Options parameterizes the scenario harness: its ClusterConfig carries every
// fabric, LB, NIC and CC knob, BuildCluster overriding the ones the hardened
// harness pins, and of its Shape the harness reads Flows (cross-rack ring
// flows), MessageBytes (per flow), Horizon (the wall guard) and LBArmed
// (without it the harness runs its default arm, Themis). The defaults
// (withDefaults) are a small cross-rack workload on a 3×3 leaf-spine — big
// enough for every fault kind to matter, small enough that a 50-seed soak
// stays cheap.
type Options workload.Config

func (o Options) withDefaults() Options {
	if o.Leaves == 0 {
		o.Leaves = 3
	}
	if o.Spines == 0 {
		o.Spines = 3
	}
	if o.HostsPerLeaf == 0 {
		o.HostsPerLeaf = 2
	}
	if o.Bandwidth == 0 {
		o.Bandwidth = 100e9
	}
	if o.Flows == 0 {
		o.Flows = o.Leaves * o.HostsPerLeaf
	}
	if o.MessageBytes == 0 {
		// Large enough that the 10–160 us fault window lands mid-flow.
		o.MessageBytes = 2 << 20
	}
	if o.Horizon == 0 {
		o.Horizon = 2 * sim.Second
	}
	return o
}

// BuildCluster assembles the hardened cluster the harness runs scenarios
// against: Themis with lazy state relearning, exponential RTO backoff on the
// NICs, a lossy control class so control-plane faults are injectable, and a
// finite (but roomy: 4 entries per flow) §4 flow-table budget so the soak
// exercises real SRAM accounting — the budget invariant is meaningful, while
// the steady workload itself never deserves an eviction.
// Exported so the benchmarks run exactly what the soak tests run.
func BuildCluster(sc Scenario, opt Options) (*workload.Cluster, error) {
	return workload.BuildCluster(opt.cluster(sc.Seed))
}

// cluster returns o's cluster config with the defaults and the harness pins
// applied, whatever o says:
//   - Seed: the scenario's;
//   - LB: Themis unless LBArmed;
//   - LossyControl, RTO, RTOBackoff, RTOMax: the hardened transport;
//   - Themis: relearn on, the derived budget, nothing else (in particular
//     never FallbackOnFailure — the soak exercises Themis through failures).
func (o Options) cluster(seed int64) workload.ClusterConfig {
	o = o.withDefaults()
	cfg := o.ClusterConfig
	cfg.Seed = seed
	if !o.LBArmed {
		cfg.LB = workload.Themis
	}
	cfg.LossyControl = true
	cfg.RTO, cfg.RTOBackoff, cfg.RTOMax = 200*sim.Microsecond, 2, 10*sim.Millisecond
	cfg.Themis = core.Config{
		Relearn: true,
		TableBudgetBytes: core.TableBudget(memmodel.Params{
			Bandwidth: cfg.Bandwidth,
			RTTLast:   2 * sim.Microsecond, // two 1 us last-hop links
			MTU:       1500,
			Factor:    1.5,
		}, 4*o.Flows),
	}
	return cfg
}

// RunScenario executes one scenario: build the hardened cluster, start a
// cross-rack ring of transfers under the scenario's faults, run to the
// horizon, drain and audit the invariants (Cluster.Audit). The same
// (scenario, options) pair always produces the same Outcome; CCTMillis is the
// last transfer's completion, and empty Violations means every invariant held
// — a transfer the horizon cut is one ("N transfers never completed").
func RunScenario(sc Scenario, opt Options) (workload.Outcome, error) {
	return RunGenerated(sc.Seed, func(int64, *topo.Topology) Scenario { return sc }, opt)
}

// RunGenerated is RunScenario for a fault schedule that depends on the
// topology (Generate, GenerateConvergence): the cluster for seed is built
// once, gen derives the scenario from its topology, and that same cluster
// runs it.
func RunGenerated(seed int64, gen func(int64, *topo.Topology) Scenario, opt Options) (workload.Outcome, error) {
	opt = opt.withDefaults()
	cl, err := workload.BuildCluster(opt.cluster(seed))
	if err != nil {
		return workload.Outcome{}, err
	}
	// Cross-rack ring: host i sends to the same-index host of the next leaf,
	// so every flow traverses the fabric and every ToR plays both roles.
	nHosts := cl.Topo.NumHosts()
	ts := make([]workload.Transfer, opt.Flows)
	for i := range ts {
		ts[i] = workload.Transfer{
			Src:   packet.NodeID(i % nHosts),
			Dst:   packet.NodeID((i + opt.HostsPerLeaf) % nHosts),
			Bytes: opt.MessageBytes,
		}
	}
	c := cl.Drive(gen(seed, cl.Topo).Faults, ts, opt.Horizon)
	res := cl.Outcome(c.Last())
	res.Violations = cl.Audit(c.Unfinished)
	return res, nil
}

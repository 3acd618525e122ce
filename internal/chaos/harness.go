package chaos

import (
	"fmt"

	"themis/internal/core"
	"themis/internal/memmodel"
	"themis/internal/obs"
	"themis/internal/packet"
	"themis/internal/sim"
	"themis/internal/topo"
	"themis/internal/workload"
)

// Options parameterizes the scenario harness. The defaults are a small
// cross-rack workload on a 3×3 leaf-spine — big enough for every fault kind
// to matter, small enough that a 50-seed soak stays cheap.
type Options struct {
	// ClusterConfig carries every fabric, LB, NIC and CC knob; BuildCluster
	// overrides the ones the hardened harness pins. Defaults: a 3×3
	// leaf-spine, 2 hosts per leaf, 100 Gbps.
	workload.ClusterConfig

	Flows        int          // cross-rack ring flows (default one per host)
	MessageBytes int64        // per-flow transfer (default 2 MB)
	Horizon      sim.Duration // wall guard (default 2 s virtual)
	// LBSet marks LB as an explicit choice; without it the harness runs its
	// default arm (Themis) — workload.ECMP is the LBMode zero value, so a
	// flag is needed to ask for it.
	LBSet bool
	// FlightDir, if non-empty, arms a flight recorder: the run records into a
	// bounded ring (capacity FlightCapacity, default obs.DefaultFlightCapacity)
	// and, when any invariant is violated, dumps the retained window to
	// <FlightDir>/flight-seed<seed>.jsonl for `themis-sim inspect`. When
	// Tracer is also set it takes precedence and no recorder is created.
	FlightDir      string
	FlightCapacity int
}

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

// Result is the outcome of one scenario run: the full workload.Outcome
// (CCTMillis is End; empty Violations = all invariants held) plus the
// scenario it ran.
type Result struct {
	workload.Outcome
	Scenario Scenario
	End      sim.Time // drain time of the last event
	// FlightDump is the path of the flight-recorder dump written for a
	// violating run (empty when no recorder was armed or nothing tripped).
	FlightDump string
}

// BuildCluster assembles the hardened cluster the harness runs scenarios
// against: Themis with lazy state relearning, exponential RTO backoff on the
// NICs, a lossy control class so control-plane faults are injectable, and a
// finite (but roomy: 4 entries per flow) §4 flow-table budget so the soak
// exercises real SRAM accounting — the budget invariant is meaningful, while
// the steady workload itself never deserves an eviction.
// Exported so the CLI and benchmarks run exactly what the soak tests run.
func BuildCluster(sc Scenario, opt Options) (*workload.Cluster, error) {
	return workload.BuildCluster(opt.cluster(sc.Seed))
}

// cluster returns o's cluster config with the defaults and the harness pins
// applied, whatever o says:
//   - Seed: the scenario's;
//   - LB: Themis unless LBSet;
//   - LossyControl, RTO, RTOBackoff, RTOMax: the hardened transport;
//   - ThemisCfg: relearn on, the derived budget, nothing else (in particular
//     never FallbackOnFailure — the soak exercises Themis through failures).
func (o Options) cluster(seed int64) workload.ClusterConfig {
	o = o.withDefaults()
	cfg := o.ClusterConfig
	cfg.Seed = seed
	if !o.LBSet {
		cfg.LB = workload.Themis
	}
	cfg.LossyControl = true
	cfg.RTO, cfg.RTOBackoff, cfg.RTOMax = 200*sim.Microsecond, 2, 10*sim.Millisecond
	cfg.ThemisCfg = core.Config{
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

// RunScenario executes one scenario: build the hardened cluster, inject the
// faults, start a cross-rack ring of transfers, run to drain and audit the
// invariants (Cluster.Audit). The same (scenario, options) pair always
// produces the same Result.
func RunScenario(sc Scenario, opt Options) (*Result, error) {
	return RunGenerated(sc.Seed, func(int64, *topo.Topology) Scenario { return sc }, opt)
}

// RunGenerated is RunScenario for a fault schedule that depends on the
// topology (Generate, GenerateConvergence): the cluster for seed is built
// once, gen derives the scenario from its topology, and that same cluster
// runs it.
func RunGenerated(seed int64, gen func(int64, *topo.Topology) Scenario, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	var flight *obs.FlightRecorder
	if opt.FlightDir != "" && opt.Tracer == nil {
		flight = obs.NewFlightRecorder(opt.FlightDir, opt.FlightCapacity)
		opt.Tracer = flight.Tracer()
	}
	cl, err := workload.BuildCluster(opt.cluster(seed))
	if err != nil {
		return nil, err
	}
	sc := gen(seed, cl.Topo)
	cl.Inject(sc.Faults)

	// Cross-rack ring: host i sends to the same-index host of the next leaf,
	// so every flow traverses the fabric and every ToR plays both roles.
	nHosts := cl.Topo.NumHosts()
	remaining := opt.Flows
	for i := 0; i < opt.Flows; i++ {
		src := packet.NodeID(i % nHosts)
		dst := packet.NodeID((i + opt.HostsPerLeaf) % nHosts)
		cl.Conn(src, dst).Send(opt.MessageBytes, func() {
			remaining--
			if remaining == 0 {
				cl.Engine.Stop()
			}
		})
	}

	end := cl.Run(opt.Horizon)
	cl.Engine.RunAll()
	res := &Result{Outcome: cl.Outcome(end), Scenario: sc, End: end}
	res.Violations = cl.Audit(remaining)
	if len(res.Violations) > 0 && flight != nil {
		path, err := flight.Dump(fmt.Sprintf("seed%d", sc.Seed), sc.Seed, res.Violations)
		if err != nil {
			// Surface the dump failure next to the violations it documents;
			// never mask the original finding.
			res.Violations = append(res.Violations, obs.DumpError(err))
		} else {
			res.FlightDump = path
		}
	}
	return res, nil
}

// Soak runs the scenario gen derives for each seed in [first, first+count)
// and returns the results. gen is Generate, or GenerateConvergence for the
// routing-focused mix — run that one once with DistributedRouting and a
// non-zero ConvergenceDelay and once against the oracle to compare graceful
// degradation across reconvergence windows. Soak stops early only on harness
// errors (config bugs), never on invariant violations — those are reported
// per result so a sweep surfaces every bad seed at once.
func Soak(first int64, count int, opt Options, gen func(int64, *topo.Topology) Scenario) ([]*Result, error) {
	var out []*Result
	for i := 0; i < count; i++ {
		seed := first + int64(i)
		res, err := RunGenerated(seed, gen, opt)
		if err != nil {
			return out, fmt.Errorf("chaos: seed %d: %w", seed, err)
		}
		out = append(out, res)
	}
	return out, nil
}

package workload

import (
	"fmt"

	"themis/internal/packet"
	"themis/internal/sim"
)

// SprayConfig parameterizes the space-parallel permutation workload: every
// host on a K-ary fat-tree sends one message to the host half the cluster
// away (dst = (src + H/2) mod H), so all traffic crosses the core and every
// shard carries an equal slice. This is the one workload that cuts its
// cluster across several shards — the others have global drivers (collective
// round logic, the churn driver, chaos injectors, shared loss hooks) that
// cannot be cut without changing their timing.
type SprayConfig struct {
	// ClusterConfig carries the fabric, LB and NIC knobs. Defaults: a k=4
	// fat-tree at 100 Gbps.
	ClusterConfig

	// Shards is the number of space-parallel shards the racks are cut across
	// (default 1). An execution knob, not an experiment arm: the result is
	// byte-identical for every legal value — the determinism contract
	// TestSprayShardInvariance enforces.
	Shards       int
	MessageBytes int64        // per host (default 1 MB)
	Horizon      sim.Duration // default 30 s
}

// resolve applies the spray defaults in place. The runner pins nothing: what
// more than one shard cannot host (Tracer, DropEveryNData, DistributedRouting)
// is an error from buildCluster or fabric.NewShardedNetwork at Shards > 1 and
// runs at Shards 1. The topology is always a fat-tree, so
// Leaves/Spines/HostsPerLeaf are moot.
func (c *SprayConfig) resolve() {
	if c.FatTreeK == 0 {
		c.FatTreeK = 4
	}
	if c.Bandwidth == 0 {
		c.Bandwidth = 100e9
	}
	if c.MessageBytes == 0 {
		c.MessageBytes = 1 << 20
	}
	if c.Horizon == 0 {
		c.Horizon = 30 * sim.Second
	}
	c.ClusterConfig = c.ClusterConfig.withDefaults()
}

// SprayResult carries the permutation measurements. Its Outcome is the
// cluster record less what depends on the shard count: of the Engine block it
// keeps the two partition-invariant counters.
type SprayResult struct {
	Outcome
	CCT      sim.Time   // when the last message is acknowledged
	Complete []sim.Time // per-sender completion time, indexed by source host
	// MergedEngine is the merged event-loop counter block of all shard
	// engines. Its allocator counters (EventAllocs, EventReuses,
	// HeapHighWater) depend on how the event set is cut across shards, so
	// they stay out of Outcome and the determinism contract.
	MergedEngine sim.Metrics
	End          sim.Time
}

// RunSpray builds the partitioned fat-tree cluster and runs the permutation.
func RunSpray(cfg SprayConfig) (*SprayResult, error) {
	cfg.resolve()
	cl, err := buildCluster(cfg.ClusterConfig, cfg.Shards)
	if err != nil {
		return nil, err
	}
	hosts := cl.Topo.NumHosts()
	res := &SprayResult{Complete: make([]sim.Time, hosts)}
	for h := 0; h < hosts; h++ {
		src, dst := packet.NodeID(h), packet.NodeID((h+hosts/2)%hosts)
		// Each completion closure writes only its own slot on its own
		// shard's engine — no cross-shard state, so no coordination needed.
		eng, slot := cl.engines[cl.hostShard[h]], h
		cl.OpenFlow(src, dst).Send(cfg.MessageBytes, func() { res.Complete[slot] = eng.Now() })
	}

	res.End = cl.Run(cfg.Horizon)
	for h, at := range res.Complete {
		if at == 0 {
			return nil, fmt.Errorf("workload: spray incomplete: host %d unfinished at %v", h, res.End)
		}
		if at > res.CCT {
			res.CCT = at
		}
	}
	res.MergedEngine = cl.group.Metrics()
	res.Outcome = cl.Outcome(res.CCT)
	res.Engine = sim.Metrics{
		EventsExecuted:  res.MergedEngine.EventsExecuted,
		EventsCancelled: res.MergedEngine.EventsCancelled,
	}
	return res, nil
}

package workload

import (
	"themis/internal/packet"
	"themis/internal/sim"
)

// SprayConfig parameterizes the space-parallel permutation workload: every
// host on a K-ary fat-tree sends one message to the host half the cluster
// away (dst = (src + H/2) mod H), so all traffic crosses the core and every
// shard carries an equal slice. Like RunCollective it cuts its cluster across
// ClusterConfig.Shards engines: each transfer's completion slot is written on
// its sender's shard, so nothing is shared.
type SprayConfig struct {
	// ClusterConfig carries the fabric, LB and NIC knobs and the shard
	// count. Defaults: a k=4 fat-tree at 100 Gbps.
	ClusterConfig

	MessageBytes int64        // per host (default 1 MB)
	Horizon      sim.Duration // default 30 s
}

// resolve applies the spray defaults in place. The runner pins nothing: what
// more than one shard cannot host (ClusterConfig.ShardRefusal) is an error at
// Shards > 1 and runs on one shard at Shards 0 or 1. The topology is always a fat-tree, so
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

// SprayResult carries the permutation measurements.
type SprayResult struct {
	Outcome
	CCT      sim.Time   // when the last message is acknowledged
	Complete []sim.Time // per-sender completion time, indexed by source host
	End      sim.Time
}

// RunSpray builds the partitioned fat-tree cluster and runs the permutation.
func RunSpray(cfg SprayConfig) (SprayResult, error) {
	cfg.resolve()
	cl, err := buildCluster(cfg.ClusterConfig, nil)
	if err != nil {
		return SprayResult{}, err
	}
	hosts := cl.Topo.NumHosts()
	ts := make([]Transfer, hosts)
	for h := range ts {
		ts[h] = Transfer{Src: packet.NodeID(h), Dst: packet.NodeID((h + hosts/2) % hosts), Bytes: cfg.MessageBytes}
	}
	c := cl.Drive(nil, ts, cfg.Horizon)
	if err := c.Err("spray", "host"); err != nil {
		return SprayResult{}, err
	}
	res := SprayResult{CCT: c.Last(), Complete: c.At, End: c.End}
	res.Outcome = cl.Outcome(res.CCT)
	return res, nil
}

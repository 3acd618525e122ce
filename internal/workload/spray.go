package workload

import (
	"themis/internal/packet"
	"themis/internal/sim"
)

// resolveSpray applies the spray defaults in place: a k=4 fat-tree at
// 100 Gbps, 1 MB per host, a 30 s horizon. The runner pins nothing: what more
// than one shard cannot host (ClusterConfig.ShardRefusal) is an error at
// Shards > 1 and runs on one shard at Shards 0 or 1. The topology is always a
// fat-tree, so Leaves/Spines/HostsPerLeaf are moot.
func (c *Config) resolveSpray() {
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

// RunSpray runs the space-parallel permutation workload: every host on a
// K-ary fat-tree sends cfg.MessageBytes to the host half the cluster away
// (dst = (src + H/2) mod H), so all traffic crosses the core and every shard
// carries an equal slice. Like RunCollective it cuts its cluster across
// cfg.Shards engines: each transfer's completion slot is written on its
// sender's shard, so nothing is shared.
func RunSpray(cfg Config) (SprayResult, error) {
	cfg.resolveSpray()
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

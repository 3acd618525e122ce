package workload

import (
	"fmt"

	"themis/internal/collective"
	"themis/internal/packet"
	"themis/internal/sim"
)

// resolveCollective applies the Fig. 5 defaults in place — the paper's
// 16×16 leaf-spine with 16 hosts per leaf (256 NICs) at ClusterConfig's
// 400 Gbps, a 300 MB per-group collective (the paper's S), one group per host
// of a leaf (every NIC participates) and a 30 s horizon — and enforces the
// runner's pins:
//   - FatTreeK = 0: groups are "host g of every leaf", a leaf-spine layout.
func (c *Config) resolveCollective() {
	c.FatTreeK = 0
	if c.MessageBytes == 0 {
		c.MessageBytes = 300 << 20
	}
	if c.Leaves == 0 {
		c.Leaves = 16
	}
	if c.Spines == 0 {
		c.Spines = 16
	}
	if c.HostsPerLeaf == 0 {
		c.HostsPerLeaf = 16
	}
	if c.Groups == 0 {
		c.Groups = c.HostsPerLeaf
	}
	if c.Horizon == 0 {
		c.Horizon = 30 * sim.Second
	}
}

// CollectiveResult carries one Fig. 5 data point: the Outcome (CCTMillis is
// the tail CCT, all four counter blocks) plus the per-group times.
type CollectiveResult struct {
	Outcome
	// TailCCT is the completion time of the slowest group — the paper's
	// metric ("the training job's communication bottleneck").
	TailCCT sim.Time
	// GroupCCT is each group's completion time.
	GroupCCT []sim.Time
}

// GroupHosts returns the members of group g: host g of every leaf, i.e. one
// NIC per rack (§5's group construction).
func GroupHosts(leaves, hostsPerLeaf, g int) []packet.NodeID {
	hosts := make([]packet.NodeID, leaves)
	for l := 0; l < leaves; l++ {
		hosts[l] = packet.NodeID(l*hostsPerLeaf + g)
	}
	return hosts
}

// RunCollective executes one Fig. 5 cell — synchronized collective
// communication across groups that each span all racks — under cfg.LinkFail
// (nil for the paper's fault-free cells; §5.3's link failure is one
// LinkFlap): cfg.Groups groups, group g being host g of every leaf (so
// GroupSize == Leaves), all start cfg.Pattern over cfg.MessageBytes
// simultaneously; the result records per-group and tail CCT. The racks are
// cut across cfg.Shards engines: every rank is a completion slot written by
// the rank's own callbacks on its host's shard, so the cell runs to
// quiescence at any shard count without a global stop. A fault schedule
// reaches across the fabric, so it runs on one shard only
// (ClusterConfig.ShardRefusal).
func RunCollective(cfg Config) (CollectiveResult, error) {
	cfg.resolveCollective()
	if cfg.Groups > cfg.HostsPerLeaf {
		return CollectiveResult{}, fmt.Errorf("workload: %d groups need at most HostsPerLeaf=%d", cfg.Groups, cfg.HostsPerLeaf)
	}
	// A group has one rank per leaf: with one leaf it has nothing to exchange.
	if cfg.Leaves < 2 {
		return CollectiveResult{}, fmt.Errorf("workload: a collective needs Leaves >= 2 (one rank per leaf), got %d", cfg.Leaves)
	}
	cl, err := buildCluster(cfg.ClusterConfig, cfg.LinkFail)
	if err != nil {
		return CollectiveResult{}, err
	}
	// Rank r of group g is slot g*ranks+r.
	ranks := cfg.Leaves
	d := cl.newDriver(cfg.LinkFail, cfg.Groups*ranks)
	for g := 0; g < cfg.Groups; g++ {
		hosts := GroupHosts(cfg.Leaves, cfg.HostsPerLeaf, g)
		collective.RunRanks(cfg.Pattern, cl.Mesh(hosts), ranks, cfg.MessageBytes, func(r int) {
			d.finish(g*ranks+r, hosts[r])
		})
	}
	c := d.wait(cfg.Horizon)
	if err := c.Err(fmt.Sprintf("collective %v/%v", cfg.Pattern, cfg.LB), "rank"); err != nil {
		return CollectiveResult{}, err
	}
	res := CollectiveResult{TailCCT: c.Last(), GroupCCT: make([]sim.Time, cfg.Groups)}
	for g := range res.GroupCCT {
		res.GroupCCT[g] = maxTime(c.At[g*ranks : (g+1)*ranks])
	}
	res.Outcome = cl.Outcome(res.TailCCT)
	return res, nil
}

// DCQCNSetting is one (TI, TD) column of Fig. 5.
type DCQCNSetting struct {
	TI, TD sim.Duration
}

// PaperDCQCNSettings returns the five Fig. 5 configurations, in paper order:
// (900,4), (300,4), (10,4), (10,50), (10,200) microseconds.
func PaperDCQCNSettings() []DCQCNSetting {
	us := sim.Microsecond
	return []DCQCNSetting{
		{900 * us, 4 * us},
		{300 * us, 4 * us},
		{10 * us, 4 * us},
		{10 * us, 50 * us},
		{10 * us, 200 * us},
	}
}

// Fig5Arms returns the three compared systems, in paper order.
func Fig5Arms() []LBMode { return []LBMode{ECMP, Adaptive, Themis} }

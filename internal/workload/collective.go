package workload

import (
	"fmt"

	"themis/internal/collective"
	"themis/internal/packet"
	"themis/internal/sim"
)

// CollectiveConfig parameterizes the §5 evaluation (Fig. 5): synchronized
// collective communication across groups that each span all racks.
type CollectiveConfig struct {
	// ClusterConfig carries every fabric, LB, NIC and CC knob. The topology
	// defaults to the paper's 16×16 leaf-spine with 16 hosts per leaf
	// (256 NICs) at ClusterConfig's 400 Gbps.
	ClusterConfig

	Pattern collective.Pattern
	// MessageBytes is the per-group collective size S (paper: 300 MB).
	MessageBytes int64
	// Groups is the number of communication groups; group g consists of
	// host g of every leaf, so every group spans all racks and GroupSize ==
	// Leaves. Defaults to HostsPerLeaf (every NIC participates).
	Groups  int
	Horizon sim.Duration // simulation cap (default 30 s)
	// LinkFail, if non-nil, takes one switch port down mid-run (§5.3).
	LinkFail *LinkFault
}

// LinkFault declaratively describes a single link failure: switch Switch's
// port Port goes down at time At; a Repair after At brings it back up at that
// time (zero: never repaired). RunCollective lowers it to a one-fault
// schedule for Cluster.Inject and, unlike the fault-bearing soaks, runs no
// audit.
type LinkFault struct {
	Switch int          `json:"switch"`
	Port   int          `json:"port"`
	At     sim.Duration `json:"at"`
	Repair sim.Duration `json:"repair,omitempty"`
}

// resolve applies the collective defaults in place and enforces the
// runner's pins:
//   - FatTreeK = 0: groups are "host g of every leaf", a leaf-spine layout.
func (c *CollectiveConfig) resolve() {
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

// RunCollective executes one Fig. 5 cell: all groups start the same
// collective simultaneously; the result records per-group and tail CCT.
func RunCollective(cfg CollectiveConfig) (*CollectiveResult, error) {
	cfg.resolve()
	if cfg.Groups > cfg.HostsPerLeaf {
		return nil, fmt.Errorf("workload: %d groups need at most HostsPerLeaf=%d", cfg.Groups, cfg.HostsPerLeaf)
	}
	cl, err := BuildCluster(cfg.ClusterConfig)
	if err != nil {
		return nil, err
	}
	if f := cfg.LinkFail; f != nil {
		cl.Inject([]Fault{{Kind: LinkFlap, Sw: f.Switch, Port: f.Port, At: f.At, Duration: f.Repair - f.At}})
	}

	res := &CollectiveResult{GroupCCT: make([]sim.Time, cfg.Groups)}
	remaining := cfg.Groups
	for g := 0; g < cfg.Groups; g++ {
		g := g
		hosts := GroupHosts(cfg.Leaves, cfg.HostsPerLeaf, g)
		collective.Run(cfg.Pattern, cl.Mesh(hosts), len(hosts), cfg.MessageBytes, func() {
			res.GroupCCT[g] = cl.Engine.Now()
			remaining--
			if remaining == 0 {
				cl.Engine.Stop()
			}
		})
	}
	end := cl.Run(cfg.Horizon)
	cl.Engine.RunAll() // drain in-flight control traffic and timers

	if remaining != 0 {
		return nil, fmt.Errorf("workload: collective incomplete: %d groups unfinished at %v (pattern=%v lb=%v)", remaining, end, cfg.Pattern, cfg.LB)
	}
	res.TailCCT = maxTime(res.GroupCCT)
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

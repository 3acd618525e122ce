package workload

import (
	"themis/internal/packet"
	"themis/internal/sim"
)

// resolveIncast applies the incast defaults in place — 15 senders of 2 MB
// each at 100 Gbps, a 30 s horizon — and enforces the runner's pins:
//   - Leaves/Spines/HostsPerLeaf/FatTreeK: each sender sits alone on its own
//     rack (Senders+1 leaves and spines, one host each) so every flow crosses
//     the fabric.
func (c *Config) resolveIncast() {
	if c.Senders == 0 {
		c.Senders = 15
	}
	c.Leaves, c.Spines, c.HostsPerLeaf, c.FatTreeK = c.Senders+1, c.Senders+1, 1, 0
	if c.MessageBytes == 0 {
		c.MessageBytes = 2 << 20
	}
	if c.Bandwidth == 0 {
		c.Bandwidth = 100e9
	}
	if c.Horizon == 0 {
		c.Horizon = 30 * sim.Second
	}
}

// RunIncast is a many-to-one stress test: it places each of cfg.Senders
// senders on its own rack (Senders+1 leaves, one host each) so every flow
// crosses the fabric, then blasts cfg.MessageBytes from each at host 0. The
// record's GoodputGbps is the receiver's goodput over the completion time.
// Incast is not one of the paper's headline workloads but is the regime that
// stresses two substrate properties Themis relies on: PFC's losslessness
// (drops would turn every blocked NACK into a compensation or timeout) and
// the strict-priority control class (NACK return latency bounds the §3.3 ring
// sizing).
func RunIncast(cfg Config) (Outcome, error) {
	cfg.resolveIncast()
	cl, err := BuildCluster(cfg.ClusterConfig)
	if err != nil {
		return Outcome{}, err
	}
	ts := make([]Transfer, cfg.Senders)
	for i := range ts {
		ts[i] = Transfer{Src: packet.NodeID(i + 1), Dst: 0, Bytes: cfg.MessageBytes}
	}
	c := cl.Drive(nil, ts, cfg.Horizon)
	if err := c.Err("incast", "transfer"); err != nil {
		return Outcome{}, err
	}
	o := cl.Outcome(c.Last())
	o.GoodputGbps = float64(cfg.MessageBytes) * float64(cfg.Senders) * 8 / c.Last().Seconds() / 1e9
	return o, nil
}

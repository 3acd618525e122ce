package workload

import (
	"fmt"

	"themis/internal/packet"
	"themis/internal/sim"
)

// IncastConfig parameterizes a many-to-one stress test: every other host
// sends MessageBytes to host 0 simultaneously. Incast is not one of the
// paper's headline workloads but is the regime that stresses two substrate
// properties Themis relies on: PFC's losslessness (drops would turn every
// blocked NACK into a compensation or timeout) and the strict-priority
// control class (NACK return latency bounds the §3.3 ring sizing).
type IncastConfig struct {
	// ClusterConfig carries every fabric, LB, NIC and CC knob (the fabric
	// shape is pinned, see resolve). Bandwidth defaults to 100 Gbps.
	ClusterConfig

	Senders      int   // fan-in degree (default 15)
	MessageBytes int64 // per sender (default 2 MB)
	Horizon      sim.Duration
}

// resolve applies the incast defaults in place and enforces the runner's
// pins:
//   - Leaves/Spines/HostsPerLeaf/FatTreeK: each sender sits alone on its own
//     rack (Senders+1 leaves and spines, one host each) so every flow crosses
//     the fabric.
func (c *IncastConfig) resolve() {
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

// IncastResult carries the incast measurements. Its Outcome adds GoodputGbps
// (receiver goodput over the completion time) to the cluster record.
type IncastResult struct {
	Outcome
	CCT    sim.Time // when the last sender's message is acknowledged
	Pauses uint64   // PFC pause frames sent by the destination ToR
}

// RunIncast places each sender on its own rack (Senders+1 leaves, one host
// each) so every flow crosses the fabric, then blasts them all at host 0.
func RunIncast(cfg IncastConfig) (*IncastResult, error) {
	cfg.resolve()
	cl, err := BuildCluster(cfg.ClusterConfig)
	if err != nil {
		return nil, err
	}
	res := &IncastResult{}
	done := 0
	for h := 1; h <= cfg.Senders; h++ {
		cl.Conn(packet.NodeID(h), 0).Send(cfg.MessageBytes, func() {
			done++
			if cl.Engine.Now() > res.CCT {
				res.CCT = cl.Engine.Now()
			}
			if done == cfg.Senders {
				cl.Engine.Stop()
			}
		})
	}
	end := cl.Run(cfg.Horizon)
	cl.Engine.RunAll()
	if done != cfg.Senders {
		return nil, fmt.Errorf("workload: incast incomplete: %d/%d senders at %v", done, cfg.Senders, end)
	}
	res.Outcome = cl.Outcome(res.CCT)
	res.GoodputGbps = float64(cfg.MessageBytes) * float64(cfg.Senders) * 8 / res.CCT.Seconds() / 1e9
	res.Pauses, _ = cl.Net.PFCStats(cl.Topo.ToROf(0))
	return res, nil
}

package workload

import (
	"fmt"

	"themis/internal/packet"
	"themis/internal/sim"
	"themis/internal/stats"
)

// resolveMotivation applies the Fig. 1 defaults in place — the paper's
// 100 MB per flow, a 10 s horizon, and the classic DCQCN timers (TI 55 us
// fast-recovery timer, TD 50 us rate-reduce gate [41]): the Fig. 1c sawtooth
// (drops to ~50-90% with quick recovery, averaging ~86% of line rate)
// requires cuts to be rate-limited and recovery to be fast; Fig. 5
// separately sweeps these knobs. It enforces the runner's pins:
//   - Leaves/Spines/HostsPerLeaf/FatTreeK/Bandwidth: Fig. 1a's fixed 4×4×2
//     leaf-spine at 100 Gbps (MotivationFlows hard-codes its eight hosts).
//   - LB: the zero value (ECMP) means the study's arm, RandomSpray.
func (c *Config) resolveMotivation() {
	c.Leaves, c.Spines, c.HostsPerLeaf, c.FatTreeK = 4, 4, 2, 0
	c.Bandwidth = 100e9
	if c.LB == ECMP {
		c.LB = RandomSpray
	}
	if c.MessageBytes == 0 {
		c.MessageBytes = 100 << 20
	}
	if c.Horizon == 0 {
		c.Horizon = 10 * sim.Second
	}
	if c.TI == 0 {
		c.TI = 55 * sim.Microsecond
	}
	if c.TD == 0 {
		c.TD = 50 * sim.Microsecond
	}
}

// MotivationResult carries the Fig. 1 measurements. Its Outcome adds the
// figure's scalars to the cluster record — CCTMillis is the last flow's
// completion, RetransRatio over all flows Fig. 1b's average, AvgRateGbps
// Fig. 1c and GoodputGbps, the mean per-flow throughput, Fig. 1d's bar — and
// carries the observed flow's Series.
type MotivationResult struct {
	Outcome
	// ThroughputGbps is each flow's goodput over its completion time.
	ThroughputGbps []float64
}

// MotivationSeries is what the motivation runner samples of the observed flow
// (node 0 → node 2): its windowed retransmission ratio (Fig. 1b) and its
// sending rate over time (Fig. 1c).
type MotivationSeries struct {
	Retrans, RateGbps *stats.Series
}

// MotivationFlows returns the ring flow pairs of Fig. 1a: two groups
// {0,2,4,6} and {1,3,5,7}, each node sending to the next in its group.
func MotivationFlows() [][2]packet.NodeID {
	var flows [][2]packet.NodeID
	for _, start := range []int{0, 1} {
		for i := 0; i < 4; i++ {
			src := packet.NodeID(start + 2*i)
			dst := packet.NodeID(start + 2*((i+1)%4))
			flows = append(flows, [2]packet.NodeID{src, dst})
		}
	}
	return flows
}

// RunMotivation executes the §2.2 motivation experiment (Fig. 1) and returns
// its measurements: eight nodes in two 4-node ring groups over a 100 Gbps
// leaf-spine fabric, random packet spraying, each node sending
// cfg.MessageBytes to the next node of its group. Of the shape it reads only
// MessageBytes and Horizon; the fabric shape is pinned (resolveMotivation).
func RunMotivation(cfg Config) (MotivationResult, error) {
	cfg.resolveMotivation()
	if cfg.MessageBytes < 0 {
		return MotivationResult{}, fmt.Errorf("workload: MessageBytes=%d is negative", cfg.MessageBytes)
	}
	cl, err := BuildCluster(cfg.ClusterConfig)
	if err != nil {
		return MotivationResult{}, err
	}

	flows := MotivationFlows()
	ratio := stats.NewRatioMeter("retransmission ratio (flow 0->2)", 100*sim.Microsecond)
	rate := stats.NewSeries("rate Gbps (flow 0->2)")

	// The observed flow: node 0 -> node 2.
	observed := cl.Conn(flows[0][0], flows[0][1]).Sender
	observed.OnSend = func(t sim.Time, _ packet.PSN, _ int, retrans bool) {
		r := 0.0
		if retrans {
			r = 1
		}
		ratio.Observe(t, r, 1)
	}
	// Sample the observed flow's DCQCN rate (Fig. 1c) until the last flow
	// completes: the run is on one engine, so the flows count down locally.
	sampler := sim.NewTicker(cl.Engine, 10*sim.Microsecond, func() {
		rate.Add(cl.Engine.Now(), float64(observed.Rate())/1e9)
	})
	left := len(flows)
	countdown := func() {
		if left--; left == 0 {
			sampler.Stop()
		}
	}
	ts := make([]Transfer, len(flows))
	for i, f := range flows {
		ts[i] = Transfer{Src: f[0], Dst: f[1], Bytes: cfg.MessageBytes, Done: countdown}
	}
	sampler.Start()
	c := cl.Drive(nil, ts, cfg.Horizon)
	if err := c.Err("motivation", "flow"); err != nil {
		return MotivationResult{}, err
	}
	res := MotivationResult{Outcome: cl.Outcome(c.Last())}
	res.Series = &MotivationSeries{Retrans: ratio.Finish(c.At[0]), RateGbps: rate}
	// Truncate the rate series to the observed flow's active period before
	// averaging. A flow that ends before the first sample has no average
	// (zero, not Mean's NaN, which a JSON report cannot hold).
	var active []float64
	for _, s := range rate.Samples {
		if s.T <= c.At[0] {
			active = append(active, s.V)
		}
	}
	if len(active) > 0 {
		res.AvgRateGbps = stats.Mean(active)
	}
	for i, f := range flows {
		gbps := float64(cl.Conn(f[0], f[1]).Sender.Stats().GoodputBytes) * 8 / c.At[i].Seconds() / 1e9
		res.ThroughputGbps = append(res.ThroughputGbps, gbps)
	}
	res.GoodputGbps = stats.Mean(res.ThroughputGbps)
	return res, nil
}

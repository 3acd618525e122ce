package workload

import (
	"fmt"
	"strings"

	"themis/internal/fabric"
	"themis/internal/lb"
	"themis/internal/packet"
	"themis/internal/rnic"
	"themis/internal/sim"
)

// LBMode selects the load-balancing arm of an experiment. The integer values
// are part of the BENCH_*.json wire format; new arms append.
type LBMode int

const (
	// ECMP is flow-level hashing (the deployed default).
	ECMP LBMode = iota
	// RandomSpray is per-packet uniform spraying (RPS).
	RandomSpray
	// Adaptive is per-packet least-queue adaptive routing (AR).
	Adaptive
	// Flowlet is flowlet switching.
	Flowlet
	// SprayNoThemis applies the PSN-based spraying policy with no Themis-D
	// filtering — the "direct combination" the paper's deltas are against.
	SprayNoThemis
	// Themis installs the full middleware: Themis-S spraying at source ToRs
	// and Themis-D NACK filtering + compensation at destination ToRs.
	Themis
	// REPS is Recycled Entropy Packet Spraying: the sender sprays via a
	// bounded cache of recently-ACKed entropy values (lb.REPS) fed by the
	// RNIC's transport feedback; switches hash the stamped entropy with
	// plain ECMP.
	REPS
	// CongestionAware sprays per-packet round-robin entropy at the sender
	// and steers around congested paths switch-locally (lb.CongestionAware:
	// per-port ECN-knee EWMA), with DCQCN cutting by per-path α estimates
	// instead of the flow-global one.
	CongestionAware
)

// arm is one row of the arm table: everything the harness needs to know
// about a load-balancing arm beyond its internal/lb implementation.
type arm struct {
	name string
	// selector returns one switch's data-packet selector.
	selector func(c *ClusterConfig) lb.Selector
	// sender, if non-nil, wires the sender-side half of the arm (entropy
	// source, per-path CC) into the NIC config.
	sender func(c *ClusterConfig, ncfg *rnic.Config)
	// pipeline marks the arm that installs a core.Themis pipeline on every
	// ToR; the sharded spray workload cannot host one.
	pipeline bool
}

// arms is the arm table, indexed by LBMode. Adding an arm is one constant
// above, one row here and its internal/lb implementation.
var arms = [...]arm{
	ECMP:          {name: "ecmp", selector: stateless(lb.ECMP{})},
	RandomSpray:   {name: "rps", selector: stateless(lb.RandomSpray{})},
	Adaptive:      {name: "adaptive", selector: stateless(lb.Adaptive{})},
	Flowlet:       {name: "flowlet", selector: flowletSelector},
	SprayNoThemis: {name: "spray-nothemis", selector: stateless(lb.PSNSpray{})},
	// Themis steers via the ToR pipeline and REPS via the sender's entropy
	// cache; in both the switches hash the (stamped) five-tuple with ECMP.
	Themis:          {name: "themis", selector: stateless(lb.ECMP{}), pipeline: true},
	REPS:            {name: "reps", selector: stateless(lb.ECMP{}), sender: repsSender},
	CongestionAware: {name: "congestion", selector: congestionSelector, sender: congestionSender},
}

// stateless adapts a selector with no per-switch state to the table's shape.
func stateless(s lb.Selector) func(*ClusterConfig) lb.Selector {
	return func(*ClusterConfig) lb.Selector { return s }
}

func flowletSelector(*ClusterConfig) lb.Selector { return lb.NewFlowlet(50 * sim.Microsecond) }

// congestionSelector biases the spray away from ports whose queue has been
// sitting at or above the ECN-marking knee — the same signal DCQCN reacts to,
// read switch-locally and a feedback-delay earlier.
func congestionSelector(c *ClusterConfig) lb.Selector {
	return lb.NewCongestionAware(fabric.DefaultECN(c.Bandwidth).KminBytes, 0, 0)
}

func repsSender(c *ClusterConfig, ncfg *rnic.Config) {
	size := c.RepsCache
	ncfg.NewEntropy = func(_ packet.QPID, base uint16) lb.EntropySource {
		return lb.NewREPS(base, size)
	}
}

// congestionSender round-robins data packets over PathBuckets source ports
// and has DCQCN keep one α per bucket.
func congestionSender(c *ClusterConfig, ncfg *rnic.Config) {
	buckets := c.PathBuckets
	ncfg.NewEntropy = func(_ packet.QPID, base uint16) lb.EntropySource {
		return lb.EntropyRoundRobin{Base: base, Buckets: buckets}
	}
	ncfg.CC.PathBuckets = buckets
}

// arm looks the mode up in the table; an out-of-range value (e.g. a
// hand-edited scenario JSON) is an error, not a panic.
func (m LBMode) arm() (*arm, error) {
	if m < 0 || int(m) >= len(arms) {
		return nil, fmt.Errorf("workload: unknown LB mode %d (valid: %s)", int(m), LBNames())
	}
	return &arms[m], nil
}

// String returns the arm mnemonic.
func (m LBMode) String() string {
	a, err := m.arm()
	if err != nil {
		return fmt.Sprintf("LBMode(%d)", int(m))
	}
	return a.name
}

// LBNames returns the arm mnemonics joined by "|", for flag help and errors.
func LBNames() string {
	names := make([]string, len(arms))
	for i := range arms {
		names[i] = arms[i].name
	}
	return strings.Join(names, "|")
}

// ParseLB is the inverse of LBMode.String.
func ParseLB(s string) (LBMode, error) {
	for i := range arms {
		if arms[i].name == s {
			return LBMode(i), nil
		}
	}
	return 0, fmt.Errorf("unknown lb mode %q (%s)", s, LBNames())
}

package workload

import (
	"fmt"
	"math/rand"

	"themis/internal/packet"
	"themis/internal/sim"
)

// FaultKind enumerates the injectable fault classes.
type FaultKind int

const (
	// LinkFlap takes a fabric link down at At and repairs it At+Duration
	// later, driving the §6 monitoring-plane reaction both ways (Themis
	// disables cluster-wide, routing reconverges, then recovers). A
	// non-positive Duration leaves the link down for good.
	LinkFlap FaultKind = iota
	// DropRate drops each data packet crossing the target link with
	// probability Rate during [At, At+Duration).
	DropRate
	// CorruptRate models bit corruption on the target link: a corrupted
	// packet fails its ICRC at the receiver and is discarded, so on the wire
	// it is indistinguishable from a drop — but it is generated as a
	// distinct class because real fabrics exhibit both independently.
	CorruptRate
	// CtrlLoss drops each control packet (ACK/NACK/CNP) fabric-wide with
	// probability Rate during [At, At+Duration). Requires a cluster built
	// with LossyControl (the chaos harness's default).
	CtrlLoss
	// TorReboot power-cycles the Themis instance on switch Sw at At: flow
	// table and ring queues are lost mid-flow (core.Themis.Reboot).
	TorReboot
	// Blackhole silently drops everything on the target link from At until
	// the monitoring plane detects it At+Duration later and fails the link
	// over (FailLink); the link is repaired another Duration after that.
	Blackhole
	// FlapStorm cycles the target link down/up three times inside
	// [At, At+Duration). Under a distributed routing plane with non-zero
	// per-hop delay every cycle restarts convergence before the previous
	// episode finishes — the stale-FIB stress test. chaos.Generate never
	// draws the kinds below Blackhole; they belong to GenerateConvergence.
	FlapStorm
	// UplinkLoss takes down every uplink of the ToR Sw except its lowest at
	// At and repairs them all at At+Duration: the pod-uplink-loss event that
	// shrinks every remote ECMP group toward the ToR to a single path.
	UplinkLoss
	// Drain models a maintenance drain: the target link is administratively
	// withdrawn from routing at At (traffic shifts away while the link still
	// forwards), physically taken down at At+Duration/2, repaired at
	// At+Duration and undrained after. Done right this is lossless.
	Drain
)

// faultNames is the mnemonic table behind FaultKind.String.
var faultNames = [...]string{
	LinkFlap: "link-flap", DropRate: "drop-rate", CorruptRate: "corrupt-rate",
	CtrlLoss: "ctrl-loss", TorReboot: "tor-reboot", Blackhole: "blackhole",
	FlapStorm: "flap-storm", UplinkLoss: "uplink-loss", Drain: "drain",
}

// String returns the fault mnemonic.
func (k FaultKind) String() string {
	if k < 0 || int(k) >= len(faultNames) {
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
	return faultNames[k]
}

// Fault is one scheduled fault. Sw/Port identify the target fabric link
// (TorReboot uses only Sw; CtrlLoss ignores both and applies fabric-wide).
type Fault struct {
	Kind     FaultKind
	At       sim.Duration // injection time
	Duration sim.Duration // outage / active window / detection latency
	Sw, Port int
	Rate     float64 // drop probability for the rate-based kinds
}

// String renders the fault compactly.
func (f Fault) String() string {
	switch f.Kind {
	case TorReboot:
		return fmt.Sprintf("%v@%v sw%d", f.Kind, f.At, f.Sw)
	case CtrlLoss:
		return fmt.Sprintf("%v@%v+%v p=%.3f", f.Kind, f.At, f.Duration, f.Rate)
	case DropRate, CorruptRate:
		return fmt.Sprintf("%v@%v+%v sw%d.%d p=%.3f", f.Kind, f.At, f.Duration, f.Sw, f.Port, f.Rate)
	default:
		return fmt.Sprintf("%v@%v+%v sw%d.%d", f.Kind, f.At, f.Duration, f.Sw, f.Port)
	}
}

// lossRule is one time-windowed drop rule of the cluster's loss hook:
// probabilistic (rate), or — every > 0 — counting, dropping every every-th
// packet it matches.
type lossRule struct {
	from, to    sim.Time
	sw, port    int // -1 wildcards
	ctrl, dat   bool
	rate        float64
	every, seen int
}

func (r *lossRule) matches(now sim.Time, pkt *packet.Packet, sw, port int) bool {
	if now < r.from || now >= r.to {
		return false
	}
	if r.sw >= 0 && r.sw != sw {
		return false
	}
	if r.port >= 0 && r.port != port {
		return false
	}
	if pkt.Kind.IsControl() {
		return r.ctrl
	}
	return r.dat
}

// Inject schedules faults on the cluster's engine: the discrete ones (flaps,
// reboots, drains, blackhole detection) as events, the rate-based ones as
// rules of the cluster's loss hook. It is the one fault path — the chaos
// generators, the churn mix and CollectiveConfig.LinkFail all lower to it —
// and must be called before the simulation runs (fault times are absolute).
// Every probabilistic drop draws from one stream seeded with Config.Seed, so
// a seed replays its run exactly.
func (cl *Cluster) Inject(faults []Fault) {
	for _, f := range faults {
		sw, port := f.Sw, f.Port
		start, end := sim.Time(f.At), sim.Time(f.At+f.Duration)
		switch f.Kind {
		case LinkFlap:
			cl.flap(sw, port, start, end)
		case DropRate, CorruptRate:
			cl.addLossRule(lossRule{from: start, to: end, sw: sw, port: port, dat: true, rate: f.Rate})
		case CtrlLoss:
			cl.addLossRule(lossRule{from: start, to: end, sw: -1, port: -1, ctrl: true, rate: f.Rate})
		case TorReboot:
			// All flow-table and ring-queue state is lost mid-flow; with
			// ThemisCfg.Relearn the instance rebuilds it from live traffic. A
			// no-op (but still an event) on clusters without the middleware,
			// so one schedule runs on every arm.
			cl.Engine.At(start, func() {
				if th := cl.Themis[sw]; th != nil {
					th.Reboot()
				}
			})
		case Blackhole:
			// Silent loss until the monitoring plane detects the port at
			// At+Duration and fails it over; repaired one detection window
			// later. The rule covers only the silent phase — once the link
			// is administratively down the fabric drops at the queue head.
			cl.addLossRule(lossRule{from: start, to: end, sw: sw, port: port, ctrl: true, dat: true, rate: 1})
			cl.flap(sw, port, end, sim.Time(f.At+2*f.Duration))
		case FlapStorm:
			// Three down/up cycles inside the window. With a distributed
			// routing plane each cycle restarts convergence before the last
			// one settles; with the oracle each is an instant recompute.
			cycle := f.Duration / 3
			for c := 0; c < 3; c++ {
				down := start + sim.Time(sim.Duration(c)*cycle)
				cl.flap(sw, port, down, down+sim.Time(cycle/2))
			}
		case UplinkLoss:
			// Every uplink of ToR Sw but the lowest goes down together —
			// remote ECMP groups toward the rack collapse to a single path.
			for _, p := range cl.Topo.Switch(sw).FabricPorts()[1:] {
				cl.flap(sw, p, start, end)
			}
		case Drain:
			// Maintenance order: withdraw from routing first, let traffic
			// shift away, then take the link down; repair, then readmit.
			// Themis stays enabled through the drain itself — a drained link
			// is alive, merely no longer a candidate, so deterministic PSN
			// spraying never steers into a dead path because of it.
			cl.Engine.At(start, func() { cl.Net.SetLinkDrained(sw, port, true) })
			cl.Engine.At(start+sim.Time(f.Duration/2), func() { cl.FailLink(sw, port) })
			cl.Engine.At(end, func() {
				cl.RepairLink(sw, port)
				cl.Net.SetLinkDrained(sw, port, false)
			})
		}
	}
}

// flap schedules one outage of the link at (sw, port): down at down, repaired
// at up — never, if up is not after down.
func (cl *Cluster) flap(sw, port int, down, up sim.Time) {
	cl.Engine.At(down, func() { cl.FailLink(sw, port) })
	if up > down {
		cl.Engine.At(up, func() { cl.RepairLink(sw, port) })
	}
}

// addLossRule appends a rule to the cluster's loss hook and (re)installs the
// hook. This is the only Network.SetLossFunc caller, so no fault source can
// replace another's rules.
func (cl *Cluster) addLossRule(r lossRule) {
	if cl.lossRNG == nil {
		cl.lossRNG = rand.New(rand.NewSource(cl.Config.Seed))
	}
	cl.lossRules = append(cl.lossRules, r)
	cl.Net.SetLossFunc(cl.lose)
}

// lose is the composed fabric loss hook: the first active matching rule that
// decides to drop settles the packet's fate.
func (cl *Cluster) lose(pkt *packet.Packet, sw, port int) bool {
	now := cl.Engine.Now()
	for i := range cl.lossRules {
		r := &cl.lossRules[i]
		if !r.matches(now, pkt, sw, port) {
			continue
		}
		if r.every > 0 {
			if r.seen++; r.seen%r.every == 0 {
				return true
			}
		} else if r.rate >= 1 || cl.lossRNG.Float64() < r.rate {
			return true
		}
	}
	return false
}

// Audit checks the graceful-degradation invariants on a cluster whose
// fault-bearing trial has run to completion (engine drained). remaining is
// the number of transfers that never completed. The returned strings are
// human-readable violations; an empty slice means the system degraded
// gracefully:
//
//  1. Every message completes — no fault schedule may wedge a transfer.
//  2. No QP is stuck with unacknowledged data after the event queue drains.
//  3. No injected failure is left outstanding (scenarios repair what they
//     break, so Themis must be re-enabled).
//  4. Ring queues never hold more entries than their capacity (entries are
//     evicted, not leaked).
//  5. Themis-D accounting is closed: every inspected NACK was either
//     forwarded or blocked, and compensations never exceed blocked NACKs
//     (a compensation exists only to stand in for a blocked-but-real loss).
//  6. Flow-table occupancy never exceeds the configured §4 SRAM budget.
//  7. Blocked NACKs are conserved: the fabric blocked exactly as many host
//     control packets as the middleware's deliberate verdicts, proving that
//     NACKs for evicted/unknown/rejected QPs were forwarded, never blocked.
//  8. No armed compensation survives once every transfer completed: each
//     resolved as cancelled (BePSN arrived) or fired (confirmed loss), or
//     its flow closed and was unregistered.
//  9. The routing plane is converged after drain: every per-switch FIB
//     matches the oracle shortest paths for the final link state. A stale
//     FIB after quiescence means a lost withdrawal or a stuck session.
//  10. Zero steady-state loop drops: a TTL expiry while the plane reported
//     quiescence (on a packet injected in the current route epoch) is a
//     forwarding loop in a converged FIB — never acceptable.
//  11. No maintenance drain is left outstanding (scenarios undrain what
//     they drain, just as they repair what they fail).
func (cl *Cluster) Audit(remaining int) []string {
	var v []string
	if remaining != 0 {
		v = append(v, fmt.Sprintf("%d transfers never completed", remaining))
	}
	for _, cn := range cl.connList {
		if cn.Sender.Outstanding() {
			v = append(v, fmt.Sprintf("qp %d stuck: unacked data after drain", cn.Sender.QP()))
		}
	}
	if n := cl.FailedLinks(); n != 0 {
		v = append(v, fmt.Sprintf("%d link failures left outstanding", n))
	}
	var blockedVerdicts uint64
	for _, sw := range cl.torIDs {
		th := cl.Themis[sw]
		if th.Disabled() && cl.FailedLinks() == 0 {
			v = append(v, fmt.Sprintf("themis on sw %d still disabled after all repairs", sw))
		}
		entries, capacity, _ := th.RingStats()
		if entries > capacity {
			v = append(v, fmt.Sprintf("sw %d: ring leak: %d entries > %d capacity", sw, entries, capacity))
		}
		st := th.Stats()
		if st.NacksSeen != st.NacksForwarded+st.NacksBlocked {
			v = append(v, fmt.Sprintf("sw %d: NACK accounting leak: seen %d != fwd %d + blocked %d",
				sw, st.NacksSeen, st.NacksForwarded, st.NacksBlocked))
		}
		if st.Compensations > st.NacksBlocked {
			v = append(v, fmt.Sprintf("sw %d: %d compensations > %d blocked NACKs",
				sw, st.Compensations, st.NacksBlocked))
		}
		blockedVerdicts += st.NacksBlocked
		if budget := th.TableBudgetBytes(); budget > 0 && th.TableBytes() > budget {
			v = append(v, fmt.Sprintf("sw %d: flow table %d B over the %d B budget",
				sw, th.TableBytes(), budget))
		}
		if remaining == 0 {
			if n := th.PendingCompensations(); n != 0 {
				v = append(v, fmt.Sprintf("sw %d: %d armed compensations after all transfers completed", sw, n))
			}
		}
	}
	if blocked := cl.Net.Counters().Blocked; blocked != blockedVerdicts {
		v = append(v, fmt.Sprintf("blocked-NACK conservation broken: fabric blocked %d != middleware verdicts %d",
			blocked, blockedVerdicts))
	}
	if err := cl.Net.RouteConverged(); err != nil {
		v = append(v, fmt.Sprintf("routing plane not converged after drain: %v", err))
	}
	if drops := cl.Net.Counters().SteadyLoopDrops; drops != 0 {
		v = append(v, fmt.Sprintf("%d TTL expiries while routing reported quiescence (steady-state forwarding loop)", drops))
	}
	if n := cl.Net.DrainedLinks(); n != 0 {
		v = append(v, fmt.Sprintf("%d maintenance drains left outstanding", n))
	}
	return v
}

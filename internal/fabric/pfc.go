package fabric

import (
	"themis/internal/packet"
	"themis/internal/sim"
)

// PFCConfig enables IEEE 802.1Qbb Priority Flow Control for the data class:
// when the bytes buffered from one ingress port cross XoffBytes, the switch
// sends PAUSE upstream (taking one link propagation delay to act); the
// upstream port stops serializing until buffered bytes fall below XonBytes
// and RESUME arrives. Control packets (ACK/NACK/CNP) ride a separate
// priority and are never paused — matching RoCE deployments where DCQCN
// runs with PFC as a lossless backstop.
type PFCConfig struct {
	Enabled   bool
	XoffBytes int // per-ingress pause threshold
	XonBytes  int // per-ingress resume threshold
	// WatchdogTimeout arms the PFC deadlock watchdog: a switch egress queue
	// that has been continuously paused for this long while holding data is
	// declared stuck — its backlog is flushed (WatchdogDrops) so the buffer
	// space and ingress accounting it pins are released and the pause cycle
	// unwinds. Transient routing loops can otherwise freeze into a permanent
	// circular buffer dependency: looped packets fill buffers, the pauses
	// they assert form a cycle, and TTL cannot help because paused packets
	// never move. Real lossless deployments run exactly this watchdog
	// (deadlock detection + drop) for the same reason. Legitimate congestion
	// pauses oscillate around Xoff/Xon on microsecond scales, orders of
	// magnitude below the timeout. Zero disables the watchdog.
	WatchdogTimeout sim.Duration
}

// DefaultPFC returns thresholds scaled to a link rate: headroom of one
// link-delay's worth of in-flight bytes plus a couple of MTUs, mirroring
// common switch defaults (Xoff ≈ 100 KB, Xon ≈ 50 KB at 100 Gbps).
func DefaultPFC(linkBps int64) PFCConfig {
	scale := float64(linkBps) / 100e9
	return PFCConfig{
		Enabled:         true,
		XoffBytes:       int(100e3 * scale),
		XonBytes:        int(50e3 * scale),
		WatchdogTimeout: 500 * sim.Microsecond,
	}
}

// pfcState is the per-switch PFC bookkeeping.
type pfcState struct {
	ingressBytes []int  // data bytes buffered per ingress port
	pauseSent    []bool // PAUSE currently asserted towards each ingress
	pausesTx     uint64
	resumesTx    uint64
}

func newPFCState(nPorts int) *pfcState {
	return &pfcState{
		ingressBytes: make([]int, nPorts),
		pauseSent:    make([]bool, nPorts),
	}
}

// accountIngress charges a queued data packet to its ingress port and
// asserts PAUSE upstream when the Xoff threshold is crossed.
func (s *swInst) accountIngress(pkt *packet.Packet, inPort int) {
	if s.pfc == nil || inPort < 0 || pkt.Kind.IsControl() {
		return
	}
	pkt.InPort = int32(inPort)
	pkt.Accounted = true
	s.pfc.ingressBytes[inPort] += pkt.Size()
	if !s.pfc.pauseSent[inPort] && s.pfc.ingressBytes[inPort] >= s.net.cfg.PFC.XoffBytes {
		s.pfc.pauseSent[inPort] = true
		s.pfc.pausesTx++
		s.sendPauseFrame(inPort, true)
	}
}

// releaseIngress un-charges a packet when it leaves this switch and sends
// RESUME once the backlog falls below Xon.
func (s *swInst) releaseIngress(pkt *packet.Packet) {
	if s.pfc == nil || !pkt.Accounted {
		return
	}
	pkt.Accounted = false
	inPort := int(pkt.InPort)
	s.pfc.ingressBytes[inPort] -= pkt.Size()
	if s.pfc.pauseSent[inPort] && s.pfc.ingressBytes[inPort] <= s.net.cfg.PFC.XonBytes {
		s.pfc.pauseSent[inPort] = false
		s.pfc.resumesTx++
		s.sendPauseFrame(inPort, false)
	}
}

// sendPauseFrame delivers a PAUSE/RESUME indication to whatever feeds
// ingress port inPort — the peer switch's egress queue or a host's access
// link — after one propagation delay (pause frames are real packets on the
// wire, but tiny; their serialization is ignored).
func (s *swInst) sendPauseFrame(inPort int, pause bool) {
	p := &s.sw.Ports[inPort]
	var target *outQueue
	if p.IsHostPort() {
		target = s.net.hostUp[p.Host]
	} else {
		target = s.net.switches[p.PeerSwitch].ports[p.PeerPort]
	}
	fn := target.resumeFn
	if pause {
		fn = target.pauseFn
	}
	// Pause frames cross shard boundaries through the epoch mailbox; their
	// one-link propagation delay is >= the group lookahead by construction,
	// which is what makes the post legal (see topo.Lookahead).
	at := s.eng.Now().Add(p.Delay)
	if target.shard != s.shard {
		s.net.group.Post(s.shard, target.shard, at, target.pausePri, fn)
	} else {
		s.eng.AtPri(at, target.pausePri, fn)
	}
}

// PFCStats reports (pauses, resumes) sent by a switch.
func (n *Network) PFCStats(sw int) (pauses, resumes uint64) {
	s := n.switches[sw]
	if s.pfc == nil {
		return 0, 0
	}
	return s.pfc.pausesTx, s.pfc.resumesTx
}

package fabric

import (
	"math/rand"

	"themis/internal/lb"
	"themis/internal/packet"
	"themis/internal/sim"
	"themis/internal/topo"
	"themis/internal/trace"
)

// swInst is a running switch: the topo.Switch plus egress queues, selectors
// and counters. It implements lb.Context for its selectors.
type swInst struct {
	net         *Network
	sw          *topo.Switch
	ports       []*outQueue
	portUp      []bool
	portDrained []bool // maintenance drains (routing-layer only; link stays up)
	anyDown     bool
	bufUsed     int
	dataSel     lb.Selector
	pipeline    TorPipeline
	seed        uint32 // cached lb.TierSeed(sw.Tier), hot on every ECMP decision

	// shard is the owning shard; eng/ctr/pool are that shard's engine,
	// counter block and pool (see wire).
	shard int
	eng   *sim.Engine
	ctr   *Counters
	pool  *packet.Pool
	// rng is the switch's random source, nil until its first draw (see Rand).
	rng *rand.Rand

	// pfc holds per-ingress pause state (nil when PFC is disabled).
	pfc *pfcState

	// candScratch is reused when filtering candidates under link failure.
	candScratch []int
}

func newSwInst(n *Network, sw *topo.Switch) *swInst {
	s := &swInst{
		net:         n,
		sw:          sw,
		dataSel:     n.cfg.NewDataSelector(),
		portUp:      make([]bool, len(sw.Ports)),
		portDrained: make([]bool, len(sw.Ports)),
		seed:        lb.TierSeed(sw.Tier),
	}
	if n.cfg.PFC.Enabled {
		s.pfc = newPFCState(len(sw.Ports))
	}
	s.ports = make([]*outQueue, len(sw.Ports))
	for pi := range sw.Ports {
		p := &sw.Ports[pi]
		s.portUp[pi] = true
		q := &outQueue{
			net:        n,
			bw:         p.Bandwidth,
			delay:      p.Delay,
			sw:         s,
			port:       pi,
			isHostPort: p.IsHostPort(),
		}
		if p.IsHostPort() {
			host := p.Host
			q.deliver = func(pkt *packet.Packet) { n.deliverToHost(host, pkt, q) }
		} else {
			peer := p.PeerSwitch
			peerPort := p.PeerPort
			q.deliver = func(pkt *packet.Packet) { n.switches[peer].receive(pkt, peerPort) }
		}
		s.ports[pi] = q
	}
	return s
}

// lb.Context implementation.
func (s *swInst) Now() sim.Time           { return s.eng.Now() }
func (s *swInst) QueueBytes(port int) int { return s.ports[port].bytes }
func (s *swInst) Seed() uint32            { return s.seed }

// Rand returns the switch's stream (ECN marking, randomized selectors), keyed
// by the network seed and the switch's ID — a partition-invariant identity,
// so the draws a switch observes are the same for every shard count. It is
// built on the first draw: seeding a math/rand source costs 5.4 KB and ~14 µs,
// which at wiring time more than doubled the build of a fabric whose ECMP and
// Themis switches, below the ECN knee, never draw at all.
func (s *swInst) Rand() *rand.Rand {
	if s.rng == nil {
		s.rng = sim.NewStream(s.net.seed, streamKeySwitch(s.sw.ID))
	}
	return s.rng
}

// receive handles a packet arriving on inPort (or injected by the pipeline
// with inPort == -1).
func (s *swInst) receive(pkt *packet.Packet, inPort int) {
	// Local delivery: the destination hangs off this switch. The Themis-D
	// observation point is the moment the packet leaves the ToR towards the
	// host (outQueue.startNext), not here: under congestion the ToR→host
	// queue adds arbitrary delay, and recording PSNs at departure keeps the
	// ring queue window equal to the true last-hop RTT (§3.3).
	if a := s.net.topology.HostAttach(pkt.Dst); a.Switch == s.sw.ID {
		s.enqueue(pkt, a.Port, inPort)
		return
	}

	// Hop limit: decremented only when forwarding (not on local delivery
	// above). During routing reconvergence stale FIBs can form micro-loops;
	// the TTL turns a would-be livelock into an accounted drop.
	if pkt.TTL > 0 {
		pkt.TTL--
		if pkt.TTL == 0 {
			s.loopDrop(pkt)
			return
		}
	}

	cands := s.net.candidatePorts(s.sw.ID, pkt.Dst)
	if len(cands) == 0 {
		// No surviving path (partitioned fabric).
		s.drop(pkt)
		s.ctr.LinkDrops++
		return
	}
	if s.anyDown {
		cands = s.filterUp(cands)
		if len(cands) == 0 {
			s.drop(pkt)
			s.ctr.LinkDrops++
			return
		}
	}

	fromHost := inPort >= 0 && s.sw.Ports[inPort].IsHostPort()
	if s.pipeline != nil && fromHost {
		if pkt.Kind.IsControl() {
			if !s.pipeline.FilterHostControl(pkt) {
				s.ctr.Blocked++
				s.free(pkt)
				return
			}
		} else if port, ok := s.pipeline.SelectUplink(pkt, cands); ok {
			s.enqueue(pkt, port, inPort)
			return
		}
	}

	sel := s.dataSel
	if pkt.Kind.IsControl() {
		sel = lb.ECMP{} // control packets always hash per flow
	}
	s.enqueue(pkt, sel.Select(pkt, cands, s), inPort)
}

// filterUp returns the subset of cands whose links are up, reusing scratch.
func (s *swInst) filterUp(cands []int) []int {
	s.candScratch = s.candScratch[:0]
	for _, c := range cands {
		if s.portUp[c] {
			s.candScratch = append(s.candScratch, c) //lint:alloc-ok scratch grows to the max fan-out once, then is reused
		}
	}
	return s.candScratch
}

// enqueue places pkt on the egress queue of port, applying loss injection,
// buffer admission, ECN marking and PFC ingress accounting.
func (s *swInst) enqueue(pkt *packet.Packet, port, inPort int) {
	q := s.ports[port]
	isCtrl := pkt.Kind.IsControl()
	lossless := isCtrl && s.net.cfg.ControlLossless

	// Loss injection: data packets always, control packets only when the
	// control class is not lossless (DESIGN.md key decision 6 — the flag that
	// subjects ACK/NACK/CNP to loss for robustness tests).
	if s.net.lose != nil && !lossless && s.net.lose(pkt, s.sw.ID, port) {
		if isCtrl {
			s.ctr.CtrlDrops++
			s.net.cfg.Tracer.RecordPacket(s.eng.Now(), trace.Drop, s.sw.ID, port, pkt)
			s.free(pkt)
		} else {
			s.drop(pkt)
		}
		return
	}
	if !lossless {
		if s.overBuffer(pkt.Size()) {
			if isCtrl {
				s.ctr.CtrlDrops++
				s.free(pkt)
			} else {
				s.drop(pkt)
			}
			return
		}
		s.bufUsed += pkt.Size()
		pkt.Buffered = true
	}
	if !isCtrl && s.net.cfg.ECN.Enabled && s.shouldMark(q.bytes) {
		if !pkt.ECN {
			s.ctr.EcnMarks++
			s.net.cfg.Tracer.RecordPacket(s.eng.Now(), trace.Mark, s.sw.ID, port, pkt)
		}
		pkt.ECN = true
	}
	s.accountIngress(pkt, inPort)
	s.net.cfg.Tracer.RecordPacket(s.eng.Now(), trace.SwEnq, s.sw.ID, port, pkt)
	q.enqueue(pkt)
}

// shouldMark applies the RED profile to the pre-enqueue queue depth.
func (s *swInst) shouldMark(qBytes int) bool {
	e := &s.net.cfg.ECN
	switch {
	case qBytes <= e.KminBytes:
		return false
	case qBytes >= e.KmaxBytes:
		return true
	default:
		p := e.PMax * float64(qBytes-e.KminBytes) / float64(e.KmaxBytes-e.KminBytes)
		return s.Rand().Float64() < p
	}
}

// overBuffer reports whether admitting size more bytes would overflow the
// shared buffer. bufUsed may still count releases that elided transmissions
// owe (see debt); they are settled only when that could turn the answer.
func (s *swInst) overBuffer(size int) bool {
	limit := s.net.cfg.BufferBytes
	if limit <= 0 || s.bufUsed+size <= limit {
		return false
	}
	s.settle()
	return s.bufUsed+size > limit
}

// debt is what a packet holds of its switch from admission until its last bit
// leaves the port: its size in the shared buffer (buffered) and in the PFC
// count of ingress port in (accounted).
type debt struct {
	size                int
	in                  int
	buffered, accounted bool
}

func (d debt) held() bool { return d.buffered || d.accounted }

// take moves pkt's hold on the switch into a debt, clearing its flags.
func take(pkt *packet.Packet) debt {
	d := debt{pkt.Size(), int(pkt.InPort), pkt.Buffered, pkt.Accounted}
	pkt.Buffered, pkt.Accounted = false, false
	return d
}

// release returns buffer space and PFC ingress accounting when a packet
// leaves (transmitted or dropped at the head of a failed link).
func (s *swInst) release(pkt *packet.Packet) { s.pay(take(pkt)) }

// pay returns what d holds; un-charging an ingress may send RESUME.
func (s *swInst) pay(d debt) {
	if d.buffered {
		s.bufUsed -= d.size
	}
	if d.accounted {
		s.releaseIngress(d.in, d.size)
	}
}

// settle pays every debt of an elided transmission whose completion turn
// execution has passed, making bufUsed and the PFC ingress counts exact.
func (s *swInst) settle() {
	for _, q := range s.ports {
		if q.owed.held() && s.eng.Passed(q.done) {
			q.settle()
		}
	}
}

// loopDrop discards a packet whose TTL expired. The drop only indicts the
// routing plane (SteadyLoopDrops) when no reconvergence window can excuse
// it: the plane is quiescent and the packet was injected under the current
// quiescent epoch.
func (s *swInst) loopDrop(pkt *packet.Packet) {
	s.ctr.LoopDrops++
	if s.net.routeQuiescent() && pkt.RouteEpoch == s.net.routeEpoch() {
		s.ctr.SteadyLoopDrops++
	}
	s.net.cfg.Tracer.RecordPacket(s.eng.Now(), trace.Drop, s.sw.ID, -1, pkt)
	s.free(pkt)
}

func (s *swInst) drop(pkt *packet.Packet) {
	s.ctr.DataDrops++
	s.net.cfg.Tracer.RecordPacket(s.eng.Now(), trace.Drop, s.sw.ID, -1, pkt)
	s.free(pkt)
}

func (s *swInst) free(pkt *packet.Packet) {
	// Safe to recycle: transports never retain references (retransmit
	// copies are separate packets) and trace events copy fields.
	s.pool.Put(pkt)
}

func (s *swInst) setPortState(port int, up bool) {
	if s.portUp[port] == up {
		return
	}
	s.portUp[port] = up
	if !up {
		s.ports[port].retract()
	}
	s.anyDown = false
	for _, u := range s.portUp {
		if !u {
			s.anyDown = true
			break
		}
	}
	if s.pipeline != nil {
		s.pipeline.LinkStateChanged(port, up)
	}
}

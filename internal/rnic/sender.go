package rnic

import (
	"themis/internal/cc"
	"themis/internal/lb"
	"themis/internal/packet"
	"themis/internal/sim"
)

// SenderStats counts sender-side events.
type SenderStats struct {
	DataPackets  uint64 // data packets injected (including retransmissions)
	Retransmits  uint64 // retransmitted data packets
	BytesSent    uint64 // payload bytes injected (incl. retransmissions)
	GoodputBytes uint64 // payload bytes acked (each byte counted once)
	AcksRx       uint64
	NacksRx      uint64
	CnpsRx       uint64
	Timeouts     uint64
	Completions  uint64
}

// message tracks one posted send.
type message struct {
	endPSN   packet.PSN // PSN one past the last packet of the message
	size     int64
	postedAt sim.Time
	done     func()
}

// SenderQP is the send half of a queue pair: packetization, rate pacing,
// retransmission and completion tracking.
type SenderQP struct {
	nic   *NIC
	qp    packet.QPID
	dst   packet.NodeID
	sport uint16

	dcqcn *cc.DCQCN

	// entropy, when non-nil (Config.NewEntropy), chooses the source port of
	// every data (re)transmission and receives the transport feedback
	// (ACK/NACK/RTO) — the REPS-style sender-side spraying hook.
	entropy lb.EntropySource

	// PSN space. All comparisons go through packet.PSN's serial-number
	// arithmetic so the window logic survives the 24-bit wrap.
	nextPSN  packet.PSN         // next fresh PSN to assign (message packetization)
	sendPSN  packet.PSN         // next PSN to transmit (rewinds under GBN)
	maxSent  packet.PSN         // one past the highest PSN ever transmitted
	cumAck   packet.PSN         // everything below is acknowledged
	lastSize map[packet.PSN]int // payload size per PSN for tail packets (non-MTU)

	// Retransmit queue (SelectiveRepeat/Ideal): PSNs to resend, FIFO.
	rtxQueue   []packet.PSN
	rtxPending map[packet.PSN]bool

	messages []message

	// Pacing.
	nextSendAt sim.Time
	pumpEv     *sim.Event
	rto        *sim.Timer
	rtoStreak  int // consecutive timeouts without ack progress (backoff exponent)

	stats SenderStats

	// OnSend, if set, observes every injected data packet (after stamping).
	OnSend func(t sim.Time, psn packet.PSN, payload int, retransmit bool)
	// OnComplete, if set, observes every completed message.
	OnComplete func(t sim.Time, size int64)
}

func newSenderQP(n *NIC, qp packet.QPID, dst packet.NodeID, sport uint16) *SenderQP {
	s := &SenderQP{
		nic:        n,
		qp:         qp,
		dst:        dst,
		sport:      sport,
		lastSize:   make(map[packet.PSN]int),
		rtxPending: make(map[packet.PSN]bool),
	}
	if !n.cfg.DisableCC {
		s.dcqcn = cc.New(n.engine, n.cfg.CC)
	}
	if n.cfg.NewEntropy != nil {
		s.entropy = n.cfg.NewEntropy(qp, sport)
	}
	s.rto = sim.NewTimer(n.engine, s.onTimeout)
	return s
}

// QP returns the queue pair ID.
func (s *SenderQP) QP() packet.QPID { return s.qp }

// Dst returns the destination host.
func (s *SenderQP) Dst() packet.NodeID { return s.dst }

// SPort returns the flow's UDP source port.
func (s *SenderQP) SPort() uint16 { return s.sport }

// Stats returns a snapshot of the sender counters.
func (s *SenderQP) Stats() SenderStats { return s.stats }

// CC returns the DCQCN instance (nil when CC is disabled).
func (s *SenderQP) CC() *cc.DCQCN { return s.dcqcn }

// Rate returns the current pacing rate.
func (s *SenderQP) Rate() int64 {
	if s.dcqcn == nil {
		return s.nic.cfg.LineRate
	}
	return s.dcqcn.Rate()
}

// Outstanding reports whether sent-but-unacknowledged data exists. Unsent
// backlog does not count: the retransmission timer must never fire just
// because the pacer is slow.
func (s *SenderQP) Outstanding() bool { return s.cumAck.Before(s.maxSent) }

// curRTO returns the retransmission timeout with the current backoff applied:
// base RTO × RTOBackoff^streak, capped at RTOMax.
func (s *SenderQP) curRTO() sim.Duration {
	rto := s.nic.cfg.RTO
	if backoff := s.nic.cfg.RTOBackoff; backoff > 1 && s.rtoStreak > 0 {
		scaled := float64(rto)
		for i := 0; i < s.rtoStreak; i++ {
			scaled *= backoff
			if limit := s.nic.cfg.RTOMax; limit > 0 && scaled >= float64(limit) {
				return limit
			}
		}
		rto = sim.Duration(scaled)
	}
	return rto
}

// SendMessage posts a message of size bytes; done (optional) fires when the
// last byte is acknowledged.
func (s *SenderQP) SendMessage(size int64, done func()) {
	if size <= 0 {
		panic("rnic: SendMessage with non-positive size")
	}
	const mtu = packet.DefaultMTU
	packets := (size + mtu - 1) / mtu
	tail := int(size - (packets-1)*mtu)
	endPSN := s.nextPSN.Add(int(packets))
	if tail != mtu {
		s.lastSize[endPSN.Add(-1)] = tail
	}
	s.nextPSN = endPSN
	s.messages = append(s.messages, message{
		endPSN: endPSN, size: size, postedAt: s.nic.engine.Now(), done: done,
	})
	s.pump()
}

// payloadOf returns the payload size of a PSN.
func (s *SenderQP) payloadOf(psn packet.PSN) int {
	if sz, ok := s.lastSize[psn]; ok {
		return sz
	}
	return packet.DefaultMTU
}

// pump drives the pacing loop: inject the next packet when the pacer allows.
func (s *SenderQP) pump() {
	if s.pumpEv != nil {
		return
	}
	now := s.nic.engine.Now()
	if now < s.nextSendAt {
		s.pumpEv = s.nic.engine.At(s.nextSendAt, s.pumpFire)
		return
	}
	s.transmitNext()
}

func (s *SenderQP) pumpFire() {
	s.pumpEv = nil
	s.transmitNext()
}

// transmitNext sends one pacer burst (retransmissions first) and schedules
// the next pacing slot so the average rate matches the DCQCN rate.
func (s *SenderQP) transmitNext() {
	now := s.nic.engine.Now()
	burstLimit := s.nic.cfg.BurstBytes
	sentWire := 0
	for {
		psn, retrans, ok := s.pickNext()
		if !ok {
			break
		}
		sentWire += s.emit(psn, retrans)
		if sentWire >= burstLimit {
			break // burstLimit <= 0 still sends exactly one packet
		}
	}
	if sentWire == 0 {
		return
	}
	if !s.rto.Active() {
		s.rto.Reset(s.curRTO())
	}
	// Pacing gap: the burst's on-wire time at the current rate.
	s.nextSendAt = now.Add(sim.TransmitTime(sentWire, s.Rate()))
	s.pumpEv = s.nic.engine.At(s.nextSendAt, s.pumpFire)
}

// emit builds the data packet for psn, accounts it and hands it to the wire;
// it returns the packet's on-wire size.
func (s *SenderQP) emit(psn packet.PSN, retransmit bool) int {
	payload := s.payloadOf(psn)
	p := s.nic.cfg.Pool.Get()
	p.Kind = packet.Data
	p.Src = s.nic.id
	p.Dst = s.dst
	p.QP = s.qp
	p.SPort = s.sport
	if s.entropy != nil {
		p.SPort = s.entropy.Pick(psn)
	}
	p.DPort = packet.RoCEv2Port
	p.PSN = psn
	p.Payload = payload
	p.Retransmit = retransmit
	s.stats.DataPackets++
	s.stats.BytesSent += uint64(payload)
	if retransmit {
		s.stats.Retransmits++
	}
	size := p.Size()
	if s.dcqcn != nil {
		s.dcqcn.OnBytesSent(size)
	}
	if s.OnSend != nil {
		s.OnSend(s.nic.engine.Now(), psn, payload, retransmit)
	}
	s.nic.inject(p)
	return size
}

// pickNext chooses the next PSN to send.
func (s *SenderQP) pickNext() (psn packet.PSN, retransmit bool, ok bool) {
	// Retransmissions take priority (SelectiveRepeat/Ideal path).
	for len(s.rtxQueue) > 0 {
		psn = s.rtxQueue[0]
		s.rtxQueue = s.rtxQueue[1:]
		delete(s.rtxPending, psn)
		if !psn.Before(s.cumAck) { // still unacked
			return psn, true, true
		}
	}
	if s.sendPSN.Before(s.nextPSN) {
		psn = s.sendPSN
		s.sendPSN = s.sendPSN.Next()
		retransmit = psn.Before(s.maxSent) // only under a GBN rewind
		if s.maxSent.Before(s.sendPSN) {
			s.maxSent = s.sendPSN
		}
		return psn, retransmit, true
	}
	return 0, false, false
}

// onAck processes a cumulative acknowledgment.
func (s *SenderQP) onAck(p *packet.Packet) {
	s.stats.AcksRx++
	s.advanceCumAck(p.PSN)
}

// onNack processes a NACK: the ePSN it carries acknowledges everything
// below, requests retransmission of exactly that PSN, and (on commodity
// NICs) triggers a DCQCN rate cut.
func (s *SenderQP) onNack(p *packet.Packet) {
	s.stats.NacksRx++
	s.advanceCumAck(p.PSN)
	if s.entropy != nil {
		// Evict the failed path's entropy before any retransmission
		// re-picks, so the retransmit itself avoids the suspect path.
		s.entropy.OnNack(p.PSN)
	}
	switch s.nic.cfg.Transport {
	case SelectiveRepeat:
		// §2.2: upon receiving a NACK the RNIC retransmits the ePSN packet
		// right away — the hardware responds in the datapath, not behind
		// the pacer schedule. This immediacy is what makes spraying-induced
		// NACKs so wasteful.
		s.retransmitNow(p.PSN)
		if s.dcqcn != nil {
			s.dcqcn.OnNack()
		}
	case GoBackN:
		if p.PSN.Before(s.sendPSN) {
			s.sendPSN = p.PSN
		}
		if s.dcqcn != nil {
			s.dcqcn.OnNack()
		}
	case Ideal:
		// The oracle transport retransmits what was really lost but never
		// treats a NACK as congestion.
		s.queueRetransmit(p.PSN)
	}
	s.pump()
}

// retransmitNow injects one retransmission immediately, bypassing the pacer.
func (s *SenderQP) retransmitNow(psn packet.PSN) {
	if !psn.Before(s.maxSent) || psn.Before(s.cumAck) {
		return
	}
	s.emit(psn, true)
	if !s.rto.Active() {
		s.rto.Reset(s.curRTO())
	}
}

func (s *SenderQP) onCnp(p *packet.Packet) {
	s.stats.CnpsRx++
	if s.dcqcn == nil {
		return
	}
	if b := s.nic.cfg.CC.PathBuckets; b > 0 {
		// The CNP echoes the marked data packet's entropy (see
		// ReceiverQP.maybeSendCNP), so the congestion can be attributed to
		// the path bucket the sender stamped it with.
		s.dcqcn.OnCNPPath(int(p.SPort-s.sport) % b)
		return
	}
	s.dcqcn.OnCNP()
}

func (s *SenderQP) queueRetransmit(psn packet.PSN) {
	if !psn.Before(s.maxSent) || psn.Before(s.cumAck) || s.rtxPending[psn] {
		return
	}
	s.rtxPending[psn] = true
	s.rtxQueue = append(s.rtxQueue, psn)
}

// advanceCumAck moves the cumulative ack point, fires completions, and
// manages the RTO.
func (s *SenderQP) advanceCumAck(epsn packet.PSN) {
	if !epsn.After(s.cumAck) {
		return
	}
	for psn := s.cumAck; psn != epsn; psn = psn.Next() {
		s.stats.GoodputBytes += uint64(s.payloadOf(psn))
		if s.entropy != nil {
			s.entropy.OnAck(psn)
		}
	}
	s.cumAck = epsn
	s.rtoStreak = 0 // ack progress: the path works again, back to the base RTO
	now := s.nic.engine.Now()
	for len(s.messages) > 0 && !s.messages[0].endPSN.After(s.cumAck) {
		m := s.messages[0]
		s.messages = s.messages[1:]
		delete(s.lastSize, m.endPSN.Add(-1)) // the tail-size record, if any, is stale now
		s.stats.Completions++
		s.nic.msgHist.Observe(now.Sub(m.postedAt).Microseconds())
		if s.OnComplete != nil {
			s.OnComplete(now, m.size)
		}
		if m.done != nil {
			m.done()
		}
	}
	if s.Outstanding() {
		s.rto.Reset(s.curRTO())
	} else {
		// Idle QP: no retransmission timer. DCQCN timers keep running and
		// self-quiesce once the rate recovers to line rate (and the alpha
		// estimate decays), so an idle QP soon stops generating events
		// while still recovering its rate between collective steps.
		s.rto.Stop()
	}
	s.pump()
}

// onTimeout retransmits from the ack point after silence.
func (s *SenderQP) onTimeout() {
	if !s.Outstanding() {
		return
	}
	s.stats.Timeouts++
	s.rtoStreak++
	if s.entropy != nil {
		s.entropy.OnTimeout()
	}
	switch s.nic.cfg.Transport {
	case SelectiveRepeat, Ideal:
		s.queueRetransmit(s.cumAck)
	case GoBackN:
		if s.cumAck.Before(s.sendPSN) {
			s.sendPSN = s.cumAck
		}
	}
	if s.dcqcn != nil && s.nic.cfg.Transport != Ideal {
		s.dcqcn.OnTimeout()
	}
	s.rto.Reset(s.curRTO())
	s.pump()
}

// Close quiesces the QP: the RTO timer, any scheduled pacer event, and the
// DCQCN rate machine are cancelled so a retired sender leaves nothing in the
// event queue. Posted-but-incomplete messages are abandoned without firing
// their completion callbacks (the churn workload closes QPs only after the
// transfer completes; an operator teardown mid-message models a torn-down
// connection, whose completions will never arrive anyway).
func (s *SenderQP) Close() {
	s.rto.Stop()
	if s.pumpEv != nil {
		s.nic.engine.Cancel(s.pumpEv)
		s.pumpEv = nil
	}
	if s.dcqcn != nil {
		s.dcqcn.Stop()
	}
}

package rnic

import (
	"testing"

	"themis/internal/packet"
	"themis/internal/sim"
)

// capture is a NIC inject sink recording emitted packets.
type capture struct {
	pkts []*packet.Packet
}

func (c *capture) inject(p *packet.Packet) { c.pkts = append(c.pkts, p) }

func (c *capture) byKind(k packet.Kind) []*packet.Packet {
	var out []*packet.Packet
	for _, p := range c.pkts {
		if p.Kind == k {
			out = append(out, p)
		}
	}
	return out
}

func newTestNIC(e *sim.Engine, id packet.NodeID, tr Transport, sink *capture) *NIC {
	return New(e, id, Config{
		LineRate:  100e9,
		Transport: tr,
		DisableCC: true,
		RTO:       sim.Second, // out of the way for unit tests
	}, sink.inject)
}

// runFor advances the engine by d from its current time. Sender-side unit
// tests cannot use RunAll: with no ACK path the RTO re-arms forever.
func runFor(e *sim.Engine, d sim.Duration) { e.Run(e.Now().Add(d)) }

func data(qp packet.QPID, src, dst packet.NodeID, psn packet.PSN, payload int) *packet.Packet {
	return &packet.Packet{Kind: packet.Data, Src: src, Dst: dst, QP: qp, SPort: 7, DPort: 4791, PSN: psn, Payload: payload}
}

// --- ReceiverQP unit tests (the §2.2 NIC-SR contract) ---

func TestReceiverInOrderAcks(t *testing.T) {
	e := sim.NewEngine(1)
	var sink capture
	n := newTestNIC(e, 1, SelectiveRepeat, &sink)
	r := n.OpenReceiver(1, 0, 7)
	for psn := packet.PSN(0); psn < 5; psn++ {
		r.onData(data(1, 0, 1, psn, 1000))
	}
	if r.EPSN() != 5 {
		t.Fatalf("ePSN = %d", r.EPSN())
	}
	acks := sink.byKind(packet.Ack)
	if len(acks) != 5 {
		t.Fatalf("acks = %d", len(acks))
	}
	if acks[4].PSN != 5 {
		t.Fatalf("last ack ePSN = %d", acks[4].PSN)
	}
	if len(sink.byKind(packet.Nack)) != 0 {
		t.Fatal("in-order arrivals generated NACKs")
	}
	if r.Stats().BytesRecv != 5000 {
		t.Fatalf("bytes = %d", r.Stats().BytesRecv)
	}
}

func TestReceiverOneNackPerEPSN(t *testing.T) {
	e := sim.NewEngine(1)
	var sink capture
	n := newTestNIC(e, 1, SelectiveRepeat, &sink)
	r := n.OpenReceiver(1, 0, 7)
	// ePSN = 0; three OOO arrivals must yield exactly one NACK(0).
	r.onData(data(1, 0, 1, 1, 1000))
	r.onData(data(1, 0, 1, 2, 1000))
	r.onData(data(1, 0, 1, 3, 1000))
	nacks := sink.byKind(packet.Nack)
	if len(nacks) != 1 || nacks[0].PSN != 0 {
		t.Fatalf("nacks = %v", nacks)
	}
	if r.Stats().OutOfOrder != 3 {
		t.Fatalf("OOO = %d", r.Stats().OutOfOrder)
	}
}

func TestReceiverBitmapDrain(t *testing.T) {
	e := sim.NewEngine(1)
	var sink capture
	n := newTestNIC(e, 1, SelectiveRepeat, &sink)
	r := n.OpenReceiver(1, 0, 7)
	r.onData(data(1, 0, 1, 1, 1000))
	r.onData(data(1, 0, 1, 2, 1000))
	r.onData(data(1, 0, 1, 0, 1000)) // fills the hole
	if r.EPSN() != 3 {
		t.Fatalf("ePSN = %d after drain", r.EPSN())
	}
	// The ack after the hole fill carries ePSN 3.
	acks := sink.byKind(packet.Ack)
	if len(acks) == 0 || acks[len(acks)-1].PSN != 3 {
		t.Fatalf("acks = %v", acks)
	}
}

func TestReceiverNackAgainForNewEPSN(t *testing.T) {
	e := sim.NewEngine(1)
	var sink capture
	n := newTestNIC(e, 1, SelectiveRepeat, &sink)
	r := n.OpenReceiver(1, 0, 7)
	r.onData(data(1, 0, 1, 1, 1000)) // NACK(0)
	r.onData(data(1, 0, 1, 0, 1000)) // ePSN -> 2
	r.onData(data(1, 0, 1, 3, 1000)) // NACK(2): new ePSN value
	nacks := sink.byKind(packet.Nack)
	if len(nacks) != 2 || nacks[0].PSN != 0 || nacks[1].PSN != 2 {
		t.Fatalf("nacks = %+v", nacks)
	}
}

func TestReceiverDuplicateReAcks(t *testing.T) {
	e := sim.NewEngine(1)
	var sink capture
	n := newTestNIC(e, 1, SelectiveRepeat, &sink)
	r := n.OpenReceiver(1, 0, 7)
	r.onData(data(1, 0, 1, 0, 1000))
	before := len(sink.byKind(packet.Ack))
	r.onData(data(1, 0, 1, 0, 1000)) // duplicate
	if r.Stats().Duplicates != 1 {
		t.Fatal("duplicate not counted")
	}
	if got := len(sink.byKind(packet.Ack)); got != before+1 {
		t.Fatal("duplicate did not trigger re-ack")
	}
	if r.Stats().BytesRecv != 1000 {
		t.Fatal("duplicate payload double-counted")
	}
}

func TestReceiverGBNDropsOOO(t *testing.T) {
	e := sim.NewEngine(1)
	var sink capture
	n := newTestNIC(e, 1, GoBackN, &sink)
	r := n.OpenReceiver(1, 0, 7)
	r.onData(data(1, 0, 1, 1, 1000))
	r.onData(data(1, 0, 1, 2, 1000))
	if r.Stats().GBNDrops != 2 {
		t.Fatalf("GBN drops = %d", r.Stats().GBNDrops)
	}
	if len(sink.byKind(packet.Nack)) != 1 {
		t.Fatal("GBN should NACK once per ePSN")
	}
	// The dropped packets are NOT buffered: delivering 0 advances only to 1.
	r.onData(data(1, 0, 1, 0, 1000))
	if r.EPSN() != 1 {
		t.Fatalf("GBN ePSN = %d, want 1", r.EPSN())
	}
}

func TestReceiverIdealNeverNacks(t *testing.T) {
	e := sim.NewEngine(1)
	var sink capture
	n := newTestNIC(e, 1, Ideal, &sink)
	r := n.OpenReceiver(1, 0, 7)
	for _, psn := range []packet.PSN{3, 1, 2, 7, 5} {
		r.onData(data(1, 0, 1, psn, 1000))
	}
	if len(sink.byKind(packet.Nack)) != 0 {
		t.Fatal("ideal receiver NACKed")
	}
	r.onData(data(1, 0, 1, 0, 1000))
	if r.EPSN() != 4 {
		t.Fatalf("ideal ePSN = %d, want 4", r.EPSN())
	}
}

func TestReceiverCNPRateLimit(t *testing.T) {
	e := sim.NewEngine(1)
	var sink capture
	n := New(e, 1, Config{LineRate: 100e9, DisableCC: true}, sink.inject)
	r := n.OpenReceiver(1, 0, 7)
	mk := func(psn packet.PSN) *packet.Packet {
		p := data(1, 0, 1, psn, 1000)
		p.ECN = true
		return p
	}
	r.onData(mk(0))
	r.onData(mk(1))                                                // same instant: suppressed
	e.At(sim.Time(10*sim.Microsecond), func() { r.onData(mk(2)) }) // inside interval
	e.At(sim.Time(60*sim.Microsecond), func() { r.onData(mk(3)) }) // outside
	e.RunAll()
	if got := len(sink.byKind(packet.Cnp)); got != 2 {
		t.Fatalf("CNPs = %d, want 2", got)
	}
}

func TestReceiverOnDeliverCallback(t *testing.T) {
	e := sim.NewEngine(1)
	var sink capture
	n := newTestNIC(e, 1, SelectiveRepeat, &sink)
	r := n.OpenReceiver(1, 0, 7)
	var delivered []packet.PSN
	r.OnDeliver = func(_ sim.Time, psn packet.PSN, _ int) { delivered = append(delivered, psn) }
	r.onData(data(1, 0, 1, 1, 1000))
	r.onData(data(1, 0, 1, 0, 1000))
	if len(delivered) != 2 || delivered[0] != 0 || delivered[1] != 1 {
		t.Fatalf("delivered = %v (must be in order)", delivered)
	}
}

// --- SenderQP unit tests ---

func TestSenderPacketization(t *testing.T) {
	e := sim.NewEngine(1)
	var sink capture
	n := newTestNIC(e, 0, SelectiveRepeat, &sink)
	s := n.OpenSender(1, 1, 7)
	s.SendMessage(3500, nil) // MTU 1500: 1500+1500+500
	runFor(e, 100*sim.Microsecond)
	ds := sink.byKind(packet.Data)
	if len(ds) != 3 {
		t.Fatalf("packets = %d", len(ds))
	}
	if ds[0].Payload != 1500 || ds[1].Payload != 1500 || ds[2].Payload != 500 {
		t.Fatalf("payloads = %d,%d,%d", ds[0].Payload, ds[1].Payload, ds[2].Payload)
	}
	for i, p := range ds {
		if p.PSN != packet.PSN(i) {
			t.Fatalf("psn sequence broken at %d", i)
		}
		if p.Retransmit {
			t.Fatal("fresh packet marked retransmit")
		}
	}
}

func TestSenderPacingGaps(t *testing.T) {
	e := sim.NewEngine(1)
	var sink capture
	var times []sim.Time
	n := New(e, 0, Config{LineRate: 100e9, DisableCC: true}, func(p *packet.Packet) {
		sink.inject(p)
		times = append(times, e.Now())
	})
	s := n.OpenSender(1, 1, 7)
	s.SendMessage(4500, nil) // 3 full packets
	runFor(e, 100*sim.Microsecond)
	gap := sim.TransmitTime(1500+packet.HeaderBytes, 100e9)
	for i := 1; i < len(times); i++ {
		if got := times[i].Sub(times[i-1]); got != gap {
			t.Fatalf("pacing gap %d = %v, want %v", i, got, gap)
		}
	}
}

func TestSenderCompletionOnCumAck(t *testing.T) {
	e := sim.NewEngine(1)
	var sink capture
	n := newTestNIC(e, 0, SelectiveRepeat, &sink)
	s := n.OpenSender(1, 1, 7)
	done := 0
	s.SendMessage(3000, func() { done++ })
	runFor(e, 100*sim.Microsecond)
	if done != 0 {
		t.Fatal("completed without acks")
	}
	s.onAck(&packet.Packet{Kind: packet.Ack, QP: 1, PSN: 1})
	if done != 0 {
		t.Fatal("completed on partial ack")
	}
	s.onAck(&packet.Packet{Kind: packet.Ack, QP: 1, PSN: 2})
	if done != 1 {
		t.Fatal("not completed on full ack")
	}
	if s.Stats().GoodputBytes != 3000 {
		t.Fatalf("goodput = %d", s.Stats().GoodputBytes)
	}
	if s.Outstanding() {
		t.Fatal("still outstanding after full ack")
	}
}

func TestSenderNackRetransmitsOnlyEPSN(t *testing.T) {
	e := sim.NewEngine(1)
	var sink capture
	n := newTestNIC(e, 0, SelectiveRepeat, &sink)
	s := n.OpenSender(1, 1, 7)
	s.SendMessage(6000, nil) // PSNs 0..3
	runFor(e, 100*sim.Microsecond)
	sink.pkts = nil
	s.onNack(&packet.Packet{Kind: packet.Nack, QP: 1, PSN: 2})
	runFor(e, 100*sim.Microsecond)
	ds := sink.byKind(packet.Data)
	if len(ds) != 1 || ds[0].PSN != 2 || !ds[0].Retransmit {
		t.Fatalf("retransmissions = %+v", ds)
	}
	if s.Stats().Retransmits != 1 {
		t.Fatalf("retransmit count = %d", s.Stats().Retransmits)
	}
	// NACK(2) also acked PSNs 0,1.
	if s.Stats().GoodputBytes != 3000 {
		t.Fatalf("goodput = %d", s.Stats().GoodputBytes)
	}
}

func TestSenderEachNackRetransmitsImmediately(t *testing.T) {
	e := sim.NewEngine(1)
	var sink capture
	n := newTestNIC(e, 0, SelectiveRepeat, &sink)
	s := n.OpenSender(1, 1, 7)
	// A long message keeps the pacer busy; NACK retransmissions bypass it
	// and go out immediately, once per NACK (the NIC is stateless here).
	s.SendMessage(150000, nil)
	runFor(e, 2*sim.Microsecond)
	before := len(sink.byKind(packet.Data))
	s.onNack(&packet.Packet{Kind: packet.Nack, QP: 1, PSN: 0})
	s.onNack(&packet.Packet{Kind: packet.Nack, QP: 1, PSN: 0})
	rtx := 0
	for _, p := range sink.byKind(packet.Data)[before:] {
		if p.Retransmit && p.PSN == 0 {
			rtx++
		}
	}
	if rtx != 2 {
		t.Fatalf("retransmissions = %d, want one per NACK", rtx)
	}
	// An acked PSN is never retransmitted.
	s.onAck(&packet.Packet{Kind: packet.Ack, QP: 1, PSN: 5})
	before = len(sink.byKind(packet.Data))
	s.onNack(&packet.Packet{Kind: packet.Nack, QP: 1, PSN: 3})
	if got := len(sink.byKind(packet.Data)); got != before {
		t.Fatal("retransmitted an already-acked PSN")
	}
}

func TestSenderGBNRewind(t *testing.T) {
	e := sim.NewEngine(1)
	var sink capture
	n := newTestNIC(e, 0, GoBackN, &sink)
	s := n.OpenSender(1, 1, 7)
	s.SendMessage(6000, nil) // PSNs 0..3
	runFor(e, 100*sim.Microsecond)
	sink.pkts = nil
	s.onNack(&packet.Packet{Kind: packet.Nack, QP: 1, PSN: 1})
	runFor(e, 100*sim.Microsecond)
	ds := sink.byKind(packet.Data)
	if len(ds) != 3 {
		t.Fatalf("GBN resent %d packets, want 3 (PSNs 1..3)", len(ds))
	}
	for i, p := range ds {
		if p.PSN != packet.PSN(1+i) || !p.Retransmit {
			t.Fatalf("GBN rewind packet %d = %+v", i, p)
		}
	}
}

func TestSenderRTORetransmit(t *testing.T) {
	e := sim.NewEngine(1)
	var sink capture
	n := New(e, 0, Config{LineRate: 100e9, DisableCC: true, RTO: 100 * sim.Microsecond}, sink.inject)
	s := n.OpenSender(1, 1, 7)
	s.SendMessage(1500, nil)
	runFor(e, 350*sim.Microsecond) // nothing acked; RTO fires a few times
	if s.Stats().Timeouts == 0 {
		t.Fatal("no timeout fired")
	}
	ds := sink.byKind(packet.Data)
	if len(ds) < 2 {
		t.Fatal("timeout did not retransmit")
	}
	if !ds[1].Retransmit || ds[1].PSN != 0 {
		t.Fatalf("rto packet = %+v", ds[1])
	}
}

func TestSenderRTOStopsWhenAcked(t *testing.T) {
	e := sim.NewEngine(1)
	var sink capture
	n := New(e, 0, Config{LineRate: 100e9, DisableCC: true, RTO: 100 * sim.Microsecond}, sink.inject)
	s := n.OpenSender(1, 1, 7)
	s.SendMessage(1500, nil)
	e.Run(sim.Time(50 * sim.Microsecond))
	s.onAck(&packet.Packet{Kind: packet.Ack, QP: 1, PSN: 1})
	e.RunAll()
	if s.Stats().Timeouts != 0 {
		t.Fatalf("timeouts = %d after prompt ack", s.Stats().Timeouts)
	}
}

func TestSenderNackTriggersRateCut(t *testing.T) {
	e := sim.NewEngine(1)
	var sink capture
	n := New(e, 0, Config{LineRate: 100e9}, sink.inject) // CC enabled
	s := n.OpenSender(1, 1, 7)
	s.SendMessage(15000, nil)
	e.Run(sim.Time(2 * sim.Microsecond))
	r0 := s.Rate()
	s.onNack(&packet.Packet{Kind: packet.Nack, QP: 1, PSN: 0})
	if s.Rate() >= r0 {
		t.Fatalf("rate not cut on NACK: %d -> %d", r0, s.Rate())
	}
	if s.CC().Stats().Nacks != 1 {
		t.Fatal("cc did not see the NACK")
	}
}

func TestSenderIdealIgnoresNackForCC(t *testing.T) {
	e := sim.NewEngine(1)
	var sink capture
	n := New(e, 0, Config{LineRate: 100e9, Transport: Ideal}, sink.inject)
	s := n.OpenSender(1, 1, 7)
	s.SendMessage(15000, nil)
	e.Run(sim.Time(2 * sim.Microsecond))
	r0 := s.Rate()
	s.onNack(&packet.Packet{Kind: packet.Nack, QP: 1, PSN: 0})
	if s.Rate() != r0 {
		t.Fatal("ideal transport cut rate on NACK")
	}
}

func TestSenderCnpCutsRate(t *testing.T) {
	e := sim.NewEngine(1)
	var sink capture
	n := New(e, 0, Config{LineRate: 100e9}, sink.inject)
	s := n.OpenSender(1, 1, 7)
	s.SendMessage(15000, nil)
	e.Run(sim.Time(2 * sim.Microsecond))
	r0 := s.Rate()
	s.onCnp(&packet.Packet{Kind: packet.Cnp, QP: 1})
	if s.Rate() >= r0 {
		t.Fatal("CNP did not cut rate")
	}
}

func TestSenderMultipleMessagesFIFO(t *testing.T) {
	e := sim.NewEngine(1)
	var sink capture
	n := newTestNIC(e, 0, SelectiveRepeat, &sink)
	s := n.OpenSender(1, 1, 7)
	var order []int
	s.SendMessage(1500, func() { order = append(order, 1) })
	s.SendMessage(1500, func() { order = append(order, 2) })
	runFor(e, 100*sim.Microsecond)
	s.onAck(&packet.Packet{Kind: packet.Ack, QP: 1, PSN: 2})
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("completion order = %v", order)
	}
}

func TestSendMessageZeroPanics(t *testing.T) {
	e := sim.NewEngine(1)
	var sink capture
	n := newTestNIC(e, 0, SelectiveRepeat, &sink)
	s := n.OpenSender(1, 1, 7)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.SendMessage(0, nil)
}

func TestDuplicateQPPanics(t *testing.T) {
	e := sim.NewEngine(1)
	var sink capture
	n := newTestNIC(e, 0, SelectiveRepeat, &sink)
	n.OpenSender(1, 1, 7)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.OpenSender(1, 2, 8)
}

func TestNICDispatch(t *testing.T) {
	e := sim.NewEngine(1)
	var sink capture
	n := newTestNIC(e, 0, SelectiveRepeat, &sink)
	s := n.OpenSender(1, 1, 7)
	r := n.OpenReceiver(2, 1, 9)
	s.SendMessage(1500, nil)
	runFor(e, 100*sim.Microsecond)
	n.HandlePacket(&packet.Packet{Kind: packet.Ack, QP: 1, PSN: 1})
	if s.Stats().AcksRx != 1 {
		t.Fatal("ack not dispatched")
	}
	n.HandlePacket(data(2, 1, 0, 0, 500))
	if r.Stats().DataRx != 1 {
		t.Fatal("data not dispatched")
	}
	// Unknown QP: silently ignored.
	n.HandlePacket(data(99, 1, 0, 0, 500))
	n.HandlePacket(&packet.Packet{Kind: packet.Cnp, QP: 42})
}

func TestTransportString(t *testing.T) {
	if SelectiveRepeat.String() != "nic-sr" || GoBackN.String() != "gbn" || Ideal.String() != "ideal" {
		t.Fatal("transport names")
	}
}

func TestReceiverHoleFillAcksJump(t *testing.T) {
	e := sim.NewEngine(1)
	var sink capture
	n := newTestNIC(e, 1, SelectiveRepeat, &sink)
	r := n.OpenReceiver(1, 0, 7)
	r.onData(data(1, 0, 1, 0, 1000))
	r.onData(data(1, 0, 1, 2, 1000)) // OOO: NACK(1)
	r.onData(data(1, 0, 1, 1, 1000)) // fills hole; bitmap drains
	// The hole-filling arrival ACKs the drained ePSN so the sender learns
	// about the jump.
	acks := sink.byKind(packet.Ack)
	if len(acks) == 0 || acks[len(acks)-1].PSN != 3 {
		t.Fatalf("acks = %v", acks)
	}
}

func TestSenderMessageSmallerThanMTU(t *testing.T) {
	e := sim.NewEngine(1)
	var sink capture
	n := newTestNIC(e, 0, SelectiveRepeat, &sink)
	s := n.OpenSender(1, 1, 7)
	done := false
	s.SendMessage(100, func() { done = true })
	runFor(e, 10*sim.Microsecond)
	ds := sink.byKind(packet.Data)
	if len(ds) != 1 || ds[0].Payload != 100 {
		t.Fatalf("packets = %+v", ds)
	}
	s.onAck(&packet.Packet{Kind: packet.Ack, QP: 1, PSN: 1})
	if !done {
		t.Fatal("not completed")
	}
	if s.Stats().GoodputBytes != 100 {
		t.Fatalf("goodput = %d", s.Stats().GoodputBytes)
	}
}

func TestSenderTailSizesAcrossMessages(t *testing.T) {
	e := sim.NewEngine(1)
	var sink capture
	n := newTestNIC(e, 0, SelectiveRepeat, &sink)
	s := n.OpenSender(1, 1, 7)
	s.SendMessage(2000, nil) // 1500 + 500 (PSNs 0,1)
	s.SendMessage(700, nil)  // 700        (PSN 2)
	runFor(e, 10*sim.Microsecond)
	ds := sink.byKind(packet.Data)
	if len(ds) != 3 || ds[0].Payload != 1500 || ds[1].Payload != 500 || ds[2].Payload != 700 {
		t.Fatalf("payloads = %+v", ds)
	}
	// Retransmission of a tail packet reproduces its size.
	sink.pkts = nil
	s.onNack(&packet.Packet{Kind: packet.Nack, QP: 1, PSN: 1})
	rtx := sink.byKind(packet.Data)
	if len(rtx) != 1 || rtx[0].Payload != 500 || !rtx[0].Retransmit {
		t.Fatalf("rtx = %+v", rtx)
	}
}

func TestSenderGBNTimeoutRewinds(t *testing.T) {
	e := sim.NewEngine(1)
	var sink capture
	n := New(e, 0, Config{LineRate: 100e9, DisableCC: true, Transport: GoBackN, RTO: 100 * sim.Microsecond}, sink.inject)
	s := n.OpenSender(1, 1, 7)
	s.SendMessage(4500, nil) // PSNs 0..2
	runFor(e, 150*sim.Microsecond)
	if s.Stats().Timeouts == 0 {
		t.Fatal("no timeout")
	}
	ds := sink.byKind(packet.Data)
	// 3 originals + at least 3 rewound retransmissions.
	if len(ds) < 6 {
		t.Fatalf("packets = %d", len(ds))
	}
	if !ds[3].Retransmit || ds[3].PSN != 0 {
		t.Fatalf("rewind did not restart at 0: %+v", ds[3])
	}
}

func TestSenderRateNeverExceedsLine(t *testing.T) {
	e := sim.NewEngine(1)
	var sink capture
	n := New(e, 0, Config{LineRate: 100e9}, sink.inject) // CC on
	s := n.OpenSender(1, 1, 7)
	s.SendMessage(1<<20, nil)
	runFor(e, 200*sim.Microsecond)
	if s.Rate() > 100e9 {
		t.Fatalf("rate %d above line", s.Rate())
	}
}

func TestNackForAckedRangeHarmless(t *testing.T) {
	e := sim.NewEngine(1)
	var sink capture
	n := newTestNIC(e, 0, SelectiveRepeat, &sink)
	s := n.OpenSender(1, 1, 7)
	s.SendMessage(15000, nil)
	runFor(e, 10*sim.Microsecond)
	s.onAck(&packet.Packet{Kind: packet.Ack, QP: 1, PSN: 10})
	sink.pkts = nil
	// A stale NACK below the ack point: no retransmission, no crash.
	s.onNack(&packet.Packet{Kind: packet.Nack, QP: 1, PSN: 3})
	if got := len(sink.byKind(packet.Data)); got != 0 {
		t.Fatalf("stale NACK retransmitted %d packets", got)
	}
}

// --- RTO backoff (fault tolerance hardening) ---

func TestRTOBackoffDefaultsOff(t *testing.T) {
	cfg := Config{LineRate: 100e9}.withDefaults()
	if cfg.RTOBackoff != 1 {
		t.Fatalf("default backoff = %f", cfg.RTOBackoff)
	}
	if cfg.RTOMax != 0 {
		t.Fatalf("default RTOMax = %v without backoff", cfg.RTOMax)
	}
	boff := Config{LineRate: 100e9, RTO: sim.Millisecond, RTOBackoff: 2}.withDefaults()
	if boff.RTOMax != 100*sim.Millisecond {
		t.Fatalf("backoff RTOMax default = %v", boff.RTOMax)
	}
}

func TestRTOExponentialBackoffAndCap(t *testing.T) {
	e := sim.NewEngine(1)
	var sink capture
	n := New(e, 0, Config{
		LineRate: 100e9, Transport: SelectiveRepeat, DisableCC: true,
		RTO: 100 * sim.Microsecond, RTOBackoff: 2, RTOMax: 400 * sim.Microsecond,
	}, sink.inject)
	s := n.OpenSender(1, 1, 7)
	s.SendMessage(1000, nil)
	// No ACKs ever arrive: timeouts fire at t0+100us, then backed off by 2x
	// each time (200, 400) until the 400us cap holds (800 -> 400).
	var fired []sim.Time
	prevTimeouts := uint64(0)
	for i := 0; i < 5; i++ {
		deadline := s.rto.Deadline()
		e.Run(deadline)
		if s.Stats().Timeouts != prevTimeouts+1 {
			t.Fatalf("timeout %d did not fire (total %d)", i, s.Stats().Timeouts)
		}
		prevTimeouts = s.Stats().Timeouts
		fired = append(fired, e.Now())
	}
	gaps := make([]sim.Duration, 0, 4)
	for i := 1; i < len(fired); i++ {
		gaps = append(gaps, fired[i].Sub(fired[i-1]))
	}
	want := []sim.Duration{200 * sim.Microsecond, 400 * sim.Microsecond, 400 * sim.Microsecond, 400 * sim.Microsecond}
	for i, w := range want {
		if gaps[i] != w {
			t.Fatalf("gap %d = %v, want %v (gaps %v)", i, gaps[i], w, gaps)
		}
	}
}

func TestRTOBackoffResetsOnAckProgress(t *testing.T) {
	e := sim.NewEngine(1)
	var sink capture
	n := New(e, 0, Config{
		LineRate: 100e9, Transport: SelectiveRepeat, DisableCC: true,
		RTO: 100 * sim.Microsecond, RTOBackoff: 2, RTOMax: sim.Second,
	}, sink.inject)
	s := n.OpenSender(1, 1, 7)
	s.SendMessage(10000, nil)
	runFor(e, 10*sim.Microsecond)
	// Two barren timeouts raise the streak.
	e.Run(s.rto.Deadline())
	e.Run(s.rto.Deadline())
	if s.rtoStreak != 2 {
		t.Fatalf("streak = %d", s.rtoStreak)
	}
	// Partial ack progress resets the streak and re-arms at the base RTO.
	s.onAck(&packet.Packet{Kind: packet.Ack, QP: 1, PSN: 2})
	if s.rtoStreak != 0 {
		t.Fatalf("streak after ack = %d", s.rtoStreak)
	}
	if got := s.rto.Deadline().Sub(e.Now()); got != 100*sim.Microsecond {
		t.Fatalf("re-armed RTO = %v, want base 100us", got)
	}
}

func TestRTOFixedWithoutBackoff(t *testing.T) {
	e := sim.NewEngine(1)
	var sink capture
	n := New(e, 0, Config{
		LineRate: 100e9, Transport: SelectiveRepeat, DisableCC: true,
		RTO: 100 * sim.Microsecond,
	}, sink.inject)
	s := n.OpenSender(1, 1, 7)
	s.SendMessage(1000, nil)
	var fired []sim.Time
	for i := 0; i < 3; i++ {
		e.Run(s.rto.Deadline())
		fired = append(fired, e.Now())
	}
	for i := 1; i < len(fired); i++ {
		if got := fired[i].Sub(fired[i-1]); got != 100*sim.Microsecond {
			t.Fatalf("gap %d = %v, want fixed 100us", i, got)
		}
	}
}

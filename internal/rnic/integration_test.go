package rnic_test

import (
	"testing"

	"themis/internal/fabric"
	"themis/internal/lb"
	"themis/internal/packet"
	"themis/internal/rnic"
	"themis/internal/sim"
	"themis/internal/topo"
)

// testbed wires a leaf-spine fabric with one NIC per host.
type testbed struct {
	engine *sim.Engine
	net    *fabric.Network
	nics   []*rnic.NIC
}

func newTestbed(t *testing.T, spines int, fcfg fabric.Config, ncfg rnic.Config) *testbed {
	t.Helper()
	tp, err := topo.NewLeafSpine(topo.LeafSpineConfig{
		Leaves: 2, Spines: spines, HostsPerLeaf: 2,
		HostLink:   topo.LinkSpec{Bandwidth: 100e9, Delay: sim.Microsecond},
		FabricLink: topo.LinkSpec{Bandwidth: 100e9, Delay: sim.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine(7)
	n := fabric.NewNetwork(e, tp, fcfg)
	if ncfg.LineRate == 0 {
		ncfg.LineRate = 100e9
	}
	tb := &testbed{engine: e, net: n}
	for h := 0; h < tp.NumHosts(); h++ {
		id := packet.NodeID(h)
		nic := rnic.New(e, id, ncfg, func(p *packet.Packet) { n.Inject(id, p) })
		n.AttachHost(id, nic.HandlePacket)
		tb.nics = append(tb.nics, nic)
	}
	return tb
}

// connect opens a QP from a to b and returns the sender/receiver halves.
func (tb *testbed) connect(qp packet.QPID, a, b packet.NodeID, sport uint16) (*rnic.SenderQP, *rnic.ReceiverQP) {
	s := tb.nics[a].OpenSender(qp, b, sport)
	r := tb.nics[b].OpenReceiver(qp, a, sport)
	return s, r
}

func TestTransferECMPInOrder(t *testing.T) {
	tb := newTestbed(t, 4, fabric.Config{ControlLossless: true}, rnic.Config{})
	s, r := tb.connect(1, 0, 2, 1000) // cross-rack
	done := false
	s.SendMessage(1_000_000, func() { done = true })
	tb.engine.RunAll()
	if !done {
		t.Fatal("message did not complete")
	}
	if r.Stats().OutOfOrder != 0 {
		t.Fatalf("ECMP produced %d OOO arrivals", r.Stats().OutOfOrder)
	}
	if r.Stats().NacksTx != 0 {
		t.Fatal("NACKs on a loss-free single path")
	}
	if s.Stats().Retransmits != 0 {
		t.Fatal("retransmits on a loss-free single path")
	}
	if r.Stats().BytesRecv != 1_000_000 {
		t.Fatalf("receiver bytes = %d", r.Stats().BytesRecv)
	}
}

func TestTransferSprayNICSRSpuriousNacks(t *testing.T) {
	tb := newTestbed(t, 4, fabric.Config{
		ControlLossless: true,
		NewDataSelector: func() lb.Selector { return lb.RandomSpray{} },
	}, rnic.Config{Transport: rnic.SelectiveRepeat})
	s, r := tb.connect(1, 0, 2, 1000)
	done := false
	s.SendMessage(2_000_000, func() { done = true })
	tb.engine.RunAll()
	if !done {
		t.Fatal("message did not complete")
	}
	// No loss occurred, yet NIC-SR NACKs OOO arrivals (the paper's §2.2
	// pathology): spurious retransmissions happen.
	if tb.net.Counters().DataDrops != 0 {
		t.Fatal("unexpected drops")
	}
	if r.Stats().OutOfOrder == 0 {
		t.Fatal("spraying produced no OOO arrivals")
	}
	if r.Stats().NacksTx == 0 {
		t.Fatal("NIC-SR sent no NACKs for OOO arrivals")
	}
	if s.Stats().Retransmits == 0 {
		t.Fatal("no spurious retransmissions")
	}
	if r.Stats().BytesRecv != 2_000_000 {
		t.Fatalf("receiver bytes = %d", r.Stats().BytesRecv)
	}
}

func TestTransferSprayIdealClean(t *testing.T) {
	tb := newTestbed(t, 4, fabric.Config{
		ControlLossless: true,
		NewDataSelector: func() lb.Selector { return lb.RandomSpray{} },
	}, rnic.Config{Transport: rnic.Ideal})
	s, r := tb.connect(1, 0, 2, 1000)
	done := false
	s.SendMessage(2_000_000, func() { done = true })
	tb.engine.RunAll()
	if !done {
		t.Fatal("message did not complete")
	}
	if r.Stats().NacksTx != 0 || s.Stats().Retransmits != 0 {
		t.Fatalf("ideal transport: nacks=%d retrans=%d", r.Stats().NacksTx, s.Stats().Retransmits)
	}
}

func TestTransferLossRecoveryECMP(t *testing.T) {
	dropped := false
	tb := newTestbed(t, 2, fabric.Config{ControlLossless: true}, rnic.Config{Transport: rnic.SelectiveRepeat})
	tb.net.SetLossFunc(func(p *packet.Packet, sw, port int) bool {
		if !dropped && p.Kind == packet.Data && p.PSN == 50 && sw < 2 {
			dropped = true
			return true
		}
		return false
	})
	s, r := tb.connect(1, 0, 2, 1000)
	done := false
	s.SendMessage(1_000_000, func() { done = true })
	tb.engine.RunAll()
	if !done {
		t.Fatal("message did not complete after a real loss")
	}
	if !dropped {
		t.Fatal("loss was not injected")
	}
	// The loss was detected via NACK (OOO on the same path) and repaired.
	if s.Stats().Retransmits == 0 {
		t.Fatal("no retransmission repaired the loss")
	}
	if r.Stats().BytesRecv != 1_000_000 {
		t.Fatalf("receiver bytes = %d", r.Stats().BytesRecv)
	}
}

func TestTransferTailLossTimeout(t *testing.T) {
	// Drop the very last packet: no subsequent OOO arrival can trigger a
	// NACK, so only the RTO can recover.
	dropped := false
	tb := newTestbed(t, 1, fabric.Config{ControlLossless: true}, rnic.Config{Transport: rnic.SelectiveRepeat, RTO: 200 * sim.Microsecond})
	tb.net.SetLossFunc(func(p *packet.Packet, sw, port int) bool {
		if !dropped && p.Kind == packet.Data && p.PSN == 66 && sw < 2 {
			dropped = true
			return true
		}
		return false
	})
	s, _ := tb.connect(1, 0, 2, 1000)
	done := false
	s.SendMessage(100_000, func() { done = true }) // 67 packets: PSN 66 is last
	tb.engine.RunAll()
	if !done {
		t.Fatal("tail loss not recovered")
	}
	if s.Stats().Timeouts == 0 {
		t.Fatal("recovery should have required a timeout")
	}
}

func TestTransferGBNSprayCompletes(t *testing.T) {
	tb := newTestbed(t, 4, fabric.Config{
		ControlLossless: true,
		NewDataSelector: func() lb.Selector { return lb.RandomSpray{} },
	}, rnic.Config{Transport: rnic.GoBackN, RTO: 500 * sim.Microsecond})
	s, r := tb.connect(1, 0, 2, 1000)
	// A competing sprayed flow on the same uplinks creates the queue-depth
	// asymmetry that actually reorders packets; a lone smoothly-paced flow
	// on equal-length paths reorders only its sub-MTU tail, and only when
	// the tail draws a different spine — far too fragile to assert on.
	s2, _ := tb.connect(2, 1, 3, 2000)
	done := false
	s.SendMessage(500_000, func() { done = true })
	s2.SendMessage(500_000, nil)
	tb.engine.RunAll()
	if !done {
		t.Fatal("GBN + spray did not complete")
	}
	if r.Stats().GBNDrops == 0 {
		t.Fatal("GBN dropped no OOO packets under spraying")
	}
	// GBN under spraying is hugely wasteful: redundancy shows up as
	// retransmissions.
	if s.Stats().Retransmits == 0 {
		t.Fatal("GBN retransmitted nothing")
	}
}

func TestCongestionCNPFlow(t *testing.T) {
	// Hosts 0 and 1 (same rack) both send to host 2: the leaf1->host2 link
	// is 2:1 oversubscribed, queues build, ECN marks flow back as CNPs and
	// DCQCN cuts the rate.
	tb := newTestbed(t, 2, fabric.Config{
		ControlLossless: true,
		ECN:             fabric.DefaultECN(100e9),
		BufferBytes:     16 << 20,
	}, rnic.Config{Transport: rnic.SelectiveRepeat})
	s0, _ := tb.connect(1, 0, 2, 1000)
	s1, _ := tb.connect(2, 1, 2, 2000)
	var doneCount int
	s0.SendMessage(4_000_000, func() { doneCount++ })
	s1.SendMessage(4_000_000, func() { doneCount++ })
	tb.engine.RunAll()
	if doneCount != 2 {
		t.Fatalf("completions = %d", doneCount)
	}
	if tb.net.Counters().EcnMarks == 0 {
		t.Fatal("no ECN marks under 2:1 congestion")
	}
	if s0.Stats().CnpsRx+s1.Stats().CnpsRx == 0 {
		t.Fatal("no CNPs delivered")
	}
	if s0.CC().Stats().Decreases+s1.CC().Stats().Decreases == 0 {
		t.Fatal("DCQCN never cut the rate")
	}
}

func TestFairnessTwoSenders(t *testing.T) {
	// Both senders should finish in comparable time under DCQCN.
	tb := newTestbed(t, 2, fabric.Config{
		ControlLossless: true,
		ECN:             fabric.DefaultECN(100e9),
		BufferBytes:     16 << 20,
	}, rnic.Config{})
	s0, _ := tb.connect(1, 0, 2, 1000)
	s1, _ := tb.connect(2, 1, 2, 2000)
	var t0, t1 sim.Time
	s0.SendMessage(2_000_000, func() { t0 = tb.engine.Now() })
	s1.SendMessage(2_000_000, func() { t1 = tb.engine.Now() })
	tb.engine.RunAll()
	if t0 == 0 || t1 == 0 {
		t.Fatal("incomplete")
	}
	ratio := float64(t0) / float64(t1)
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("grossly unfair completion: %v vs %v", t0, t1)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, sim.Time) {
		tb := &testbed{}
		tp, err := topo.NewLeafSpine(topo.LeafSpineConfig{
			Leaves: 2, Spines: 4, HostsPerLeaf: 2,
			HostLink:   topo.LinkSpec{Bandwidth: 100e9, Delay: sim.Microsecond},
			FabricLink: topo.LinkSpec{Bandwidth: 100e9, Delay: sim.Microsecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		e := sim.NewEngine(99)
		n := fabric.NewNetwork(e, tp, fabric.Config{
			ControlLossless: true,
			NewDataSelector: func() lb.Selector { return lb.RandomSpray{} },
		})
		tb.engine, tb.net = e, n
		for h := 0; h < tp.NumHosts(); h++ {
			id := packet.NodeID(h)
			nic := rnic.New(e, id, rnic.Config{LineRate: 100e9}, func(p *packet.Packet) { n.Inject(id, p) })
			n.AttachHost(id, nic.HandlePacket)
			tb.nics = append(tb.nics, nic)
		}
		s, _ := tb.connect(1, 0, 2, 1000)
		var end sim.Time
		s.SendMessage(1_000_000, func() { end = e.Now() })
		e.RunAll()
		return s.Stats().Retransmits, end
	}
	r1, e1 := run()
	r2, e2 := run()
	if r1 != r2 || e1 != e2 {
		t.Fatalf("nondeterministic: (%d,%v) vs (%d,%v)", r1, e1, r2, e2)
	}
}

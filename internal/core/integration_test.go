package core_test

import (
	"testing"

	"themis/internal/core"
	"themis/internal/fabric"
	"themis/internal/lb"
	"themis/internal/packet"
	"themis/internal/rnic"
	"themis/internal/sim"
	"themis/internal/topo"
)

// bed is a full stack: topology + fabric + NICs + Themis on every ToR.
type bed struct {
	engine *sim.Engine
	topo   *topo.Topology
	net    *fabric.Network
	nics   []*rnic.NIC
	themis map[int]*core.Themis // by ToR switch ID
}

func newBed(t *testing.T, tp *topo.Topology, fcfg fabric.Config, ncfg rnic.Config, tcfg core.Config, withThemis bool) *bed {
	t.Helper()
	e := sim.NewEngine(11)
	n := fabric.NewNetwork(e, tp, fcfg)
	b := &bed{engine: e, topo: tp, net: n, themis: make(map[int]*core.Themis)}
	if ncfg.LineRate == 0 {
		ncfg.LineRate = 100e9
	}
	for h := 0; h < tp.NumHosts(); h++ {
		id := packet.NodeID(h)
		nic := rnic.New(e, id, ncfg, func(p *packet.Packet) { n.Inject(id, p) })
		n.AttachHost(id, nic.HandlePacket)
		b.nics = append(b.nics, nic)
	}
	if withThemis {
		for _, sw := range tp.Switches() {
			if sw.Tier == 0 && len(sw.Hosts()) > 0 {
				th := core.New(tp, sw.ID, tcfg)
				n.SetTorPipeline(sw.ID, th)
				b.themis[sw.ID] = th
			}
		}
	}
	return b
}

// flow opens a QP end to end and registers it with the relevant ToRs.
func (b *bed) flow(t *testing.T, qp packet.QPID, src, dst packet.NodeID, sport uint16) (*rnic.SenderQP, *rnic.ReceiverQP) {
	t.Helper()
	s := b.nics[src].OpenSender(qp, dst, sport)
	r := b.nics[dst].OpenReceiver(qp, src, sport)
	for _, th := range b.themis {
		if err := th.RegisterFlow(qp, src, dst, sport); err != nil {
			t.Fatal(err)
		}
	}
	return s, r
}

func leafSpineT(t *testing.T, leaves, spines, hosts int, bw int64) *topo.Topology {
	t.Helper()
	tp, err := topo.NewLeafSpine(topo.LeafSpineConfig{
		Leaves: leaves, Spines: spines, HostsPerLeaf: hosts,
		HostLink:   topo.LinkSpec{Bandwidth: bw, Delay: sim.Microsecond},
		FabricLink: topo.LinkSpec{Bandwidth: bw, Delay: sim.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// contended returns a 2-leaf x 2-spine fabric with four hosts per leaf: the
// uplinks are 2:1 oversubscribed, so DCQCN runs hot and the probabilistic
// ECN marking desynchronizes the senders — the multi-path delay variation
// that makes spraying reorder packets, exactly the regime of §2.2.
func contendedConfig() fabric.Config {
	return fabric.Config{
		ControlLossless: true,
		BufferBytes:     64 << 20,
		ECN:             fabric.DefaultECN(100e9),
	}
}

func TestThemisSprayNoLossNoSpuriousRetransmit(t *testing.T) {
	tp := leafSpineT(t, 2, 2, 4, 100e9)
	b := newBed(t, tp, contendedConfig(), rnic.Config{BurstBytes: 16 << 10}, core.Config{}, true)
	var senders []*rnic.SenderQP
	var receivers []*rnic.ReceiverQP
	done := 0
	for i := 0; i < 4; i++ {
		s, r := b.flow(t, packet.QPID(i+1), packet.NodeID(i), packet.NodeID(4+i), uint16(1000+i))
		s.SendMessage(4_000_000, func() { done++ })
		senders = append(senders, s)
		receivers = append(receivers, r)
	}
	b.engine.RunAll()
	if done != 4 {
		t.Fatalf("completions = %d", done)
	}
	if b.net.Counters().DataDrops != 0 {
		t.Fatal("unexpected drops")
	}
	var ooo, nacksTx, retrans, nacksRx uint64
	for i := range senders {
		ooo += receivers[i].Stats().OutOfOrder
		nacksTx += receivers[i].Stats().NacksTx
		retrans += senders[i].Stats().Retransmits
		nacksRx += senders[i].Stats().NacksRx
	}
	// Spraying produced OOO arrivals and NIC-SR NACKed them...
	if ooo == 0 {
		t.Fatal("no OOO under contended spraying")
	}
	if nacksTx == 0 {
		t.Fatal("receivers never NACKed")
	}
	// ...but Themis blocked every invalid NACK, so zero spurious
	// retransmissions and zero NACK-triggered slow starts.
	if retrans != 0 {
		t.Fatalf("spurious retransmits = %d with Themis", retrans)
	}
	if nacksRx != 0 {
		t.Fatalf("NACKs reached senders: %d", nacksRx)
	}
	dstTor := b.themis[tp.ToROf(4)]
	if dstTor.Stats().NacksBlocked == 0 {
		t.Fatal("Themis-D blocked nothing")
	}
	if dstTor.Stats().NacksForwarded != 0 {
		t.Fatalf("forwarded %d NACKs with no loss", dstTor.Stats().NacksForwarded)
	}
}

func TestThemisUsesAllSpines(t *testing.T) {
	tp := leafSpineT(t, 2, 4, 1, 100e9)
	b := newBed(t, tp, fabric.Config{ControlLossless: true}, rnic.Config{}, core.Config{}, true)
	s, _ := b.flow(t, 1, 0, 1, 1000)
	s.SendMessage(1_000_000, nil)
	b.engine.RunAll()
	// Leaf 0 uplinks are ports 1..4; each must carry ~1/4 of the packets.
	var counts [4]uint64
	total := uint64(0)
	for i := 0; i < 4; i++ {
		counts[i], _ = b.net.PortTxStats(0, 1+i)
		total += counts[i]
	}
	for i, c := range counts {
		if c < total/8 {
			t.Fatalf("uplink %d underused: %v of %d", i, counts, total)
		}
	}
}

func TestThemisLossRecoveredWithoutTimeout(t *testing.T) {
	dropped := false
	tp := leafSpineT(t, 2, 4, 2, 100e9)
	b := newBed(t, tp, fabric.Config{ControlLossless: true}, rnic.Config{RTO: 10 * sim.Millisecond}, core.Config{}, true)
	b.net.SetLossFunc(func(p *packet.Packet, sw, port int) bool {
		if !dropped && p.PSN == 40 && sw < 2 {
			dropped = true
			return true
		}
		return false
	})
	s, r := b.flow(t, 1, 0, 2, 1000)
	var end sim.Time
	s.SendMessage(1_000_000, func() { end = b.engine.Now() })
	b.engine.RunAll()
	if end == 0 {
		t.Fatal("did not complete")
	}
	if !dropped {
		t.Fatal("loss not injected")
	}
	if s.Stats().Timeouts != 0 {
		t.Fatal("loss recovery fell back to RTO — NACK path broken")
	}
	if s.Stats().Retransmits != 1 {
		t.Fatalf("retransmits = %d, want exactly the lost packet", s.Stats().Retransmits)
	}
	if r.Stats().BytesRecv != 1_000_000 {
		t.Fatalf("receiver bytes = %d", r.Stats().BytesRecv)
	}
	// Recovery was via a forwarded valid NACK or a compensation NACK.
	th := b.themis[tp.ToROf(2)]
	if th.Stats().NacksForwarded == 0 && th.Stats().Compensations == 0 {
		t.Fatalf("no recovery path used: %+v", th.Stats())
	}
}

func TestThemisCompensationAblationFallsBackToRTO(t *testing.T) {
	// Count timeouts with compensation on vs off under identical loss. With
	// compensation disabled, a blocked NACK for a real loss can only be
	// repaired by the sender's RTO.
	run := func(disable bool) uint64 {
		dropped := false
		tp := leafSpineT(t, 2, 4, 2, 100e9)
		b := newBed(t, tp, fabric.Config{ControlLossless: true}, rnic.Config{RTO: 500 * sim.Microsecond}, core.Config{DisableCompensation: disable}, true)
		b.net.SetLossFunc(func(p *packet.Packet, sw, port int) bool {
			if !dropped && p.PSN == 40 && sw < 2 {
				dropped = true
				return true
			}
			return false
		})
		s, _ := b.flow(t, 1, 0, 2, 1000)
		done := false
		s.SendMessage(1_000_000, func() { done = true })
		b.engine.RunAll()
		if !done {
			t.Fatal("did not complete")
		}
		return s.Stats().Timeouts
	}
	withComp, withoutComp := run(false), run(true)
	if withComp != 0 {
		t.Fatalf("timeouts with compensation = %d", withComp)
	}
	if withoutComp == 0 {
		t.Fatal("compensation ablation should need the RTO")
	}
}

func TestThemisPathMapModeFatTree(t *testing.T) {
	tp, err := topo.NewFatTree(topo.FatTreeConfig{
		K:          4,
		HostLink:   topo.LinkSpec{Bandwidth: 100e9, Delay: sim.Microsecond},
		FabricLink: topo.LinkSpec{Bandwidth: 100e9, Delay: sim.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	b := newBed(t, tp, fabric.Config{ControlLossless: true}, rnic.Config{}, core.Config{Mode: core.PathMapSpray}, true)
	s, r := b.flow(t, 1, 0, 15, 1000) // cross-pod: N = 4
	done := false
	s.SendMessage(2_000_000, func() { done = true })
	b.engine.RunAll()
	if !done {
		t.Fatal("did not complete")
	}
	if r.Stats().OutOfOrder == 0 {
		t.Fatal("PathMap spraying produced no OOO — inactive?")
	}
	if s.Stats().Retransmits != 0 {
		t.Fatalf("spurious retransmits = %d in PathMap mode", s.Stats().Retransmits)
	}
	if s.Stats().NacksRx != 0 {
		t.Fatalf("NACKs leaked to sender: %d", s.Stats().NacksRx)
	}
	// All four cross-pod paths must carry data: check the two edge uplinks
	// both transmitted.
	edge := tp.ToROf(0)
	up1, _ := b.net.PortTxStats(edge, 2)
	up2, _ := b.net.PortTxStats(edge, 3)
	if up1 == 0 || up2 == 0 {
		t.Fatalf("edge uplinks unused: %d %d", up1, up2)
	}
}

func TestThemisLinkFailureFallback(t *testing.T) {
	tp := leafSpineT(t, 2, 4, 2, 100e9)
	b := newBed(t, tp, fabric.Config{ControlLossless: true}, rnic.Config{},
		core.Config{FallbackOnFailure: true}, true)
	s, _ := b.flow(t, 1, 0, 2, 1000)
	// Fail one of leaf0's uplinks before traffic starts: Themis-S reverts
	// to ECMP; the flow completes over the remaining paths.
	b.net.SetLinkState(0, 2, false)
	done := false
	s.SendMessage(1_000_000, func() { done = true })
	b.engine.RunAll()
	if !done {
		t.Fatal("did not complete after failure fallback")
	}
	if !b.themis[0].Disabled() {
		t.Fatal("source Themis not disabled")
	}
	if s.Stats().Retransmits != 0 {
		// ECMP is in-order: no spurious retransmissions either.
		t.Fatalf("retransmits = %d under ECMP fallback", s.Stats().Retransmits)
	}
}

func TestThemisManyFlowsIndependentState(t *testing.T) {
	tp := leafSpineT(t, 2, 4, 4, 100e9)
	b := newBed(t, tp, fabric.Config{ControlLossless: true}, rnic.Config{}, core.Config{}, true)
	type pair struct {
		s *rnic.SenderQP
		r *rnic.ReceiverQP
	}
	var pairs []pair
	for i := 0; i < 4; i++ {
		s, r := b.flow(t, packet.QPID(i+1), packet.NodeID(i), packet.NodeID(4+i), uint16(1000+i))
		pairs = append(pairs, pair{s, r})
	}
	doneCount := 0
	for _, p := range pairs {
		p.s.SendMessage(500_000, func() { doneCount++ })
	}
	b.engine.RunAll()
	if doneCount != 4 {
		t.Fatalf("completions = %d", doneCount)
	}
	for i, p := range pairs {
		if p.s.Stats().Retransmits != 0 {
			t.Fatalf("flow %d: retransmits = %d", i, p.s.Stats().Retransmits)
		}
		if p.r.Stats().BytesRecv != 500_000 {
			t.Fatalf("flow %d: bytes = %d", i, p.r.Stats().BytesRecv)
		}
	}
}

// Direct comparison: same contended spraying workload, NIC-SR, with vs
// without Themis. This is the essence of Fig. 1: without Themis, spurious
// retransmissions and NACK-driven slow starts appear and completion
// stretches.
func TestThemisVsDirectCombination(t *testing.T) {
	run := func(withThemis bool) (retrans, nacksRx uint64, dur sim.Time) {
		tp := leafSpineT(t, 2, 2, 4, 100e9)
		fcfg := contendedConfig()
		if !withThemis {
			fcfg.NewDataSelector = func() lb.Selector { return lb.PSNSpray{} }
		}
		b := newBed(t, tp, fcfg, rnic.Config{BurstBytes: 16 << 10}, core.Config{}, withThemis)
		var end sim.Time
		var senders []*rnic.SenderQP
		done := 0
		for i := 0; i < 4; i++ {
			s, _ := b.flow(t, packet.QPID(i+1), packet.NodeID(i), packet.NodeID(4+i), uint16(1000+i))
			s.SendMessage(4_000_000, func() {
				done++
				end = b.engine.Now() // slowest flow
			})
			senders = append(senders, s)
		}
		b.engine.RunAll()
		if done != 4 {
			t.Fatal("did not complete")
		}
		for _, s := range senders {
			retrans += s.Stats().Retransmits
			nacksRx += s.Stats().NacksRx
		}
		return retrans, nacksRx, end
	}
	rThemis, nThemis, dThemis := run(true)
	rPlain, nPlain, dPlain := run(false)
	if rThemis != 0 || nThemis != 0 {
		t.Fatalf("themis: retrans=%d nacks=%d", rThemis, nThemis)
	}
	if rPlain == 0 || nPlain == 0 {
		t.Fatalf("plain spray: retrans=%d nacks=%d — pathology missing", rPlain, nPlain)
	}
	if dThemis > dPlain {
		t.Fatalf("themis slower than direct combination: %v vs %v", dThemis, dPlain)
	}
}

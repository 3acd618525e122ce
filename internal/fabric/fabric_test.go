package fabric

import (
	"testing"
	"testing/quick"

	"themis/internal/core"
	"themis/internal/lb"
	"themis/internal/packet"
	"themis/internal/sim"
	"themis/internal/topo"
)

const (
	gbps100 = int64(100e9)
	usec    = sim.Microsecond
)

func leafSpine(t *testing.T, leaves, spines, hosts int) *topo.Topology {
	t.Helper()
	tp, err := topo.NewLeafSpine(topo.LeafSpineConfig{
		Leaves: leaves, Spines: spines, HostsPerLeaf: hosts,
		HostLink:   topo.LinkSpec{Bandwidth: gbps100, Delay: usec},
		FabricLink: topo.LinkSpec{Bandwidth: gbps100, Delay: usec},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// collector records delivered packets at a host.
type collector struct {
	pkts  []*packet.Packet
	times []sim.Time
}

func (c *collector) recv(e *sim.Engine) func(*packet.Packet) {
	return func(p *packet.Packet) {
		c.pkts = append(c.pkts, p)
		c.times = append(c.times, e.Now())
	}
}

func newData(src, dst packet.NodeID, psn packet.PSN, payload int) *packet.Packet {
	return &packet.Packet{Kind: packet.Data, Src: src, Dst: dst, QP: 1, SPort: 1000, DPort: 4791, PSN: psn, Payload: payload}
}

func TestDeliveryAndLatency(t *testing.T) {
	tp := leafSpine(t, 2, 1, 1) // host0 on leaf0, host1 on leaf1, one spine
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{ControlLossless: true})
	var c collector
	n.AttachHost(1, c.recv(e))

	p := newData(0, 1, 0, 1000)
	n.Inject(0, p)
	e.RunAll()

	if len(c.pkts) != 1 || c.pkts[0] != p {
		t.Fatalf("delivered %d packets", len(c.pkts))
	}
	// Path: host0 uplink, leaf0->spine, spine->leaf1, leaf1->host1:
	// 4 serializations of 1064B at 100Gbps + 4 x 1us propagation.
	ser := sim.TransmitTime(p.Size(), gbps100)
	want := sim.Time(4 * (sim.Duration(ser) + usec))
	if c.times[0] != want {
		t.Fatalf("latency = %v, want %v", c.times[0], want)
	}
	if got := n.Counters().Delivered; got != 1 {
		t.Fatalf("Delivered = %d", got)
	}
}

func TestSameRackStaysLocal(t *testing.T) {
	tp := leafSpine(t, 2, 2, 2)
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{})
	var c collector
	n.AttachHost(1, c.recv(e))
	n.Inject(0, newData(0, 1, 0, 1000))
	e.RunAll()
	if len(c.pkts) != 1 {
		t.Fatalf("delivered %d", len(c.pkts))
	}
	// No spine must have transmitted anything.
	for sw := 2; sw < 4; sw++ {
		for port := range tp.Switch(sw).Ports {
			if pkts, _ := n.PortTxStats(sw, port); pkts != 0 {
				t.Fatalf("spine %d port %d transmitted %d packets", sw, port, pkts)
			}
		}
	}
}

func TestFIFOOrderOnOnePath(t *testing.T) {
	tp := leafSpine(t, 2, 1, 1)
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{})
	var c collector
	n.AttachHost(1, c.recv(e))
	for i := 0; i < 50; i++ {
		n.Inject(0, newData(0, 1, packet.PSN(i), 1000))
	}
	e.RunAll()
	if len(c.pkts) != 50 {
		t.Fatalf("delivered %d", len(c.pkts))
	}
	for i, p := range c.pkts {
		if p.PSN != packet.PSN(i) {
			t.Fatalf("reordered on single path: pos %d psn %d", i, p.PSN)
		}
	}
}

func TestECMPConsistentPath(t *testing.T) {
	tp := leafSpine(t, 2, 4, 1)
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{})
	n.AttachHost(1, func(*packet.Packet) {})
	for i := 0; i < 40; i++ {
		n.Inject(0, newData(0, 1, packet.PSN(i), 1000))
	}
	e.RunAll()
	// Exactly one leaf0 uplink (ports 1..4) carried all 40 packets.
	used := 0
	for port := 1; port <= 4; port++ {
		pkts, _ := n.PortTxStats(0, port)
		if pkts > 0 {
			used++
			if pkts != 40 {
				t.Fatalf("uplink %d carried %d packets", port, pkts)
			}
		}
	}
	if used != 1 {
		t.Fatalf("ECMP used %d uplinks", used)
	}
}

func TestRandomSprayUsesAllPaths(t *testing.T) {
	tp := leafSpine(t, 2, 4, 1)
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{
		NewDataSelector: func() lb.Selector { return lb.RandomSpray{} },
	})
	n.AttachHost(1, func(*packet.Packet) {})
	for i := 0; i < 200; i++ {
		n.Inject(0, newData(0, 1, packet.PSN(i), 1000))
	}
	e.RunAll()
	for port := 1; port <= 4; port++ {
		if pkts, _ := n.PortTxStats(0, port); pkts == 0 {
			t.Fatalf("spray never used uplink %d", port)
		}
	}
}

func TestBufferOverflowDrops(t *testing.T) {
	// Two senders on leaf0 share one 100G uplink: 2:1 oversubscription
	// builds a standing queue at leaf0.
	tp := leafSpine(t, 2, 1, 2)
	e := sim.NewEngine(1)
	// Tiny buffer: a few packets fit, the rest drop.
	n := NewNetwork(e, tp, Config{BufferBytes: 3300})
	var c collector
	n.AttachHost(2, c.recv(e))
	for i := 0; i < 20; i++ {
		n.Inject(0, newData(0, 2, packet.PSN(i), 1000))
		n.Inject(1, newData(1, 2, packet.PSN(i), 1000))
	}
	e.RunAll()
	ctr := n.Counters()
	if ctr.DataDrops == 0 {
		t.Fatal("expected drops with tiny buffer")
	}
	if len(c.pkts)+int(ctr.DataDrops) != 40 {
		t.Fatalf("delivered %d + dropped %d != 40", len(c.pkts), ctr.DataDrops)
	}
}

func TestECNMarking(t *testing.T) {
	tp := leafSpine(t, 2, 1, 2)
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{
		ECN: ECNConfig{Enabled: true, KminBytes: 2000, KmaxBytes: 8000, PMax: 1},
	})
	var c collector
	n.AttachHost(2, c.recv(e))
	for i := 0; i < 40; i++ {
		n.Inject(0, newData(0, 2, packet.PSN(i), 1000))
		n.Inject(1, newData(1, 2, packet.PSN(i), 1000))
	}
	e.RunAll()
	if n.Counters().EcnMarks == 0 {
		t.Fatal("expected ECN marks under a standing queue")
	}
	marked := 0
	for _, p := range c.pkts {
		if p.ECN {
			marked++
		}
	}
	if marked == 0 {
		t.Fatal("no delivered packet carried CE")
	}
	// Early packets (queue below Kmin) must be unmarked.
	if c.pkts[0].ECN {
		t.Fatal("first packet marked with empty queue")
	}
}

func TestECNNeverMarksControl(t *testing.T) {
	tp := leafSpine(t, 2, 1, 1)
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{
		ECN: ECNConfig{Enabled: true, KminBytes: 0, KmaxBytes: 1, PMax: 1},
	})
	var c collector
	n.AttachHost(1, c.recv(e))
	for i := 0; i < 10; i++ {
		ack := &packet.Packet{Kind: packet.Ack, Src: 0, Dst: 1, SPort: 7, DPort: 4791, PSN: packet.PSN(i)}
		n.Inject(0, ack)
	}
	e.RunAll()
	for _, p := range c.pkts {
		if p.ECN {
			t.Fatal("control packet got CE-marked")
		}
	}
}

func TestControlLossless(t *testing.T) {
	tp := leafSpine(t, 2, 1, 1)
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{BufferBytes: 1, ControlLossless: true})
	var c collector
	n.AttachHost(1, c.recv(e))
	for i := 0; i < 10; i++ {
		n.Inject(0, &packet.Packet{Kind: packet.Nack, Src: 0, Dst: 1, PSN: packet.PSN(i)})
	}
	e.RunAll()
	if len(c.pkts) != 10 {
		t.Fatalf("lossless control: delivered %d/10", len(c.pkts))
	}
	if n.Counters().CtrlDrops != 0 {
		t.Fatal("control drops with ControlLossless")
	}
}

// Two hosts on one leaf each send a NACK train at line rate to the other rack:
// the leaf's one uplink drains at half the offered rate, so a buffer that holds
// a single 64-byte control packet must overflow. (One sender on equal-rate
// links never queues — each arrival finds the previous packet already gone.)
func TestControlLossyWhenConfigured(t *testing.T) {
	tp := leafSpine(t, 2, 1, 2) // hosts 0,1 on leaf0; 2,3 on leaf1
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{BufferBytes: 70, ControlLossless: false})
	var c collector
	n.AttachHost(2, c.recv(e))
	for i := 0; i < 10; i++ {
		n.Inject(0, &packet.Packet{Kind: packet.Nack, Src: 0, Dst: 2, PSN: packet.PSN(i)})
		n.Inject(1, &packet.Packet{Kind: packet.Nack, Src: 1, Dst: 2, PSN: packet.PSN(i)})
	}
	e.RunAll()
	drops := n.Counters().CtrlDrops
	if drops == 0 {
		t.Fatal("expected control drops with tiny buffer and lossy control")
	}
	if got := uint64(len(c.pkts)); got+drops != 20 {
		t.Fatalf("delivered %d + dropped %d != 20 injected", got, drops)
	}
}

func TestLossFuncInjection(t *testing.T) {
	tp := leafSpine(t, 2, 1, 1)
	e := sim.NewEngine(1)
	dropPSN5 := func(p *packet.Packet, sw, port int) bool { return p.PSN == 5 && sw == 0 }
	n := NewNetwork(e, tp, Config{LossFunc: dropPSN5})
	var c collector
	n.AttachHost(1, c.recv(e))
	for i := 0; i < 10; i++ {
		n.Inject(0, newData(0, 1, packet.PSN(i), 1000))
	}
	e.RunAll()
	if len(c.pkts) != 9 {
		t.Fatalf("delivered %d, want 9", len(c.pkts))
	}
	for _, p := range c.pkts {
		if p.PSN == 5 {
			t.Fatal("psn 5 should have been dropped")
		}
	}
}

func TestLossFuncSparesControlWhenLossless(t *testing.T) {
	tp := leafSpine(t, 2, 1, 1)
	e := sim.NewEngine(1)
	dropAll := func(p *packet.Packet, sw, port int) bool { return true }
	n := NewNetwork(e, tp, Config{ControlLossless: true, LossFunc: dropAll})
	var c collector
	n.AttachHost(1, c.recv(e))
	n.Inject(0, newData(0, 1, 0, 1000))
	n.Inject(0, &packet.Packet{Kind: packet.Ack, Src: 0, Dst: 1, PSN: 1})
	e.RunAll()
	// The data packet dies, the ACK survives: lossless control is exempt
	// from loss injection.
	if len(c.pkts) != 1 || c.pkts[0].Kind != packet.Ack {
		t.Fatalf("delivered %d packets", len(c.pkts))
	}
	if n.Counters().CtrlDrops != 0 {
		t.Fatalf("ctrl drops = %d", n.Counters().CtrlDrops)
	}
}

func TestLossFuncHitsControlWhenLossy(t *testing.T) {
	tp := leafSpine(t, 2, 1, 1)
	e := sim.NewEngine(1)
	dropNacks := func(p *packet.Packet, sw, port int) bool { return p.Kind == packet.Nack }
	n := NewNetwork(e, tp, Config{ControlLossless: false, LossFunc: dropNacks})
	var c collector
	n.AttachHost(1, c.recv(e))
	n.Inject(0, &packet.Packet{Kind: packet.Nack, Src: 0, Dst: 1, PSN: 1})
	n.Inject(0, &packet.Packet{Kind: packet.Ack, Src: 0, Dst: 1, PSN: 2})
	e.RunAll()
	if len(c.pkts) != 1 || c.pkts[0].Kind != packet.Ack {
		t.Fatalf("delivered %d packets", len(c.pkts))
	}
	if n.Counters().CtrlDrops != 1 {
		t.Fatalf("ctrl drops = %d, want 1", n.Counters().CtrlDrops)
	}
	if n.Counters().DataDrops != 0 {
		t.Fatalf("data drops = %d", n.Counters().DataDrops)
	}
}

func TestLinkFailureReroutes(t *testing.T) {
	tp := leafSpine(t, 2, 2, 1) // two spines
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{
		NewDataSelector: func() lb.Selector { return lb.RandomSpray{} },
	})
	var c collector
	n.AttachHost(1, c.recv(e))
	// Kill leaf0's uplink to spine0 (port 1).
	n.SetLinkState(0, 1, false)
	for i := 0; i < 50; i++ {
		n.Inject(0, newData(0, 1, packet.PSN(i), 1000))
	}
	e.RunAll()
	if len(c.pkts) != 50 {
		t.Fatalf("delivered %d/50 after reroute", len(c.pkts))
	}
	if pkts, _ := n.PortTxStats(0, 1); pkts != 0 {
		t.Fatal("failed link still carried traffic")
	}
}

func TestAllLinksDownDrops(t *testing.T) {
	tp := leafSpine(t, 2, 1, 1)
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{})
	var c collector
	n.AttachHost(1, c.recv(e))
	n.SetLinkState(0, 1, false) // only uplink
	n.Inject(0, newData(0, 1, 0, 1000))
	e.RunAll()
	if len(c.pkts) != 0 {
		t.Fatal("packet delivered over a dead fabric")
	}
	if n.Counters().LinkDrops == 0 {
		t.Fatal("no link drop counted")
	}
}

func TestLinkRecovery(t *testing.T) {
	tp := leafSpine(t, 2, 1, 1)
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{})
	var c collector
	n.AttachHost(1, c.recv(e))
	n.SetLinkState(0, 1, false)
	n.SetLinkState(0, 1, true)
	n.Inject(0, newData(0, 1, 0, 1000))
	e.RunAll()
	if len(c.pkts) != 1 {
		t.Fatal("packet lost after link recovery")
	}
}

// recordingPipeline records hook invocations and optionally blocks control.
type recordingPipeline struct {
	uplinks   []packet.PSN // PSNs seen by SelectUplink
	delivered []packet.PSN // PSNs seen by OnDeliverToHost
	ctrl      []packet.PSN // PSNs of control packets seen
	blockAll  bool
	forcePort int // if >= 0, SelectUplink forces this port
	extras    []*packet.Packet
	linkEvts  int
}

func (r *recordingPipeline) SelectUplink(p *packet.Packet, cands []int) (int, bool) {
	r.uplinks = append(r.uplinks, p.PSN)
	if r.forcePort >= 0 {
		return r.forcePort, true
	}
	return 0, false
}
func (r *recordingPipeline) OnDeliverToHost(p *packet.Packet) []*packet.Packet {
	r.delivered = append(r.delivered, p.PSN)
	ex := r.extras
	r.extras = nil
	return ex
}
func (r *recordingPipeline) FilterHostControl(p *packet.Packet) bool {
	r.ctrl = append(r.ctrl, p.PSN)
	return !r.blockAll
}
func (r *recordingPipeline) LinkStateChanged(port int, up bool) { r.linkEvts++ }

func TestPipelineSelectUplinkForced(t *testing.T) {
	tp := leafSpine(t, 2, 4, 1)
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{})
	n.AttachHost(1, func(*packet.Packet) {})
	pl := &recordingPipeline{forcePort: 3} // uplink to spine2
	n.SetTorPipeline(0, pl)
	for i := 0; i < 10; i++ {
		n.Inject(0, newData(0, 1, packet.PSN(i), 1000))
	}
	e.RunAll()
	if len(pl.uplinks) != 10 {
		t.Fatalf("SelectUplink saw %d packets", len(pl.uplinks))
	}
	if pkts, _ := n.PortTxStats(0, 3); pkts != 10 {
		t.Fatalf("forced port carried %d packets", pkts)
	}
}

func TestPipelineOnDeliverToHostSeesDataOnly(t *testing.T) {
	tp := leafSpine(t, 2, 1, 1)
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{})
	n.AttachHost(1, func(*packet.Packet) {})
	pl := &recordingPipeline{forcePort: -1}
	n.SetTorPipeline(1, pl) // destination-side ToR
	n.Inject(0, newData(0, 1, 7, 1000))
	n.Inject(0, &packet.Packet{Kind: packet.Ack, Src: 0, Dst: 1, PSN: 9})
	e.RunAll()
	if len(pl.delivered) != 1 || pl.delivered[0] != 7 {
		t.Fatalf("OnDeliverToHost saw %v", pl.delivered)
	}
}

func TestPipelineBlocksControl(t *testing.T) {
	tp := leafSpine(t, 2, 1, 1)
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{})
	var c collector
	n.AttachHost(0, c.recv(e))
	pl := &recordingPipeline{forcePort: -1, blockAll: true}
	n.SetTorPipeline(1, pl)
	// Host 1 sends a NACK back to host 0; its ToR blocks it.
	n.Inject(1, &packet.Packet{Kind: packet.Nack, Src: 1, Dst: 0, PSN: 3})
	e.RunAll()
	if len(c.pkts) != 0 {
		t.Fatal("blocked NACK was delivered")
	}
	if n.Counters().Blocked != 1 {
		t.Fatalf("Blocked = %d", n.Counters().Blocked)
	}
	if len(pl.ctrl) != 1 || pl.ctrl[0] != 3 {
		t.Fatalf("FilterHostControl saw %v", pl.ctrl)
	}
}

func TestPipelineCompensationInjection(t *testing.T) {
	tp := leafSpine(t, 2, 1, 1)
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{})
	var c0, c1 collector
	n.AttachHost(0, c0.recv(e))
	n.AttachHost(1, c1.recv(e))
	pl := &recordingPipeline{forcePort: -1}
	// When the next data packet reaches host 1's ToR, emit a NACK to host 0.
	pl.extras = []*packet.Packet{{Kind: packet.Nack, Src: 1, Dst: 0, PSN: 42}}
	n.SetTorPipeline(1, pl)
	n.Inject(0, newData(0, 1, 0, 1000))
	e.RunAll()
	if len(c1.pkts) != 1 {
		t.Fatal("data packet not delivered")
	}
	if len(c0.pkts) != 1 || c0.pkts[0].Kind != packet.Nack || c0.pkts[0].PSN != 42 {
		t.Fatalf("compensation NACK not delivered: %v", c0.pkts)
	}
	if n.Counters().Compensated != 1 {
		t.Fatalf("Compensated = %d", n.Counters().Compensated)
	}
}

func TestPipelineLinkStateNotification(t *testing.T) {
	tp := leafSpine(t, 2, 2, 1)
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{})
	pl := &recordingPipeline{forcePort: -1}
	n.SetTorPipeline(0, pl)
	n.SetLinkState(0, 1, false)
	n.SetLinkState(0, 1, true)
	n.SetLinkState(0, 1, true) // no-op: no event
	if pl.linkEvts != 2 {
		t.Fatalf("link events = %d, want 2", pl.linkEvts)
	}
}

func TestPipelineInstallSyncsDownPorts(t *testing.T) {
	tp := leafSpine(t, 2, 2, 1)
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{})
	n.SetLinkState(0, 1, false)
	// A pipeline installed on an already-degraded switch must be told about
	// the down port: LinkStateChanged alone only ever reports edges.
	pl := &recordingPipeline{forcePort: -1}
	n.SetTorPipeline(0, pl)
	if pl.linkEvts != 1 {
		t.Fatalf("synthetic link events on install = %d, want 1", pl.linkEvts)
	}
	n.SetLinkState(0, 1, true)
	if pl.linkEvts != 2 {
		t.Fatalf("link events after repair = %d, want 2", pl.linkEvts)
	}
}

func TestThemisInstalledAfterLinkDown(t *testing.T) {
	tp := leafSpine(t, 2, 2, 1)
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{})
	n.SetLinkState(0, 1, false)
	th := core.New(tp, 0, core.Config{FallbackOnFailure: true})
	n.SetTorPipeline(0, th)
	if !th.Disabled() || th.DownPorts() != 1 {
		t.Fatalf("Themis installed on degraded switch: disabled=%v downPorts=%d, want true/1",
			th.Disabled(), th.DownPorts())
	}
	// The repair edge balances the synthetic down edge: no underflow, and
	// the §6 fallback clears exactly when the last link comes back.
	n.SetLinkState(0, 1, true)
	if th.Disabled() || th.DownPorts() != 0 {
		t.Fatalf("after repair: disabled=%v downPorts=%d, want false/0",
			th.Disabled(), th.DownPorts())
	}
}

func TestSetLinkStateOnHostPortPanics(t *testing.T) {
	tp := leafSpine(t, 2, 1, 1)
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.SetLinkState(0, 0, false) // port 0 is a host port
}

func TestBufferReleasedAfterTransit(t *testing.T) {
	tp := leafSpine(t, 2, 1, 1)
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{BufferBytes: 1 << 20})
	n.AttachHost(1, func(*packet.Packet) {})
	for i := 0; i < 100; i++ {
		n.Inject(0, newData(0, 1, packet.PSN(i), 1000))
	}
	e.RunAll()
	for sw := 0; sw < tp.NumSwitches(); sw++ {
		if used := n.switches[sw].bufUsed; used != 0 {
			t.Fatalf("switch %d leaked %d buffer bytes", sw, used)
		}
	}
}

func TestQueueDepthAccounting(t *testing.T) {
	tp := leafSpine(t, 2, 1, 1)
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{})
	n.AttachHost(1, func(*packet.Packet) {})
	for i := 0; i < 10; i++ {
		n.Inject(0, newData(0, 1, packet.PSN(i), 1000))
	}
	e.RunAll()
	// After the run everything has drained.
	for sw := 0; sw < tp.NumSwitches(); sw++ {
		for port := range tp.Switch(sw).Ports {
			if b := n.QueueBytes(sw, port); b != 0 {
				t.Fatalf("switch %d port %d left %d bytes queued", sw, port, b)
			}
		}
	}
	if n.HostUplinkBytes(0) != 0 {
		t.Fatal("host uplink not drained")
	}
}

func TestRemoteFailureReconverges(t *testing.T) {
	// 2 leaves x 2 spines, host0 -> host1 cross-rack. Fail the REMOTE link
	// spine0 <-> leaf1: leaf0 must stop using spine0 even though its own
	// links are all up (routing reconvergence).
	tp := leafSpine(t, 2, 2, 1)
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{})
	var c collector
	n.AttachHost(1, c.recv(e))
	// Leaf1 is switch 1; its uplink to spine0 (switch 2) is port 1.
	n.SetLinkState(1, 1, false)
	for i := 0; i < 20; i++ {
		n.Inject(0, newData(0, 1, packet.PSN(i), 1000))
	}
	e.RunAll()
	if len(c.pkts) != 20 {
		t.Fatalf("delivered %d/20 after remote failure", len(c.pkts))
	}
	// Spine0 (switch 2) must have carried nothing.
	for port := range tp.Switch(2).Ports {
		if pkts, _ := n.PortTxStats(2, port); pkts != 0 {
			t.Fatal("traffic still flows through the partitioned spine")
		}
	}
	// Recovery restores both paths.
	n.SetLinkState(1, 1, true)
	if n.downLinks != 0 {
		t.Fatal("down-link count not cleared after full recovery")
	}
}

func TestPartitionDropsAtIngressToR(t *testing.T) {
	tp := leafSpine(t, 2, 1, 1)
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{})
	var c collector
	n.AttachHost(1, c.recv(e))
	// Kill the only spine's link to leaf1: leaf0 has no route at all.
	n.SetLinkState(1, 1, false)
	n.Inject(0, newData(0, 1, 0, 1000))
	e.RunAll()
	if len(c.pkts) != 0 {
		t.Fatal("delivered across a partition")
	}
	if n.Counters().LinkDrops == 0 {
		t.Fatal("partition drop not counted")
	}
}

// BenchmarkFabricForward measures the per-packet cost of a full cross-rack
// traversal: host uplink serialization, leaf and spine hops, and delivery on
// the destination ToR's host port. This is the fabric's end-to-end hot path;
// allocs/op here multiply by every packet of every trial in a sweep.
func BenchmarkFabricForward(b *testing.B) {
	tp, err := topo.NewLeafSpine(topo.LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 1,
		HostLink:   topo.LinkSpec{Bandwidth: gbps100, Delay: usec},
		FabricLink: topo.LinkSpec{Bandwidth: gbps100, Delay: usec},
	})
	if err != nil {
		b.Fatal(err)
	}
	e := sim.NewEngine(1)
	pool := packet.NewPool()
	n := NewNetwork(e, tp, Config{ControlLossless: true, Pool: pool})
	n.AttachHost(1, func(*packet.Packet) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pool.Get()
		p.Kind, p.Src, p.Dst, p.QP = packet.Data, 0, 1, 1
		p.SPort, p.DPort = 1000, 4791
		p.PSN, p.Payload = packet.PSN(i), 1000
		n.Inject(0, p)
		if i%64 == 63 {
			e.RunAll()
		}
	}
	e.RunAll()
}

// BenchmarkFabricThroughput reports sustained fabric capacity in packets per
// wall-clock second: a 64-packet window of cross-rack traffic kept in flight,
// counting deliveries at the far host. This is the sweep-planning number —
// how many simulated packets one core pushes per real second — complementing
// BenchmarkFabricForward's per-packet latency view.
func BenchmarkFabricThroughput(b *testing.B) {
	tp, err := topo.NewLeafSpine(topo.LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 1,
		HostLink:   topo.LinkSpec{Bandwidth: gbps100, Delay: usec},
		FabricLink: topo.LinkSpec{Bandwidth: gbps100, Delay: usec},
	})
	if err != nil {
		b.Fatal(err)
	}
	e := sim.NewEngine(1)
	pool := packet.NewPool()
	n := NewNetwork(e, tp, Config{ControlLossless: true, Pool: pool})
	delivered := 0
	n.AttachHost(1, func(*packet.Packet) { delivered++ }) // deliverToHost recycles
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pool.Get()
		p.Kind, p.Src, p.Dst, p.QP = packet.Data, 0, 1, 1
		p.SPort, p.DPort = 1000, 4791
		p.PSN, p.Payload = packet.PSN(i), 1000
		n.Inject(0, p)
		if i%64 == 63 {
			e.RunAll()
		}
	}
	e.RunAll()
	b.ReportMetric(float64(delivered)/b.Elapsed().Seconds(), "pkts/s")
}

// TestPipeDeliveryOrderAndCompaction floods one path with enough packets
// that every link's propagation pipe crosses the head-compaction threshold
// while still holding a tail, then checks nothing was lost, reordered, or
// duplicated by the burst machinery, through either constructor (the fabric
// links' burst events are stamped, pri ≠ 0, under both).
func TestPipeDeliveryOrderAndCompaction(t *testing.T) {
	tp := leafSpine(t, 2, 1, 1)
	for _, tc := range []struct {
		name  string
		build func(*sim.Engine) *Network
	}{
		{"NewNetwork", func(e *sim.Engine) *Network { return NewNetwork(e, tp, Config{ControlLossless: true}) }},
		{"NewShardedNetwork", func(e *sim.Engine) *Network {
			return oneShardNetwork(t, e, tp, 1, Config{ControlLossless: true})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine(1)
			n := tc.build(e)
			var c collector
			n.AttachHost(1, c.recv(e))
			const total = 300
			for i := 0; i < total; i++ {
				n.Inject(0, newData(0, 1, packet.PSN(i), 1000))
			}
			e.RunAll()
			if len(c.pkts) != total {
				t.Fatalf("delivered %d of %d", len(c.pkts), total)
			}
			for i, p := range c.pkts {
				if p.PSN != packet.PSN(i) {
					t.Fatalf("delivery %d has PSN %d — pipe reordered or duplicated", i, p.PSN)
				}
				if i > 0 && c.times[i] <= c.times[i-1] {
					t.Fatalf("delivery %d not after %d: %v <= %v", i, i-1, c.times[i], c.times[i-1])
				}
			}
		})
	}
}

// Conservation: every injected data packet is either delivered or counted in
// exactly one drop counter, across random fan-ins and buffer sizes.
func TestConservationProperty(t *testing.T) {
	f := func(seed int64, nPkts uint8, bufKB uint8) bool {
		tp := leafSpine(t, 2, 2, 2)
		e := sim.NewEngine(seed)
		n := NewNetwork(e, tp, Config{
			BufferBytes:     int(bufKB)*1024 + 1200, // at least one packet
			ControlLossless: true,
			NewDataSelector: func() lb.Selector { return lb.RandomSpray{} },
		})
		delivered := 0
		n.AttachHost(2, func(*packet.Packet) { delivered++ })
		n.AttachHost(3, func(*packet.Packet) { delivered++ })
		total := int(nPkts) + 1
		for i := 0; i < total; i++ {
			n.Inject(0, newData(0, 2, packet.PSN(i), 1000))
			n.Inject(1, newData(1, 3, packet.PSN(i), 1000))
		}
		e.RunAll()
		ctr := n.Counters()
		return delivered+int(ctr.DataDrops)+int(ctr.LinkDrops) == 2*total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

package fabric

import (
	"testing"

	"themis/internal/packet"
	"themis/internal/sim"
)

// incastPFC builds a 2-leaf/1-spine fabric with `senders` hosts per leaf and
// PFC enabled, then blasts all leaf-0 hosts at one leaf-1 host.
func incastPFC(t *testing.T, senders, pkts int, buf int) (*Network, *sim.Engine, *collector) {
	t.Helper()
	tp := leafSpine(t, 2, 1, senders)
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{
		BufferBytes:     buf,
		ControlLossless: true,
		PFC:             DefaultPFC(gbps100),
	})
	var c collector
	dst := packet.NodeID(senders) // first host on leaf 1
	n.AttachHost(dst, c.recv(e))
	for i := 0; i < pkts; i++ {
		for h := 0; h < senders; h++ {
			n.Inject(packet.NodeID(h), newData(packet.NodeID(h), dst, packet.PSN(i), 1000))
		}
	}
	return n, e, &c
}

func TestPFCPreventsDropsUnderIncast(t *testing.T) {
	// 4:1 oversubscription, 8.5 MB offered into a 1 MB buffer: PFC holds
	// each ingress near Xoff (100 KB + in-flight headroom), so the shared
	// buffer never overflows. The same demand without PFC drops (see the
	// control test below, which overflows an even easier setup).
	n, e, c := incastPFC(t, 4, 2000, 1<<20)
	e.RunAll()
	if n.Counters().DataDrops != 0 {
		t.Fatalf("PFC fabric dropped %d packets", n.Counters().DataDrops)
	}
	if len(c.pkts) != 8000 {
		t.Fatalf("delivered %d/8000", len(c.pkts))
	}
	// Pauses must have been sent by the congested source leaf (switch 0,
	// where 4 host links feed one uplink).
	pauses, resumes := n.PFCStats(0)
	if pauses == 0 {
		t.Fatal("no PAUSE frames under incast")
	}
	if resumes == 0 {
		t.Fatal("no RESUME frames after drain")
	}
}

func TestWithoutPFCSameIncastDrops(t *testing.T) {
	tp := leafSpine(t, 2, 1, 4)
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{BufferBytes: 300_000, ControlLossless: true})
	var c collector
	n.AttachHost(4, c.recv(e))
	for i := 0; i < 200; i++ {
		for h := 0; h < 4; h++ {
			n.Inject(packet.NodeID(h), newData(packet.NodeID(h), 4, packet.PSN(i), 1000))
		}
	}
	e.RunAll()
	if n.Counters().DataDrops == 0 {
		t.Fatal("expected drops without PFC (control for the PFC test)")
	}
}

func TestPFCOrderPreservedPerPath(t *testing.T) {
	n, e, c := incastPFC(t, 2, 300, 200_000)
	_ = n
	e.RunAll()
	// Per-flow FIFO must survive pause/resume cycles.
	last := map[packet.NodeID]packet.PSN{}
	for _, p := range c.pkts {
		if prev, ok := last[p.Src]; ok && !p.PSN.After(prev) {
			t.Fatalf("flow %d reordered: %d after %d", p.Src, p.PSN, prev)
		}
		last[p.Src] = p.PSN
	}
}

func TestPFCControlNeverPaused(t *testing.T) {
	// Saturate the data class, then inject control packets: they must get
	// through promptly because control rides an unpaused priority.
	tp := leafSpine(t, 2, 1, 2)
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{
		BufferBytes:     200_000,
		ControlLossless: true,
		PFC:             DefaultPFC(gbps100),
	})
	var c collector
	n.AttachHost(2, c.recv(e))
	for i := 0; i < 300; i++ {
		n.Inject(0, newData(0, 2, packet.PSN(i), 1000))
		n.Inject(1, newData(1, 2, packet.PSN(i), 1000))
	}
	n.Inject(0, &packet.Packet{Kind: packet.Ack, Src: 0, Dst: 2, PSN: 1})
	e.RunAll()
	acks := 0
	for _, p := range c.pkts {
		if p.Kind == packet.Ack {
			acks++
		}
	}
	if acks != 1 {
		t.Fatalf("acks delivered = %d", acks)
	}
}

func TestPFCBackpressurePropagatesToHost(t *testing.T) {
	// With a paused leaf ingress, the host uplink queue must absorb the
	// backlog (the NIC keeps pacing into it).
	n, e, _ := incastPFC(t, 4, 500, 200_000)
	maxUplink := 0
	probe := sim.NewTicker(e, 10*sim.Microsecond, func() {
		for h := packet.NodeID(0); h < 4; h++ {
			if b := n.HostUplinkBytes(h); b > maxUplink {
				maxUplink = b
			}
		}
	})
	probe.Start()
	e.Run(sim.Time(5 * sim.Millisecond))
	probe.Stop()
	e.RunAll()
	if maxUplink == 0 {
		t.Fatal("backpressure never reached the hosts")
	}
}

// A queue paused continuously past WatchdogTimeout while holding data is
// deadlocked by definition (legit congestion pauses oscillate on µs scales):
// the watchdog must flush the backlog and release its buffer/ingress
// accounting so the pause cycle can unwind.
func TestPFCWatchdogFlushesStuckQueue(t *testing.T) {
	tp := leafSpine(t, 2, 2, 1)
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{ControlLossless: true, PFC: DefaultPFC(gbps100)})
	s := n.switches[0]
	q := s.ports[1] // leaf0 uplink to spine 0
	q.setPaused(true)
	for i := 0; i < 5; i++ {
		s.enqueue(newData(0, 1, packet.PSN(i), 1000), 1, 0)
	}
	e.RunAll()
	c := n.Counters()
	if c.WatchdogFires != 1 || c.WatchdogDrops != 5 {
		t.Fatalf("watchdog fires=%d drops=%d, want 1/5", c.WatchdogFires, c.WatchdogDrops)
	}
	if q.bytes != 0 || q.data.len() > 0 {
		t.Fatalf("data backlog not flushed: %d bytes", q.bytes)
	}
	if s.bufUsed != 0 {
		t.Fatalf("buffer accounting leaked: %d bytes still charged", s.bufUsed)
	}
}

// A pause that clears before the timeout must not trip the watchdog: the
// backlog drains normally once RESUME arrives.
func TestPFCWatchdogSparesTransientPause(t *testing.T) {
	tp := leafSpine(t, 2, 2, 1)
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{ControlLossless: true, PFC: DefaultPFC(gbps100)})
	var c collector
	n.AttachHost(1, c.recv(e))
	s := n.switches[0]
	q := s.ports[1]
	q.setPaused(true)
	for i := 0; i < 5; i++ {
		s.enqueue(newData(0, 1, packet.PSN(i), 1000), 1, 0)
	}
	e.Schedule(100*sim.Microsecond, func() { q.setPaused(false) })
	e.RunAll()
	if got := n.Counters().WatchdogDrops; got != 0 {
		t.Fatalf("watchdog dropped %d packets from a transient pause", got)
	}
	if len(c.pkts) != 5 {
		t.Fatalf("delivered %d/5 after resume", len(c.pkts))
	}
}

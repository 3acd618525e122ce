package fabric

import (
	"fmt"
	"slices"
	"testing"

	"themis/internal/packet"
	"themis/internal/sim"
)

// The tests in this file pin the elided serializer completion (see
// outQueue.maybeStart): a transmission that releases nothing and has nothing
// behind it schedules no txDone, everything else still does, and the instants
// at which packets start, arrive and drop are the ones the eager model gave.

const ctrlSize = 64 // header-only ACK/NACK/CNP on the wire

var serCtrl = sim.Duration(sim.TransmitTime(ctrlSize, gbps100))

func ack(src, dst packet.NodeID, psn packet.PSN) *packet.Packet {
	return &packet.Packet{Kind: packet.Ack, Src: src, Dst: dst, QP: 1, SPort: 1000, DPort: packet.RoCEv2Port, PSN: psn}
}

// fabricUplink returns the first fabric-facing egress queue of host h's ToR.
func fabricUplink(n *Network, h packet.NodeID) *outQueue {
	for _, q := range n.switches[n.topology.ToROf(h)].ports {
		if !q.isHostPort {
			return q
		}
	}
	panic("no uplink")
}

// checkPipes is the test-only invariant check on every link's propagation
// pipe: arrival times strictly increase from head to tail (what lets one
// pending event per link stand for every packet on the wire, and what an
// elided completion's early commit must preserve), and a non-empty pipe has
// exactly its head's burst event pending.
func checkPipes(n *Network) error {
	check := func(q *outQueue, name string) error {
		for i := 0; i < q.pipe.len(); i++ {
			if i > 0 && q.pipe.at(i).at <= q.pipe.at(i-1).at {
				return fmt.Errorf("%s: pipe slot %d arrives at %v, not after slot %d at %v", name, i, q.pipe.at(i).at, i-1, q.pipe.at(i-1).at)
			}
		}
		if q.pipe.len() > 0 {
			if q.burstEv == nil || q.burstEv.Fired() || q.burstEv.Cancelled() || q.burstEv.Time() != q.pipe.at(0).at {
				return fmt.Errorf("%s: %d packets on the wire without a burst event at the head arrival %v", name, q.pipe.len(), q.pipe.at(0).at)
			}
		}
		return nil
	}
	for _, s := range n.switches {
		for pi, q := range s.ports {
			if err := check(q, fmt.Sprintf("switch %d port %d", s.sw.ID, pi)); err != nil {
				return err
			}
		}
	}
	for h, q := range n.hostUp {
		if err := check(q, fmt.Sprintf("host %d uplink", h)); err != nil {
			return err
		}
	}
	return nil
}

// A lone ACK finds every serializer idle and, on a lossless-control fabric,
// holds no buffer: each of its four links (host→leaf→spine→leaf→host) costs
// exactly one event, the pipe's burst delivery. Latency is unchanged.
func TestLoneAckCostsOneEventPerLink(t *testing.T) {
	tp := leafSpine(t, 2, 1, 1)
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{ControlLossless: true})
	var c collector
	n.AttachHost(1, c.recv(e))
	n.Inject(0, ack(0, 1, 7))
	if got := e.Pending(); got != 1 {
		t.Fatalf("%d events pending after the inject, want 1 (the uplink's burst delivery)", got)
	}
	e.RunAll()
	if len(c.pkts) != 1 || c.times[0] != sim.Time(4*(serCtrl+usec)) {
		t.Fatalf("delivered %d at %v, want 1 at %v", len(c.pkts), c.times, sim.Time(4*(serCtrl+usec)))
	}
	if got := e.Executed(); got != 4 {
		t.Fatalf("%d events executed for one ACK over four links, want 4", got)
	}
	for sw := range n.switches {
		for port := range n.switches[sw].ports {
			if pkts, _ := n.PortTxStats(sw, port); pkts > 1 {
				t.Fatalf("switch %d port %d transmitted %d packets", sw, port, pkts)
			}
		}
	}
	if pkts, bytes := n.PortTxStats(tp.ToROf(1), tp.HostAttach(1).Port); pkts != 1 || bytes != ctrlSize {
		t.Fatalf("last hop counted %d packets / %d bytes, want 1 / %d", pkts, bytes, ctrlSize)
	}
}

// A packet enqueued while an elided transmission still occupies the port
// starts at exactly its completion instant, through exactly one wake event.
func TestEnqueueDuringElidedTransmissionWakesAtCompletion(t *testing.T) {
	tp := leafSpine(t, 2, 1, 1)
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{ControlLossless: true})
	var c collector
	n.AttachHost(1, c.recv(e))
	q := n.hostUp[0]

	n.Inject(0, ack(0, 1, 0))
	if q.busy || q.wakeArmed || q.done.Time() != sim.Time(serCtrl) || e.Pending() != 1 {
		t.Fatalf("after the first inject: busy=%t wakeArmed=%t done=%v pending=%d", q.busy, q.wakeArmed, q.done.Time(), e.Pending())
	}
	e.At(sim.Time(serCtrl/2), func() { n.Inject(0, ack(0, 1, 1)) })
	e.Run(sim.Time(serCtrl / 2))
	if !q.wakeArmed || q.ctrl.len() != 1 || e.Pending() != 2 {
		t.Fatalf("mid-serialization: wakeArmed=%t queued=%d pending=%d, want the second ACK waiting on one wake event", q.wakeArmed, q.ctrl.len(), e.Pending())
	}
	e.Run(sim.Time(serCtrl))
	if q.wakeArmed || q.ctrl.len() != 0 || q.done.Time() != sim.Time(2*serCtrl) || q.pipe.len() != 2 {
		t.Fatalf("at the completion: wakeArmed=%t queued=%d done=%v on the wire=%d", q.wakeArmed, q.ctrl.len(), q.done.Time(), q.pipe.len())
	}
	if got := e.Executed(); got != 2 { // the inject and the wake
		t.Fatalf("%d events executed by the completion instant, want 2", got)
	}
	if err := checkPipes(n); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	first := sim.Time(4 * (serCtrl + usec))
	if len(c.pkts) != 2 || c.times[0] != first || c.times[1] != first.Add(serCtrl) {
		t.Fatalf("deliveries at %v, want %v and one serialization later", c.times, first)
	}
}

// The wake runs in the turn the eager model's txDone held: among same-instant
// events, after those scheduled before the transmission started and before
// those scheduled after. A control packet injected at the completion instant
// therefore goes ahead of data that has been waiting if its event precedes the
// turn (it is queued when the serializer picks), and behind it otherwise (the
// data has just started) — in both cases what the eager model chose.
func TestControlAtCompletionInstantKeepsEagerOrder(t *testing.T) {
	for _, tc := range []struct {
		name        string
		beforeStart bool // the late ACK's inject event is scheduled before the first transmission starts
		want        []packet.Kind
	}{
		{"event-precedes-turn", true, []packet.Kind{packet.Ack, packet.Ack, packet.Data}},
		{"event-follows-turn", false, []packet.Kind{packet.Ack, packet.Data, packet.Ack}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tp := leafSpine(t, 2, 1, 1)
			e := sim.NewEngine(1)
			n := NewNetwork(e, tp, Config{ControlLossless: true})
			var c collector
			n.AttachHost(1, c.recv(e))
			late := func() { n.Inject(0, ack(0, 1, 2)) }
			if tc.beforeStart {
				e.At(sim.Time(serCtrl), late)
			}
			n.Inject(0, ack(0, 1, 1)) // elided; completes at serCtrl
			if !tc.beforeStart {
				e.At(sim.Time(serCtrl), late)
			}
			e.At(sim.Time(serCtrl/2), func() { n.Inject(0, newData(0, 1, 9, 1000)) })
			e.RunAll()
			var got []packet.Kind
			for _, p := range c.pkts {
				got = append(got, p.Kind)
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("delivery order %v, want %v", got, tc.want)
			}
			// Whatever went second started at the first one's completion.
			second := sim.Duration(sim.TransmitTime(c.pkts[1].Size(), gbps100))
			if want := sim.Time(serCtrl + 4*(second+usec)); c.times[1] != want {
				t.Fatalf("second delivery at %v, want %v", c.times[1], want)
			}
		})
	}
}

// PFC frames that land while an elided transmission occupies the port gate
// and start the data class at the instants the eager model did. The port is
// leaf 0's one uplink; the ACK comes from host 0 and the data from host 1.
func TestPFCFramesDuringElidedTransmission(t *testing.T) {
	data := func() *packet.Packet { return newData(1, 2, 5, 1000) }
	serData := sim.Duration(sim.TransmitTime(data().Size(), gbps100))
	const ackInject = sim.Time(100 * sim.Nanosecond)
	// The ACK reaches leaf 0 — and, the uplink being idle, starts on it — here.
	ackStart := ackInject.Add(serCtrl + usec)
	ackDone := ackStart.Add(serCtrl)

	for _, tc := range []struct {
		name              string
		dataInject        sim.Time
		pauseAt, resumeAt sim.Time
		dataStart         sim.Time
	}{
		// The data sits paused on the uplink before the ACK starts, so the
		// ACK's completion is elided (nothing startable behind it). RESUME
		// lands mid-serialization: the data starts at ackDone, by one wake.
		{"resume-inside", 0, sim.Time(usec), ackStart.Add(serCtrl / 2), ackDone},
		// The data arrives mid-serialization and arms the wake; PAUSE lands
		// after it, still mid-serialization: the wake finds the class gated,
		// and the data starts only when RESUME lands, well after ackDone.
		{"pause-inside", ackStart.Add(serCtrl/4 - serData - usec), ackStart.Add(serCtrl / 2), ackStart.Add(3 * serCtrl), ackStart.Add(3 * serCtrl)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tp := leafSpine(t, 2, 1, 2) // hosts 0,1 on leaf 0; 2,3 on leaf 1
			e := sim.NewEngine(1)
			n := NewNetwork(e, tp, Config{ControlLossless: true, PFC: DefaultPFC(gbps100)})
			var c collector
			n.AttachHost(2, c.recv(e))
			q := fabricUplink(n, 0)

			e.At(tc.dataInject, func() { n.Inject(1, data()) })
			e.At(ackInject, func() { n.Inject(0, ack(0, 2, 1)) })
			e.At(tc.pauseAt, q.pauseFn)
			e.At(tc.resumeAt, q.resumeFn)

			// Once the frame inside the serialization has landed, the data is
			// waiting on exactly one wake event and no txDone.
			inside := tc.pauseAt
			if inside < ackStart {
				inside = tc.resumeAt
			}
			e.Run(inside)
			if q.busy || q.done.Time() != ackDone || !q.wakeArmed || q.data.len() != 1 {
				t.Fatalf("at %v: busy=%t done=%v (want %v) wakeArmed=%t queued data=%d",
					inside, q.busy, q.done.Time(), ackDone, q.wakeArmed, q.data.len())
			}
			e.RunAll()
			var dataAt sim.Time
			for i, p := range c.pkts {
				if p.Kind == packet.Data {
					dataAt = c.times[i]
				}
			}
			// From its start on the leaf uplink the data crosses three links.
			if want := tc.dataStart.Add(3 * (serData + usec)); len(c.pkts) != 2 || dataAt != want {
				t.Fatalf("%d delivered, data at %v; want 2, data at %v (on the uplink at %v)", len(c.pkts), dataAt, want, tc.dataStart)
			}
			// The data was charged to its ingress and released by its txDone.
			if got := n.switches[0].pfc.ingressBytes; got[0] != 0 || got[1] != 0 {
				t.Fatalf("ingress bytes left charged: %v", got)
			}
		})
	}
}

// A link that fails while an elided transmission is still leaving the port
// drops that packet — the port is down when its last bit leaves — although it
// was committed to the pipe when it started: it comes back off the wire, is
// counted and recycled, and no event is left behind for it.
func TestLinkFailureRetractsElidedTransmission(t *testing.T) {
	tp := leafSpine(t, 2, 1, 1)
	e := sim.NewEngine(1)
	pool := packet.NewPool()
	n := NewNetwork(e, tp, Config{ControlLossless: true, Pool: pool})
	delivered := 0
	n.AttachHost(1, func(*packet.Packet) { delivered++ })
	q := fabricUplink(n, 0)
	send := func(psn packet.PSN) {
		n.Inject(0, pool.Control(packet.Ack, 0, 1, 1, 1000, psn))
	}
	balanced := func() {
		t.Helper()
		allocs, reuses, returns := pool.Stats()
		if allocs+reuses != returns {
			t.Fatalf("pool: %d gets, %d puts", allocs+reuses, returns)
		}
	}

	// The ACK starts on the leaf uplink at serCtrl + 1 us; the link fails
	// half a serialization later.
	send(1)
	e.At(sim.Time(usec+serCtrl+serCtrl/2), func() { n.SetLinkState(0, q.port, false) })
	e.RunAll()
	if got := n.Counters().LinkDrops; got != 1 || delivered != 0 {
		t.Fatalf("LinkDrops = %d, delivered = %d; want 1, 0", got, delivered)
	}
	balanced()
	// The host uplink's burst delivery and the failure itself: the retracted
	// packet's burst event was cancelled, not run on an empty pipe.
	if got := e.Executed(); got != 2 || e.Pending() != 0 || q.pipe.len() != 0 {
		t.Fatalf("%d events executed, %d pending, %d on the wire; want 2, 0, 0", got, e.Pending(), q.pipe.len())
	}

	// The link comes back: an ACK still on the wire when the next one is
	// retracted is past its last bit and arrives.
	n.SetLinkState(0, q.port, true)
	t0 := e.Now()
	send(2)
	e.At(t0.Add(100*sim.Nanosecond), func() { send(3) })
	e.At(t0.Add(100*sim.Nanosecond+usec+serCtrl+serCtrl/2), func() {
		if err := checkPipes(n); err != nil {
			t.Error(err)
		}
		if q.pipe.len() != 2 {
			t.Errorf("%d packets on the leaf uplink's wire at the second failure, want 2", q.pipe.len())
		}
		n.SetLinkState(0, q.port, false)
		if err := checkPipes(n); err != nil {
			t.Error(err)
		}
	})
	e.RunAll()
	if got := n.Counters().LinkDrops; got != 2 || delivered != 1 {
		t.Fatalf("LinkDrops = %d, delivered = %d; want 2, 1", got, delivered)
	}
	balanced()
	if e.Pending() != 0 {
		t.Fatalf("%d events left pending", e.Pending())
	}

	// Down, up and down again inside one serialization: the packet is dropped
	// once, and the second failure finds nothing of it left to take back.
	n.SetLinkState(0, q.port, true)
	t0 = e.Now()
	send(4)
	for i, up := range []bool{false, true, false} {
		e.At(t0.Add(usec+serCtrl+sim.Duration(i+1)*serCtrl/4), func() { n.SetLinkState(0, q.port, up) })
	}
	e.RunAll()
	if got := n.Counters().LinkDrops; got != 3 || delivered != 1 {
		t.Fatalf("LinkDrops = %d, delivered = %d; want 3, 1", got, delivered)
	}
	balanced()
}

// Completions that release something keep their event. A lossy-control fabric
// charges control packets to the switch buffer, and PFC charges data to its
// ingress: both still run txDone on every switch port (two events per link),
// the buffer drains to zero and the PFC frame counts are the eager model's.
func TestReleasingCompletionsKeepTheirEvent(t *testing.T) {
	tp := leafSpine(t, 2, 1, 1)
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{ControlLossless: false, BufferBytes: 1 << 20})
	n.AttachHost(1, func(*packet.Packet) {})
	n.Inject(0, &packet.Packet{Kind: packet.Nack, Src: 0, Dst: 1, PSN: 3})
	e.Run(sim.Time(serCtrl + usec)) // at the first switch
	if got := n.switches[0].bufUsed; got != ctrlSize {
		t.Fatalf("leaf 0 holds %d buffer bytes for the NACK in transit, want %d", got, ctrlSize)
	}
	e.RunAll()
	// The host uplink (no buffer to release) elides: 1 event. Each of the
	// three switch ports pays its txDone and its burst delivery: 6.
	if got := e.Executed(); got != 7 {
		t.Fatalf("%d events executed, want 7", got)
	}
	for _, s := range n.switches {
		if s.bufUsed != 0 {
			t.Fatalf("switch %d still holds %d buffer bytes", s.sw.ID, s.bufUsed)
		}
	}

	// One data packet on a PFC fabric: Accounted on every switch it crosses.
	e = sim.NewEngine(1)
	n = NewNetwork(e, tp, Config{ControlLossless: true, PFC: DefaultPFC(gbps100)})
	n.AttachHost(1, func(*packet.Packet) {})
	n.Inject(0, newData(0, 1, 0, 1000))
	e.RunAll()
	if got := e.Executed(); got != 7 {
		t.Fatalf("%d events executed for one data packet under PFC, want 7", got)
	}

	// The 4:1 incast of TestPFCPreventsDropsUnderIncast: the PAUSE/RESUME
	// counts of the congested leaf are the ones measured before the elision.
	n, e, c := incastPFC(t, 4, 2000, 1<<20)
	probe := 0
	var tick func()
	tick = func() {
		if err := checkPipes(n); err != nil {
			t.Error(err)
		}
		if probe++; e.Pending() > 0 {
			e.Schedule(10*usec, tick)
		}
	}
	e.Schedule(10*usec, tick)
	e.RunAll()
	pauses, resumes := n.PFCStats(0)
	if len(c.pkts) != 8000 || pauses != wantIncastPauses || resumes != wantIncastPauses {
		t.Fatalf("delivered %d, leaf 0 sent %d PAUSE / %d RESUME; want 8000, %d / %d", len(c.pkts), pauses, resumes, wantIncastPauses, wantIncastPauses)
	}
	if probe < 10 {
		t.Fatalf("only %d pipe probes ran", probe)
	}
}

// Measured on the eager model (the commit before the elision, same incast).
const wantIncastPauses = 68

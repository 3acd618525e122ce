package fabric

import (
	"fmt"
	"slices"
	"testing"

	"themis/internal/packet"
	"themis/internal/sim"
)

// The tests in this file pin the elided serializer completion (see
// outQueue.maybeStart): a transmission with nothing behind it schedules no
// txDone, what it holds of its switch is released lazily but exactly (see
// debt), and the instants at which packets start, arrive and drop and PFC
// frames leave are the ones the eager model gave.

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

// held returns what switch sw holds — shared-buffer bytes and, under PFC, the
// bytes charged to each ingress port — once every release whose turn has
// passed is paid: the totals the eager model's txDone left at this instant.
func held(n *Network, sw int) (buf int, ingress []int) {
	s := n.switches[sw]
	s.settle()
	if s.pfc != nil {
		ingress = slices.Clone(s.pfc.ingressBytes)
	}
	return s.bufUsed, ingress
}

// checkPipes is the test-only invariant check on every link's propagation
// pipe: arrival times strictly increase from head to tail (what lets one
// pending event per link stand for every packet on the wire, and what an
// elided completion's early commit must preserve), and a non-empty pipe has
// exactly its head's burst event pending.
func checkPipes(n *Network) error {
	check := func(q *outQueue, name string) error {
		for i := 0; i < q.wire.len(); i++ {
			if i > 0 && q.wire.slots.at(i).at <= q.wire.slots.at(i-1).at {
				return fmt.Errorf("%s: pipe slot %d arrives at %v, not after slot %d at %v", name, i, q.wire.slots.at(i).at, i-1, q.wire.slots.at(i-1).at)
			}
		}
		if q.wire.len() > 0 {
			if q.wire.burstEv == nil || q.wire.burstEv.Fired() || q.wire.burstEv.Cancelled() || q.wire.burstEv.Time() != q.wire.slots.at(0).at {
				return fmt.Errorf("%s: %d packets on the wire without a burst event at the head arrival %v", name, q.wire.len(), q.wire.slots.at(0).at)
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
	if q.wakeArmed || q.ctrl.len() != 0 || q.done.Time() != sim.Time(2*serCtrl) || q.wire.len() != 2 {
		t.Fatalf("at the completion: wakeArmed=%t queued=%d done=%v on the wire=%d", q.wakeArmed, q.ctrl.len(), q.done.Time(), q.wire.len())
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
			// The data was charged to its ingress and released when it left.
			if _, got := held(n, 0); got[0] != 0 || got[1] != 0 {
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
	if got := e.Executed(); got != 2 || e.Pending() != 0 || q.wire.len() != 0 {
		t.Fatalf("%d events executed, %d pending, %d on the wire; want 2, 0, 0", got, e.Pending(), q.wire.len())
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
		if q.wire.len() != 2 {
			t.Errorf("%d packets on the leaf uplink's wire at the second failure, want 2", q.wire.len())
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

// Completions that release something elide like the rest. A lossy-control
// fabric charges control packets to the switch buffer, and PFC charges data
// to its ingress: on an idle path each link still costs one event, the burst
// delivery, the buffer is owed until its turn and then drains to zero, and
// the PFC frame counts are the eager model's.
func TestReleasingCompletionsElide(t *testing.T) {
	tp := leafSpine(t, 2, 1, 1)
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{ControlLossless: false, BufferBytes: 1 << 20})
	n.AttachHost(1, func(*packet.Packet) {})
	n.Inject(0, &packet.Packet{Kind: packet.Nack, Src: 0, Dst: 1, PSN: 3})
	e.Run(sim.Time(serCtrl + usec)) // at the first switch
	if got, _ := held(n, 0); got != ctrlSize {
		t.Fatalf("leaf 0 holds %d buffer bytes for the NACK in transit, want %d", got, ctrlSize)
	}
	e.RunAll()
	if got := e.Executed(); got != 4 {
		t.Fatalf("%d events executed for one NACK over four links, want 4", got)
	}
	for sw := range n.switches {
		if got, _ := held(n, sw); got != 0 {
			t.Fatalf("switch %d still holds %d buffer bytes", sw, got)
		}
	}

	// One data packet on a PFC fabric: Accounted on every switch it crosses.
	e = sim.NewEngine(1)
	n = NewNetwork(e, tp, Config{ControlLossless: true, PFC: DefaultPFC(gbps100)})
	n.AttachHost(1, func(*packet.Packet) {})
	n.Inject(0, newData(0, 1, 0, 1000))
	e.RunAll()
	if got := e.Executed(); got != 4 {
		t.Fatalf("%d events executed for one data packet under PFC, want 4", got)
	}
	for sw := range n.switches {
		if _, got := held(n, sw); slices.ContainsFunc(got, func(b int) bool { return b != 0 }) {
			t.Fatalf("switch %d ingress bytes left charged: %v", sw, got)
		}
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

// Admission reads the buffer through the debts: a release whose turn has
// passed is paid before a packet is refused, one still owed is not. The
// buffer holds exactly one data packet.
func TestAdmissionSettlesOnlyPassedDebts(t *testing.T) {
	size := newData(0, 2, 0, 1000).Size()
	ser := sim.Duration(sim.TransmitTime(size, gbps100))
	tp := leafSpine(t, 2, 1, 2) // hosts 0,1 on leaf 0; 2,3 on leaf 1
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{ControlLossless: true, BufferBytes: size})
	var c collector
	n.AttachHost(2, c.recv(e))
	up := fabricUplink(n, 0)

	// Host 0's first packet reaches leaf 0 at ser+usec and leaves its uplink,
	// elided, at 2ser+usec. Host 1's packet arrives in between and is refused
	// as the eager model refused it; host 0's second arrives after and is
	// admitted only by paying the first one's debt.
	n.Inject(0, newData(0, 2, 0, 1000))
	e.At(sim.Time(ser/2), func() { n.Inject(1, newData(1, 2, 0, 1000)) })
	e.At(sim.Time(2*ser), func() { n.Inject(0, newData(0, 2, 1, 1000)) })
	secondAt := sim.Time(3*ser + usec)
	e.Run(secondAt - 1)
	if got := n.Counters().DataDrops; got != 1 {
		t.Fatalf("%d data drops before the second packet arrives, want host 1's", got)
	}
	if s := n.switches[0]; s.bufUsed != size || !up.owed.buffered {
		t.Fatalf("leaf 0 counts %d buffer bytes, uplink owes %+v; want the first packet's debt still counted", s.bufUsed, up.owed)
	}
	e.RunAll()
	if got := n.Counters().DataDrops; got != 1 || len(c.pkts) != 2 || c.pkts[1].PSN != 1 {
		t.Fatalf("%d data drops, %d delivered; want 1 and host 0's two packets", got, len(c.pkts))
	}
	for sw := range n.switches {
		if got, _ := held(n, sw); got != 0 {
			t.Fatalf("switch %d still holds %d buffer bytes", sw, got)
		}
	}
	// Two timed injects, one event per link for each delivered packet, and
	// host 1's one hop to the refusal.
	if got := e.Executed(); got != 2+4+4+1 {
		t.Fatalf("%d events executed, want %d", got, 2+4+4+1)
	}
}

// PAUSE asserted on an ingress while an elided transmission still owes it
// bytes fills that transmission's turn with the wake: the release runs there,
// so the RESUME it sends leaves when the eager txDone sent it. A packet that
// starts while its ingress is paused keeps its txDone, whose RESUME is on time
// as before.
func TestPauseOnOwedIngressResumesOnTime(t *testing.T) {
	size := newData(0, 2, 0, 1000).Size()
	ser := sim.Duration(sim.TransmitTime(size, gbps100))
	tp := leafSpine(t, 2, 1, 2) // hosts 0,1 on leaf 0; 2,3 on leaf 1
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{ControlLossless: true, PFC: PFCConfig{Enabled: true, XoffBytes: 2 * size, XonBytes: size}})
	var c collector
	for h := packet.NodeID(0); h < 3; h++ {
		n.AttachHost(h, c.recv(e))
	}
	s := n.switches[0]
	up := fabricUplink(n, 0)
	local := s.ports[tp.HostAttach(1).Port]
	in := tp.HostAttach(0).Port
	hairpin := s.ports[in] // towards host 0 itself: a second port to hold a packet
	host := n.hostUp[0]    // what the ingress's PFC frames gate
	frames := func() (uint64, uint64) { return n.PFCStats(0) }

	// Both packets come in on host 0's port. The first leaves on the idle
	// uplink, elided, owing its ingress; the second, held by the paused port
	// towards host 1, crosses Xoff mid-transmission.
	local.setPaused(true)
	s.enqueue(newData(0, 2, 0, 1000), up.port, in)
	if up.busy || !up.owed.accounted || up.owed.in != in {
		t.Fatalf("uplink busy=%t owes %+v; want an elided start owing ingress %d", up.busy, up.owed, in)
	}
	e.At(sim.Time(ser/2), func() { s.enqueue(newData(0, 1, 0, 1000), local.port, in) })
	e.Run(sim.Time(ser / 2))
	if p, _ := frames(); p != 1 || !up.wakeArmed {
		t.Fatalf("%d PAUSE sent, wake armed %t; want 1 and the owed turn filled", p, up.wakeArmed)
	}
	// The first packet's last bit leaves at ser: its release takes the
	// ingress down to Xon, and RESUME lands one host-link delay later.
	resumeAt := sim.Time(ser).Add(usec)
	e.Run(resumeAt - 1)
	if _, r := frames(); r != 1 || !host.paused {
		t.Fatalf("%d RESUME sent, host paused %t just before the frame lands", r, host.paused)
	}
	e.Run(resumeAt)
	if host.paused {
		t.Fatalf("host 0 still paused at %v", resumeAt)
	}

	// A third packet, held towards host 0, re-asserts PAUSE with nothing
	// owed. Releasing the port towards host 1 starts the second packet alone
	// under that pause: it keeps its txDone, and its release sends RESUME at
	// its completion.
	hairpin.setPaused(true)
	s.enqueue(newData(0, 0, 0, 1000), hairpin.port, in)
	if p, _ := frames(); p != 2 {
		t.Fatalf("%d PAUSE sent, want 2", p)
	}
	start := e.Now()
	local.setPaused(false)
	if !local.busy {
		t.Fatal("a packet from a paused ingress started without its txDone")
	}
	e.Run(start.Add(ser + usec - 1))
	if _, r := frames(); r != 2 || !host.paused {
		t.Fatalf("%d RESUME sent, host paused %t just before the second RESUME lands", r, host.paused)
	}
	e.Run(start.Add(ser + usec))
	if host.paused {
		t.Fatalf("host 0 still paused at %v", start.Add(ser+usec))
	}
	hairpin.setPaused(false)
	e.RunAll()
	if p, r := frames(); p != 2 || r != 2 || host.paused || len(c.pkts) != 3 {
		t.Fatalf("%d PAUSE / %d RESUME, host paused %t, %d delivered; want 2 / 2, false, 3", p, r, host.paused, len(c.pkts))
	}
	if _, got := held(n, 0); got[in] != 0 {
		t.Fatalf("ingress bytes left charged: %v", got)
	}
}

// The Xoff test reads the ingress count through the debts as admission reads
// the buffer: a release whose turn has passed is paid before PAUSE is
// asserted.
func TestXoffSettlesPassedDebts(t *testing.T) {
	size := newData(0, 2, 0, 1000).Size()
	ser := sim.Duration(sim.TransmitTime(size, gbps100))
	tp := leafSpine(t, 2, 1, 2)
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{ControlLossless: true, PFC: PFCConfig{Enabled: true, XoffBytes: 2 * size, XonBytes: size}})
	n.AttachHost(2, func(*packet.Packet) {})
	s := n.switches[0]
	up := fabricUplink(n, 0)
	in := tp.HostAttach(0).Port

	// The first packet leaves on the idle uplink owing its ingress; the
	// second comes in on the same port after the first's last bit left.
	s.enqueue(newData(0, 2, 0, 1000), up.port, in)
	e.At(sim.Time(2*ser), func() {
		if got := s.pfc.ingressBytes[in]; got != size || !up.owed.accounted {
			t.Errorf("ingress %d counts %d bytes, uplink owes %+v; want the first packet still counted", in, got, up.owed)
		}
		s.enqueue(newData(0, 2, 1, 1000), up.port, in)
	})
	e.RunAll()
	if p, _ := n.PFCStats(0); p != 0 {
		t.Fatalf("%d PAUSE sent for an ingress that never held two packets at once", p)
	}
}

// A link that fails during an elided data transmission drops the packet (see
// retract), and the packet's debt is still paid: the buffer and ingress bytes
// it held come back as the eager txDone gave them back.
func TestLinkFailureDuringElidedDataPaysItsDebt(t *testing.T) {
	tp := leafSpine(t, 2, 1, 1)
	e := sim.NewEngine(1)
	pool := packet.NewPool()
	n := NewNetwork(e, tp, Config{ControlLossless: true, BufferBytes: 1 << 20, PFC: DefaultPFC(gbps100), Pool: pool})
	delivered := 0
	n.AttachHost(1, func(*packet.Packet) { delivered++ })
	q := fabricUplink(n, 0)
	pkt := pool.Get()
	*pkt = *newData(0, 1, 0, 1000)
	ser := sim.Duration(sim.TransmitTime(pkt.Size(), gbps100))
	n.Inject(0, pkt)
	e.At(sim.Time(usec+ser+ser/2), func() {
		if !q.owed.buffered || !q.owed.accounted {
			t.Errorf("uplink owes %+v mid-transmission, want the data's buffer and ingress bytes", q.owed)
		}
		n.SetLinkState(0, q.port, false)
	})
	// Read the totals once the dropped packet's last bit would have left.
	e.At(sim.Time(usec+3*ser), func() {
		if buf, ingress := held(n, 0); buf != 0 || slices.ContainsFunc(ingress, func(b int) bool { return b != 0 }) {
			t.Errorf("leaf 0 holds %d buffer bytes and ingress %v after the drop", buf, ingress)
		}
	})
	e.RunAll()
	if got := n.Counters().LinkDrops; got != 1 || delivered != 0 {
		t.Fatalf("LinkDrops = %d, delivered = %d; want 1, 0", got, delivered)
	}
	if allocs, reuses, returns := pool.Stats(); allocs+reuses != returns {
		t.Fatalf("pool: %d gets, %d puts", allocs+reuses, returns)
	}
	// The host uplink's delivery, the failure and the read: no completion.
	if got := e.Executed(); got != 3 || e.Pending() != 0 {
		t.Fatalf("%d events executed, %d pending; want 3, 0", got, e.Pending())
	}
}

// Measured on the eager model (the commit before the elision, same incast).
const wantIncastPauses = 68

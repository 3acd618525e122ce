package fabric

import (
	"themis/internal/packet"
	"themis/internal/sim"
	"themis/internal/trace"
)

// fifo is a queue over a power-of-two ring: its capacity doubles when full
// and is kept, so steady-state push/pop allocates nothing and the ring is
// never more than twice the most the queue has held. Vacated slots are zeroed
// so popped packets do not stay reachable.
type fifo[T any] struct {
	buf     []T // len(buf) is 0 or a power of two
	head, n int
}

func (f *fifo[T]) len() int { return f.n }

// at returns the i-th queued element (0 is the head).
func (f *fifo[T]) at(i int) *T { return &f.buf[(f.head+i)&(len(f.buf)-1)] }

func (f *fifo[T]) push(v T) {
	if f.n == len(f.buf) {
		buf := make([]T, max(4, 2*f.n)) //lint:alloc-ok FIFO growth is amortized; the ring is retained
		copy(buf[copy(buf, f.buf[f.head:]):], f.buf[:f.head])
		f.buf, f.head = buf, 0
	}
	f.n++
	*f.at(f.n - 1) = v
}

func (f *fifo[T]) pop() T {
	var zero T
	v := f.buf[f.head]
	f.buf[f.head] = zero
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return v
}

// popTail removes and returns the most recently pushed element.
func (f *fifo[T]) popTail() T {
	var zero T
	f.n--
	p := f.at(f.n)
	v := *p
	*p = zero
	return v
}

// outQueue is one egress serializer: two FIFOs (a strict-priority control
// class for ACK/NACK/CNP and a data class) draining at the link rate,
// followed by the link's propagation delay. RoCE deployments carry control
// in a separate high-priority traffic class so acknowledgments never sit
// behind bulk data — the NACK return latency this preserves is exactly what
// sizes Themis-D's PSN ring (§3.3). PFC pause applies to the data class
// only. outQueue is used for every switch port and for each host's access
// link.
type outQueue struct {
	net        *Network
	sw         *swInst // owning switch; nil for host uplink serializers
	port       int     // port index on sw (meaningless when sw == nil)
	isHostPort bool    // this egress faces a host (ToR last hop)
	bw         int64
	delay      sim.Duration
	deliver    func(*packet.Packet)

	// shard is the owning shard; eng/ctr/pool are that shard's engine, counter
	// block and packet pool (see wire).
	shard int
	eng   *sim.Engine
	ctr   *Counters
	pool  *packet.Pool

	// pri orders this link's deliveries, and pausePri the PFC pause frames
	// addressed to this queue, against same-time events at the receiver. Both
	// derive from the queue's channel identity (see wire).
	pri, pausePri uint64
	// peer is the shard of the link's receiving end: the queue's own, except
	// on a link whose peer switch lives on another shard.
	peer int

	// txDoneFn is the txDone callback pre-bound once at construction (see
	// bind). The serializer schedules it with Engine.ScheduleArg, passing the
	// packet as the argument, so steady-state forwarding allocates no
	// closures: a *Packet stored in an interface is a direct pointer, not a
	// boxing allocation.
	txDoneFn func(any)

	// pauseFn/resumeFn are the PFC pause/resume callbacks pre-bound once, so
	// delivering a pause frame after its propagation delay schedules an
	// existing closure instead of building one per frame.
	pauseFn  func()
	resumeFn func()

	// wire is the link's propagation delay (see pipe). PFC pause frames
	// bypass the serializer entirely (see pfc.go) and never enter it.
	wire pipe

	data fifo[*packet.Packet] // data class
	ctrl fifo[*packet.Packet] // control class (strict priority)
	// runs is a host access link's data class while its packets wait: a
	// waiting packet is packed into a sendRun and its struct goes back to the
	// pool (see pack). The link holds an O(message) backlog at line-rate
	// pacing, which as *Packets would cost a pooled struct apiece. Switch
	// ports, and host links under the test-only keepPackets, leave it empty.
	runs        fifo[sendRun]
	keepPackets bool
	// peak is the most entries a host link's data class has held waiting:
	// packets under keepPackets, sendRuns otherwise (read by tests).
	peak int

	bytes  int  // queued data-class bytes (LB and ECN look at this); > 0 iff data waits
	busy   bool // a txDone event is pending and will start the next packet
	paused bool // PFC pause asserted by the downstream ingress (data only)

	// done is the reserved place of the latest elided transmission's
	// completion (see maybeStart): the instant its last bit leaves the port,
	// in the order a txDone scheduled at its start would have run. No event
	// fills the turn unless something arrives to wait for it, in which case
	// wake is armed there (wakeArmed).
	done      sim.Turn
	wakeArmed bool
	// owed is the buffer and PFC ingress release that transmission owes its
	// switch at done (see debt and settle).
	owed debt

	// PFC deadlock watchdog (see PFCConfig.WatchdogTimeout). pausedSince is
	// when the current pause was asserted; wdArmed is whether a check is
	// pending; wdFn is the pre-bound check callback.
	pausedSince sim.Time
	wdArmed     bool
	wdFn        func()

	txPackets uint64
	txBytes   uint64
}

// pipe models a link's propagation delay as a FIFO of in-flight packets.
// Arrival times are monotone per link — transmission completions strictly
// increase (TransmitTime rounds up to ≥1 ps), whether the packet is committed
// at its completion (txDone) or at its start (an elided completion, see
// maybeStart), and the delay is fixed — so only the head's arrival ever needs
// an engine event. deliverBurst drains every contiguous entry sharing the
// head's arrival timestamp in one callback (the DPDK rx-burst idiom) and
// re-arms for the next distinct arrival, bounding the scheduler to ONE
// pending event per link regardless of how many packets are on the wire.
//
// The pipe belongs to the link's receiving end: eng is the engine that
// delivers. On a link whose peer switch lives on another shard the sending
// queue stages each packet in the pipe's staged slots for the current mail
// bank and hands the link over through the epoch mailbox once an epoch, at
// its first packet; the receiving worker moves the staged slots onto the
// pipe when it drains its mail (hand, see commit), so a cross-shard link
// holds one pending event too.
type pipe struct {
	slots   fifo[pipeSlot]
	eng     *sim.Engine
	pri     uint64
	deliver func(*packet.Packet)
	burstFn func()
	// burstEv is the head arrival's event while the pipe is non-empty (stale
	// otherwise).
	burstEv *sim.Event
	// staged[b] holds the packets the sender committed while mail bank b
	// was current (sim.ShardGroup.Bank): the sender writes the current
	// bank's slots while the receiver takes the retired bank's. hand moves
	// the slots it is handed onto the pipe. Both are set only on a
	// cross-shard link.
	staged [2]fifo[pipeSlot]
	hand   func(sim.Time, any)
}

// pipeSlot is one in-flight packet on a link's propagation pipe.
type pipeSlot struct {
	pkt *packet.Packet
	at  sim.Time
}

func (p *pipe) len() int { return p.slots.len() }

// push appends pkt, arriving at time at. Appending preserves arrival order
// (arrival times strictly increase per link); the head-arrival engine event is
// armed only when the pipe was empty — otherwise the pending deliverBurst
// chains the next arm itself.
func (p *pipe) push(pkt *packet.Packet, at sim.Time) {
	if p.len() == 0 {
		p.burstEv = p.eng.AtPri(at, p.pri, p.burstFn)
	}
	p.slots.push(pipeSlot{pkt: pkt, at: at})
}

// deliverBurst fires at the head arrival time and delivers every contiguous
// packet sharing that timestamp as one burst. The re-arm for the next
// distinct arrival happens BEFORE the deliveries: the next arrival must sort
// ahead of same-timestamp events scheduled by the delivery cascade (the
// downstream port's txDone in particular), matching the per-event model
// where every delivery was scheduled at its own transmission completion —
// ahead of anything the receiving switch schedules on arrival. A link
// failing mid-flight does not drop pipe residents whose last bit has left
// the port: txDone gates on portUp at transmission completion (retract does
// the same for an elided one), and a packet past that point was already
// committed to the wire under the per-event model too.
func (p *pipe) deliverBurst() {
	now := p.eng.Now()
	burst := 1
	for burst < p.len() && p.slots.at(burst).at == now {
		burst++
	}
	if burst < p.len() {
		p.burstEv = p.eng.AtPri(p.slots.at(burst).at, p.pri, p.burstFn)
	}
	for ; burst > 0; burst-- {
		p.deliver(p.slots.pop().pkt)
	}
}

// bind installs the pre-bound callbacks. Must be called once after the
// deliver field is set.
func (q *outQueue) bind() {
	q.txDoneFn = func(a any) { q.txDone(a.(*packet.Packet)) }
	q.pauseFn = func() { q.setPaused(true) }
	q.resumeFn = func() { q.setPaused(false) }
	q.wdFn = q.watchdogCheck
	q.wire.deliver = q.deliver
	q.wire.burstFn = q.wire.deliverBurst
}

// enqueue appends pkt to its class and starts the serializer if it is free.
// A data packet still waiting on a host link afterwards is the newest one
// queued (next serves runs first), so packing it keeps the class in order.
func (q *outQueue) enqueue(pkt *packet.Packet) {
	if pkt.Kind.IsControl() {
		q.ctrl.push(pkt)
	} else {
		q.data.push(pkt)
		q.bytes += pkt.Size()
		if q.paused {
			q.armWatchdog()
		}
	}
	q.kick()
	if q.sw == nil && q.data.len() > 0 {
		if !q.keepPackets {
			q.pack(q.data.popTail())
		}
		q.peak = max(q.peak, q.data.len()+q.runs.len())
	}
}

// sendRun is a run of count data packets waiting on a host access link, equal
// in every field but PSN, which runs psn, psn+1, … modulo 2^24: a pacer burst
// of one QP is one record. hdr holds every field Network.Inject can leave set
// except Kind (Data) and PSN; the fabric-internal Buffered, Accounted and
// InPort are zero before a packet's first switch (pack checks it). A record
// is 36 bytes: payload and count are int32 (an MTU payload; a link backlog of
// packets) and the header's 4-byte fields come first, so its 2- and 1-byte
// fields pack behind them.
type sendRun struct {
	hdr   sendHdr
	psn   packet.PSN
	count int32
}

type sendHdr struct {
	src, dst     packet.NodeID
	qp           packet.QPID
	payload      int32
	routeEpoch   uint32
	sport, dport uint16
	ecn          bool
	ttl          uint8
	retransmit   bool
}

// pack appends a waiting data packet to the runs, extending the tail run when
// it is that run's next PSN with an equal header, and returns its struct to
// the pool. A per-packet SPort (REPS) or a RouteEpoch change breaks the run.
func (q *outQueue) pack(pkt *packet.Packet) {
	if pkt.Buffered || pkt.Accounted || pkt.InPort != 0 {
		panic("fabric: a host link's waiting packet carries switch state")
	}
	r := sendRun{hdr: sendHdr{
		src: pkt.Src, dst: pkt.Dst, qp: pkt.QP, sport: pkt.SPort, dport: pkt.DPort,
		payload: int32(pkt.Payload), ecn: pkt.ECN, ttl: pkt.TTL, routeEpoch: pkt.RouteEpoch,
		retransmit: pkt.Retransmit,
	}, psn: pkt.PSN, count: 1}
	q.pool.Put(pkt)
	if n := q.runs.len(); n > 0 {
		if t := q.runs.at(n - 1); t.hdr == r.hdr && t.psn.Add(int(t.count)) == r.psn {
			t.count++
			return
		}
	}
	q.runs.push(r)
}

// unpack takes the head run's first packet into a struct from the pool.
func (q *outQueue) unpack() *packet.Packet {
	r := q.runs.at(0)
	h := &r.hdr
	pkt := q.pool.Get()
	*pkt = packet.Packet{
		Kind: packet.Data, Src: h.src, Dst: h.dst, QP: h.qp, SPort: h.sport, DPort: h.dport,
		PSN: r.psn, Payload: int(h.payload), ECN: h.ecn, TTL: h.ttl, RouteEpoch: h.routeEpoch,
		Retransmit: h.retransmit,
	}
	if r.count--; r.count == 0 {
		q.runs.pop()
	} else {
		r.psn = r.psn.Next()
	}
	return pkt
}

// kick starts the serializer if it is free, and otherwise makes sure an event
// will: the pending txDone, or the wake event in the turn of an elided
// completion. The port is free once execution has passed that turn — exactly
// when the eager model's txDone would have run and cleared busy — so what is
// enqueued at the completion instant queues or starts as it did there.
func (q *outQueue) kick() {
	switch {
	case q.busy || q.wakeArmed:
	case q.eng.Passed(q.done):
		q.maybeStart()
	default:
		q.armWake()
	}
}

// armWake fills the turn of the latest elided completion, which must not have
// passed, with the wake event.
func (q *outQueue) armWake() {
	if !q.wakeArmed {
		q.wakeArmed = true
		q.eng.AtTurn(q.done, wake, q)
	}
}

// wake fills the turn of an elided completion when something was enqueued (or
// the data class resumed) before it, or when its debt must be paid on time
// (PAUSE asserted on the debt's ingress, see accountIngress). One function
// serves every queue — the queue rides in the event's argument — so wiring
// binds no callback for it.
func wake(a any) {
	q := a.(*outQueue)
	q.wakeArmed = false
	q.maybeStart()
}

// next dequeues the next transmittable packet: control first, then data
// unless PFC-paused.
func (q *outQueue) next() *packet.Packet {
	if q.ctrl.len() > 0 {
		return q.ctrl.pop()
	}
	if q.paused || q.bytes == 0 {
		return nil
	}
	var pkt *packet.Packet
	if q.runs.len() > 0 {
		pkt = q.unpack()
	} else {
		pkt = q.data.pop()
	}
	q.bytes -= pkt.Size()
	return pkt
}

// maybeStart begins serializing the next eligible packet, if any.
//
// A transmission normally ends in a txDone event. That event is elided when
// it would have nothing to start (control FIFO empty, data FIFO empty or
// paused), a wire to put the packet on (up port, delay > 0) and no RESUME
// riding on its release (its PFC ingress is not paused). The completion
// instant and hence the arrival are known now, so the packet is committed to
// the pipe at once and the completion's place in the execution order is only
// reserved (done); an arrival before it arms the one wake event there (kick),
// so a backlogged queue pays one event per packet as before and an idle one
// none. Deliveries are ordered by (time, channel stamp) alone, never by when
// their burst event was armed, so committing early reorders nothing
// downstream, and the wake runs where the txDone would have: the elision
// removes events and moves none.
//
// The buffer space and PFC ingress bytes the packet holds become a debt the
// queue owes at done (owed). It is paid at the queue's next start or wake,
// both at or after the turn, or earlier by swInst.settle when an admission or
// Xoff decision would read the over-estimate; PAUSE on its ingress fills the
// turn with the wake so the release runs exactly there.
func (q *outQueue) maybeStart() {
	q.settle()
	pkt := q.next()
	if pkt == nil {
		return
	}
	q.busy = true
	// Themis-D hook: a data packet leaving a ToR towards its host (§3.3
	// "before they leave the ToR switch"). Compensation NACKs are injected
	// into the switch and routed normally.
	if q.sw != nil && pkt.Kind == packet.Data && q.sw.pipeline != nil && q.isHostPort {
		for _, extra := range q.sw.pipeline.OnDeliverToHost(pkt) {
			q.ctr.Compensated++
			q.net.stampHop(extra)
			q.sw.receive(extra, -1)
		}
	}
	ser := sim.TransmitTime(pkt.Size(), q.bw)
	if q.delay > 0 && q.ctrl.len() == 0 && (q.paused || q.bytes == 0) &&
		(q.sw == nil || q.sw.portUp[q.port] && !(pkt.Accounted && q.sw.pfc.pauseSent[pkt.InPort])) {
		q.busy = false
		q.done = q.eng.Reserve(q.eng.Now().Add(ser))
		q.owed = take(pkt)
		q.txPackets++
		q.txBytes += uint64(pkt.Size())
		q.commit(pkt, q.done.Time().Add(q.delay))
		return
	}
	q.eng.ScheduleArg(ser, q.txDoneFn, pkt)
}

// txDone fires when the last bit of pkt leaves the port: buffer space is
// released, the packet propagates (unless the link failed mid-flight), and
// the next packet starts.
func (q *outQueue) txDone(pkt *packet.Packet) {
	q.txPackets++
	q.txBytes += uint64(pkt.Size())
	if q.sw != nil {
		q.sw.release(pkt)
	}
	switch {
	case q.sw != nil && !q.sw.portUp[q.port]:
		q.ctr.LinkDrops++
		q.pool.Put(pkt)
	case q.delay <= 0:
		q.deliver(pkt)
	default:
		q.commit(pkt, q.eng.Now().Add(q.delay))
	}
	q.busy = false
	q.maybeStart()
}

// settle pays the latest elided transmission's debt, if it is still owed.
// Callers run at or after its turn.
func (q *outQueue) settle() {
	if q.owed.held() {
		q.sw.pay(q.owed)
		q.owed = debt{}
	}
}

// commit puts pkt on the wire to arrive at time at: straight onto the pipe,
// or, across a shard boundary, into the current bank's staged slots, handing
// the link to the shard that owns the pipe at the bank's first packet. One
// Hand carries a link's epoch of packets, at its earliest arrival: the
// receiver pushes them in commit order, so the pipe's burst event is armed
// where the first packet's own hand would have armed it.
func (q *outQueue) commit(pkt *packet.Packet, at sim.Time) {
	w := &q.wire
	if w.hand == nil {
		w.push(pkt, at)
		return
	}
	s := &w.staged[q.net.group.Bank()]
	if s.len() == 0 {
		q.net.group.Hand(q.shard, q.peer, at, w.hand, s)
	}
	s.push(pipeSlot{pkt: pkt, at: at})
}

// take moves a bank of staged slots onto the pipe, in commit order.
func (p *pipe) take(s *fifo[pipeSlot]) {
	for s.len() > 0 {
		sl := s.pop()
		p.push(sl.pkt, sl.at)
	}
}

// retract is the link-failure edge of an elided completion. txDone drops a
// packet iff its port is down when the last bit leaves; an elided
// transmission was committed to the pipe at its start, so when the port fails
// before its completion turn the packet comes back off the pipe's tail
// (nothing can have been pushed behind it) and is dropped here. If that
// empties the pipe its burst event goes too. One difference from txDone is
// accepted: a port that fails and recovers within the one serialization
// still drops the packet (a second failure inside it finds the tail gone).
// Link state only changes on an unpartitioned network (mustBeOneShard), so
// the packet is on the pipe, never in a shard mailbox, and the pipe's engine
// is the queue's.
func (q *outQueue) retract() {
	w := &q.wire
	n := w.len()
	if q.eng.Passed(q.done) || n == 0 || w.slots.at(n-1).at != q.done.Time().Add(q.delay) {
		return
	}
	pkt := w.slots.popTail().pkt
	if n == 1 {
		q.eng.Cancel(w.burstEv)
	}
	q.ctr.LinkDrops++
	q.pool.Put(pkt)
}

// setPaused gates the data class. Resuming kicks the queue; pausing with a
// data backlog arms the deadlock watchdog.
func (q *outQueue) setPaused(pause bool) {
	if q.paused == pause {
		return
	}
	q.paused = pause
	if pause {
		q.pausedSince = q.eng.Now()
		if q.bytes > 0 {
			q.armWatchdog()
		}
		return
	}
	if q.bytes > 0 {
		q.kick()
	}
}

// armWatchdog schedules a deadlock check WatchdogTimeout from now. Host
// uplink serializers are exempt: a pause cycle is a switch-buffer
// phenomenon, and a host queue paused by its ToR is ordinary backpressure.
func (q *outQueue) armWatchdog() {
	wd := q.net.cfg.PFC.WatchdogTimeout
	if wd <= 0 || q.sw == nil || q.wdArmed {
		return
	}
	q.wdArmed = true
	q.eng.Schedule(wd, q.wdFn)
}

// watchdogCheck declares the queue deadlocked if it has been continuously
// paused for the full timeout while still holding data, and flushes the
// data backlog: releasing the buffer space and PFC ingress accounting those
// packets pin lets the upstream pauses clear and the cycle unwind. The
// check never re-arms itself unconditionally — a fresh arm needs a new
// pause assertion or a new enqueue under pause — so a drained engine stays
// drained.
func (q *outQueue) watchdogCheck() {
	q.wdArmed = false
	if !q.paused || q.data.len() == 0 {
		return
	}
	wd := q.net.cfg.PFC.WatchdogTimeout
	if elapsed := q.eng.Now().Sub(q.pausedSince); elapsed < wd {
		// The pause toggled since this check was armed; watch the remainder
		// of the current episode.
		q.wdArmed = true
		q.eng.Schedule(wd-elapsed, q.wdFn)
		return
	}
	q.ctr.WatchdogFires++
	for q.data.len() > 0 {
		pkt := q.data.pop()
		q.bytes -= pkt.Size()
		q.sw.release(pkt)
		q.ctr.WatchdogDrops++
		q.net.cfg.Tracer.RecordPacket(q.eng.Now(), trace.Drop, q.sw.sw.ID, q.port, pkt)
		q.pool.Put(pkt)
	}
}

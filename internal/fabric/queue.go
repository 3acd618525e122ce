package fabric

import (
	"themis/internal/packet"
	"themis/internal/sim"
	"themis/internal/trace"
)

// fifo is a head-indexed queue over a retained backing array: pop advances
// the head instead of shifting, the array rewinds when the queue empties and
// is compacted once the dead prefix dominates, so steady-state push/pop
// allocates nothing. Vacated slots are zeroed so popped packets do not stay
// reachable.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

// at returns the i-th queued element (0 is the head).
func (f *fifo[T]) at(i int) *T { return &f.buf[f.head+i] }

func (f *fifo[T]) push(v T) {
	f.buf = append(f.buf, v) //lint:alloc-ok FIFO growth is amortized; the backing array is retained
}

func (f *fifo[T]) pop() T {
	var zero T
	v := f.buf[f.head]
	f.buf[f.head] = zero
	f.head++
	switch {
	case f.head == len(f.buf):
		f.buf, f.head = f.buf[:0], 0
	case f.head > 64 && f.head*2 >= len(f.buf):
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf, f.head = f.buf[:n], 0
	}
	return v
}

// popTail removes and returns the most recently pushed element.
func (f *fifo[T]) popTail() T {
	var zero T
	n := len(f.buf) - 1
	v := f.buf[n]
	f.buf[n] = zero
	f.buf = f.buf[:n]
	if f.head == n {
		f.buf, f.head = f.buf[:0], 0
	}
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
	// post, set only on links whose peer switch lives on another shard,
	// replaces the propagation pipe with a post into the group's epoch mailbox
	// for delivery at the given arrival time.
	post func(*packet.Packet, sim.Time)

	// txDoneFn/deliverFn are the deliver/txDone callbacks pre-bound once at
	// construction (see bind). The serializer schedules them with
	// Engine.ScheduleArg, passing the packet as the argument, so steady-state
	// forwarding allocates no closures: a *Packet stored in an interface is a
	// direct pointer, not a boxing allocation.
	txDoneFn  func(any)
	deliverFn func(any)

	// pauseFn/resumeFn are the PFC pause/resume callbacks pre-bound once, so
	// delivering a pause frame after its propagation delay schedules an
	// existing closure instead of building one per frame.
	pauseFn  func()
	resumeFn func()

	// pipe models the link's propagation delay as a FIFO of in-flight
	// packets. Arrival times are monotone per queue — transmission
	// completions strictly increase (TransmitTime rounds up to ≥1 ps), whether
	// the packet is committed at its completion (txDone) or at its start (an
	// elided completion, see maybeStart), and the delay is fixed — so only the
	// head's arrival ever needs an engine event.
	// deliverBurst drains every contiguous entry sharing the head's arrival
	// timestamp in one callback (the DPDK rx-burst idiom) and re-arms for the
	// next distinct arrival, bounding the scheduler to ONE pending event per
	// link regardless of how many packets are on the wire. PFC pause frames
	// bypass the serializer entirely (see pfc.go) and never enter the pipe.
	// burstEv is that event while the pipe is non-empty (stale otherwise).
	pipe    fifo[pipeSlot]
	burstFn func()
	burstEv *sim.Event

	data fifo[*packet.Packet] // data class
	ctrl fifo[*packet.Packet] // control class (strict priority)

	bytes  int  // queued data-class bytes (LB and ECN look at this)
	busy   bool // a txDone event is pending and will start the next packet
	paused bool // PFC pause asserted by the downstream ingress (data only)

	// done is the reserved place of the latest elided transmission's
	// completion (see maybeStart): the instant its last bit leaves the port,
	// in the order a txDone scheduled at its start would have run. No event
	// fills the turn unless something arrives to wait for it, in which case
	// wake is armed there (wakeArmed).
	done      sim.Turn
	wakeArmed bool

	// PFC deadlock watchdog (see PFCConfig.WatchdogTimeout). pausedSince is
	// when the current pause was asserted; wdArmed is whether a check is
	// pending; wdFn is the pre-bound check callback.
	pausedSince sim.Time
	wdArmed     bool
	wdFn        func()

	txPackets uint64
	txBytes   uint64
}

// pipeSlot is one in-flight packet on a link's propagation pipe.
type pipeSlot struct {
	pkt *packet.Packet
	at  sim.Time
}

// bind installs the arg-carrying schedule callbacks. Must be called once
// after the deliver field is set.
func (q *outQueue) bind() {
	q.txDoneFn = func(a any) { q.txDone(a.(*packet.Packet)) }
	q.deliverFn = func(a any) { q.deliver(a.(*packet.Packet)) }
	q.pauseFn = func() { q.setPaused(true) }
	q.resumeFn = func() { q.setPaused(false) }
	q.wdFn = q.watchdogCheck
	q.burstFn = q.deliverBurst
}

// enqueue appends pkt to its class and starts the serializer if it is free.
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
		q.wakeArmed = true
		q.eng.AtTurn(q.done, wake, q)
	}
}

// wake fills the turn of an elided completion when something was enqueued (or
// the data class resumed) before it. One function serves every queue — the
// queue rides in the event's argument — so wiring binds no callback for it.
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
	if q.paused || q.data.len() == 0 {
		return nil
	}
	pkt := q.data.pop()
	q.bytes -= pkt.Size()
	return pkt
}

// maybeStart begins serializing the next eligible packet, if any.
//
// A transmission normally ends in a txDone event. That event is elided when
// it would have nothing to do: nothing to release (the packet holds no buffer
// space and no PFC ingress bytes — control on a lossless-control fabric,
// anything on a host uplink), nothing to start (control FIFO empty, data FIFO
// empty or paused) and a wire to put the packet on (up port, delay > 0). The
// completion instant and hence the arrival are known now, so the packet is
// committed to the pipe at once and the completion's place in the execution
// order is only reserved (done); an arrival before it arms the one wake
// event there (kick), so a backlogged queue pays one event per packet as
// before and an idle one none. Deliveries are ordered by (time, channel
// stamp) alone, never by when their burst event was armed, so committing
// early reorders nothing downstream, and the wake runs where the txDone
// would have: the elision removes events and moves none.
func (q *outQueue) maybeStart() {
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
	if !pkt.Buffered && !pkt.Accounted && q.delay > 0 && q.ctrl.len() == 0 &&
		(q.paused || q.data.len() == 0) && (q.sw == nil || q.sw.portUp[q.port]) {
		q.busy = false
		q.done = q.eng.Reserve(q.eng.Now().Add(ser))
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

// commit puts pkt on the wire to arrive at time at: the cross-shard post, or
// the propagation pipe.
func (q *outQueue) commit(pkt *packet.Packet, at sim.Time) {
	if q.post != nil {
		q.post(pkt, at)
		return
	}
	q.pipePush(pkt, at)
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
// the packet is on the pipe, never in a shard mailbox.
func (q *outQueue) retract() {
	n := q.pipe.len()
	if q.eng.Passed(q.done) || n == 0 || q.pipe.at(n-1).at != q.done.Time().Add(q.delay) {
		return
	}
	pkt := q.pipe.popTail().pkt
	if n == 1 {
		q.eng.Cancel(q.burstEv)
	}
	q.ctr.LinkDrops++
	q.pool.Put(pkt)
}

// pipePush appends pkt to the propagation pipe, arriving at time at.
// Appending preserves arrival order (arrival times strictly increase per
// queue); the head-arrival engine event is armed only when the pipe was
// empty — otherwise the pending deliverBurst chains the next arm itself.
func (q *outQueue) pipePush(pkt *packet.Packet, at sim.Time) {
	if q.pipe.len() == 0 {
		q.burstEv = q.eng.AtPri(at, q.pri, q.burstFn)
	}
	q.pipe.push(pipeSlot{pkt: pkt, at: at})
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
func (q *outQueue) deliverBurst() {
	now := q.eng.Now()
	burst := 1
	for burst < q.pipe.len() && q.pipe.at(burst).at == now {
		burst++
	}
	if burst < q.pipe.len() {
		q.burstEv = q.eng.AtPri(q.pipe.at(burst).at, q.pri, q.burstFn)
	}
	for ; burst > 0; burst-- {
		q.deliver(q.pipe.pop().pkt)
	}
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
		if q.data.len() > 0 {
			q.armWatchdog()
		}
		return
	}
	if q.data.len() > 0 {
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

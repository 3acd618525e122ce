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
	// replaces the propagation pipe with a post into the group's epoch mailbox.
	post func(*packet.Packet)

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
	// packets. Arrival times are monotone per queue — txDone completions
	// strictly increase (TransmitTime rounds up to ≥1 ps) and the delay is
	// fixed — so only the head's arrival ever needs an engine event.
	// deliverBurst drains every contiguous entry sharing the head's arrival
	// timestamp in one callback (the DPDK rx-burst idiom) and re-arms for the
	// next distinct arrival, bounding the scheduler to ONE pending event per
	// link regardless of how many packets are on the wire. PFC pause frames
	// bypass the serializer entirely (see pfc.go) and never enter the pipe.
	pipe    fifo[pipeSlot]
	burstFn func()

	data fifo[*packet.Packet] // data class
	ctrl fifo[*packet.Packet] // control class (strict priority)

	bytes  int // queued data-class bytes (LB and ECN look at this)
	busy   bool
	paused bool // PFC pause asserted by the downstream ingress (data only)

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

// enqueue appends pkt to its class and starts the serializer if possible.
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
	if !q.busy {
		q.maybeStart()
	}
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
	case q.post != nil:
		q.post(pkt)
	default:
		q.pipePush(pkt)
	}
	q.busy = false
	q.maybeStart()
}

// pipePush commits pkt to the propagation pipe, arriving one link delay from
// now. Appending preserves arrival order (arrival times strictly increase per
// queue); the head-arrival engine event is armed only when the pipe was
// empty — otherwise the pending deliverBurst chains the next arm itself.
func (q *outQueue) pipePush(pkt *packet.Packet) {
	at := q.eng.Now().Add(q.delay)
	if q.pipe.len() == 0 {
		q.eng.AtPri(at, q.pri, q.burstFn)
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
// failing mid-flight does not drop pipe residents: txDone gates on portUp at
// transmission completion, and a packet past that point was already
// committed to the wire under the per-event model too.
func (q *outQueue) deliverBurst() {
	now := q.eng.Now()
	burst := 1
	for burst < q.pipe.len() && q.pipe.at(burst).at == now {
		burst++
	}
	if burst < q.pipe.len() {
		q.eng.AtPri(q.pipe.at(burst).at, q.pri, q.burstFn)
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
	if !q.busy {
		q.maybeStart()
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

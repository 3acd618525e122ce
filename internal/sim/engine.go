package sim

import (
	"fmt"
	"math"
)

// Event is a scheduled callback. It is returned by the Schedule family so
// callers can cancel pending events (e.g. retransmission timers).
//
// Handle lifetime: an Event is live from scheduling until it fires or is
// cancelled, after which the engine recycles the struct through an intrusive
// free list (see Metrics.EventReuses). A dead handle may still be queried
// (Fired/Cancelled report the final state) or passed to Cancel (a no-op)
// until the next Schedule/At call, which may reuse the struct. Code that can
// observe its event firing must drop the handle at that point — the pattern
// Timer and the transport pacer follow by nilling their reference inside the
// callback.
//
// An Event is one 64-byte cache line: the callback is one func(any) field
// beside its argument (a nil fn means arg holds a func(), which an interface
// stores without allocating), pri is 32 bits wide, and one int32 index holds
// both the event's place in the queue and its final state.
type Event struct {
	time Time
	seq  uint64 // tie-breaker: FIFO among same-(time, pri) events
	// pri orders same-time events before seq. Most code never sets it (zero),
	// which is pure FIFO order among same-time events. The fabric stamps
	// cross-component deliveries with a stable per-channel priority so that
	// same-time arrival order at a component is a function of the channel
	// identity, not of which engine happened to schedule the event — the
	// property that makes event order invariant under repartitioning (see
	// ShardGroup).
	pri uint32
	// index is the event's position in the wheel's run heap when >= 0, or one
	// of the idx* sentinels (wheel.go): idxFired or idxCancelled once dead,
	// idxOverflow or a packed wheel slot while intrusively linked in the
	// timing wheel.
	index int32
	// next/prev are the intrusive links of the wheel's slot and overflow
	// lists; nil while the event is in the run heap or dead.
	next, prev *Event
	fn         func(any)
	arg        any
}

// Time returns the virtual time at which the event fires.
func (e *Event) Time() Time { return e.time }

// Cancelled reports whether Cancel removed the event before it fired.
func (e *Event) Cancelled() bool { return e.index == idxCancelled }

// Fired reports whether the event's callback ran. Fired and Cancelled are
// mutually exclusive: cancelling an already-fired event is a no-op and does
// not mark it cancelled.
func (e *Event) Fired() bool { return e.index == idxFired }

// pending reports whether the event is queued: in the run heap, a wheel slot
// or the overflow list.
func (e *Event) pending() bool { return e.index >= 0 || e.index <= idxOverflow }

// Metrics is the engine's hot-path counter block. Trial records surface it so
// sweeps can report how much scheduling work a scenario did and how effective
// event recycling was.
//
// The block is part of the determinism contract: the test-only heap model
// computes every counter itself for the same op sequence, and the fuzz
// harness holds the engine to it (wheel_test.go). The two event counters are
// serialized into Trial records and thus into the committed BENCH artifacts;
// the three allocator counters describe how the event set was cut across a
// ShardGroup's engines as much as the simulation, so they are read in-process
// only (json:"-") and a record is the same bytes at every shard count.
type Metrics struct {
	// EventsExecuted is the total number of events whose callbacks ran.
	EventsExecuted uint64
	// EventsCancelled is the number of events removed before firing.
	EventsCancelled uint64
	// EventAllocs is the number of Event structs freshly allocated.
	EventAllocs uint64 `json:"-"`
	// EventReuses is the number of Schedule/At calls served from the free
	// list — allocations avoided by recycling popped and cancelled events.
	EventReuses uint64 `json:"-"`
	// HeapHighWater is the maximum number of simultaneously pending events
	// observed.
	HeapHighWater int `json:"-"`
}

// Merge folds another engine's counter block into m: the event counters are
// summed and HeapHighWater takes the maximum. Trial records use it to roll
// per-shard engines up into one block; note that after a merge HeapHighWater
// is the deepest *single* queue seen, not the sum of concurrent depths.
func (m *Metrics) Merge(o Metrics) {
	m.EventsExecuted += o.EventsExecuted
	m.EventsCancelled += o.EventsCancelled
	m.EventAllocs += o.EventAllocs
	m.EventReuses += o.EventReuses
	if o.HeapHighWater > m.HeapHighWater {
		m.HeapHighWater = o.HeapHighWater
	}
}

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; the whole simulation runs on the goroutine that calls Run.
type Engine struct {
	now Time
	// curPri/curSeq complete (with now) the key of the event being executed,
	// or last executed: what Passed compares a reserved Turn against.
	curPri  uint32
	curSeq  uint64
	wheel   wheel // the event queue (wheel.go)
	pending int   // events queued
	nextSeq uint64
	seed    int64
	stopped bool

	// free is the intrusive free list: fired and cancelled events are pushed
	// here and reused by the next Schedule/At instead of allocating.
	free []*Event

	metrics Metrics
}

// NewEngine returns an engine with its clock at zero and the given seed
// (Seed).
func NewEngine(seed int64) *Engine {
	return &Engine{seed: seed}
}

// Seed returns the seed the engine was constructed with: what a component
// built on a bare engine derives its identity-keyed streams from (NewStream).
func (e *Engine) Seed() int64 { return e.seed }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of events currently queued.
func (e *Engine) Pending() int { return e.pending }

// Executed returns the total number of events executed so far.
func (e *Engine) Executed() uint64 { return e.metrics.EventsExecuted }

// Metrics returns a snapshot of the engine's hot-path counters.
func (e *Engine) Metrics() Metrics { return e.metrics }

// newEvent returns a zeroed event, reusing a recycled one when available.
func (e *Engine) newEvent() *Event {
	n := len(e.free)
	if n == 0 {
		e.metrics.EventAllocs++
		return &Event{} //lint:alloc-ok free-list miss: fresh event, recycled on release
	}
	ev := e.free[n-1]
	e.free[n-1] = nil
	e.free = e.free[:n-1]
	e.metrics.EventReuses++
	*ev = Event{}
	return ev
}

// release recycles a dead event. The final fired/cancelled state stays
// readable on the handle until the struct is reused; the callback references
// are dropped immediately so captured state can be collected.
func (e *Engine) release(ev *Event) {
	ev.fn, ev.arg = nil, nil
	e.free = append(e.free, ev) //lint:alloc-ok free-list growth is amortized; capacity is retained
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a logic bug in a discrete-event model.
func (e *Engine) At(t Time, fn func()) *Event { return e.AtArgPri(t, 0, nil, fn) }

// AtArg schedules fn(arg) at absolute time t. Unlike At, a caller that keeps
// one bound fn and varies arg schedules without any closure allocation — the
// fabric's serializers use this for their per-packet completion events.
func (e *Engine) AtArg(t Time, fn func(any), arg any) *Event { return e.AtArgPri(t, 0, fn, arg) }

// AtPri schedules fn at absolute time t with a same-time ordering priority
// (see Event.pri), which must fit 32 bits. Only the fabric uses non-zero
// priorities.
func (e *Engine) AtPri(t Time, pri uint64, fn func()) *Event { return e.AtArgPri(t, pri, nil, fn) }

// AtArgPri schedules fn(arg) at absolute time t with a same-time ordering
// priority; the arg-carrying analogue of AtPri.
func (e *Engine) AtArgPri(t Time, pri uint64, fn func(any), arg any) *Event {
	ev := e.newEvent()
	ev.fn, ev.arg, ev.pri = fn, arg, narrowPri(pri)
	e.schedule(t, ev)
	return ev
}

// narrowPri checks that a same-time priority fits the Event's 32 bits. The
// fabric stamps 2·chanID and 2·chanID+1, so a wider one is a logic bug.
func narrowPri(pri uint64) uint32 {
	if pri > math.MaxUint32 {
		panic(fmt.Sprintf("sim: same-time priority %d does not fit 32 bits", pri))
	}
	return uint32(pri)
}

func (e *Engine) schedule(t Time, ev *Event) {
	e.insert(t, e.nextSeq, ev)
	e.nextSeq++
}

// insert queues ev at time t with insertion sequence seq.
func (e *Engine) insert(t Time, seq uint64, ev *Event) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev.time = t
	ev.seq = seq
	e.wheel.add(ev)
	e.pending++
	if e.pending > e.metrics.HeapHighWater {
		e.metrics.HeapHighWater = e.pending
	}
}

// Turn is a reserved place in the execution order: a time, and the insertion
// sequence a priority-0 event scheduled at the moment of the reservation would
// have been given. A component that knows when an operation ends but not yet
// whether anything will have to run then — a serializer whose completion has
// work to do only if something queues up behind it — reserves the turn when
// the operation starts and fills it (AtTurn) only if the need arises: the
// late event runs exactly where an eagerly scheduled one would have, so
// leaving the turn empty changes the order of nothing else. The zero Turn has
// always passed.
type Turn struct {
	at  Time
	seq uint64
}

// Time returns the turn's instant.
func (s Turn) Time() Time { return s.at }

// Reserve takes the next insertion sequence for a turn at time t without
// scheduling anything.
func (e *Engine) Reserve(t Time) Turn {
	s := Turn{at: t, seq: e.nextSeq}
	e.nextSeq++
	return s
}

// Passed reports whether execution is already at or beyond s: an event filling
// the turn now would run too late. Turns are priority 0, so any delivery
// (priority > 0) at the turn's instant is beyond it.
func (e *Engine) Passed(s Turn) bool {
	return e.now > s.at || e.now == s.at && (e.curPri > 0 || e.curSeq >= s.seq)
}

// AtTurn schedules fn(arg) in a reserved turn that has not passed. Like AtArg
// it takes the callback's receiver as an argument, so a component with many
// instances fills turns from one shared function and binds no closure each.
func (e *Engine) AtTurn(s Turn, fn func(any), arg any) *Event {
	if e.Passed(s) {
		panic(fmt.Sprintf("sim: filling a turn at %v that execution (now %v) has passed", s.at, e.now))
	}
	ev := e.newEvent()
	ev.fn, ev.arg = fn, arg
	e.insert(s.at, s.seq, ev)
	return ev
}

// Schedule schedules fn to run after delay d (d may be zero).
func (e *Engine) Schedule(d Duration, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: scheduling event with negative delay %v", d))
	}
	return e.At(e.now.Add(d), fn)
}

// ScheduleArg schedules fn(arg) after delay d; see AtArg.
func (e *Engine) ScheduleArg(d Duration, fn func(any), arg any) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: scheduling event with negative delay %v", d))
	}
	return e.AtArg(e.now.Add(d), fn, arg)
}

// Cancel removes a pending event and reports whether it was pending.
// Cancelling nil, an already-fired or an already-cancelled event is a no-op
// returning false — in particular a fired event is NOT marked cancelled, so
// Fired/Cancelled always reflect what actually happened to the callback.
func (e *Engine) Cancel(ev *Event) bool {
	if ev == nil || !ev.pending() {
		return false
	}
	e.wheel.remove(ev)
	ev.index = idxCancelled
	e.pending--
	e.metrics.EventsCancelled++
	e.release(ev)
	return true
}

// Stop halts event execution. Called from inside a callback it makes the
// surrounding Run/AdvanceTo return after the current event completes; called
// between runs it is sticky — the next Run returns immediately without
// executing anything. In both cases the stop is consumed by the Run that
// observes it, so a subsequent Run (or RunAll drain) proceeds normally.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether a Stop is pending, i.e. has been requested but not
// yet consumed by a Run. The shard coordinator polls it at each barrier to
// turn one shard's Stop into a group-wide halt.
func (e *Engine) Stopped() bool { return e.stopped }

// head returns the earliest pending event without removing it, or nil. It
// may repartition pending events (load the next due slot into the wheel's
// run heap); it never executes anything.
func (e *Engine) head() *Event { return e.wheel.peek() }

// step pops and executes the head event. Callers have checked (via head)
// that an event is pending within their time bound.
func (e *Engine) step() {
	ev := e.wheel.pop()
	e.pending--
	e.now, e.curPri, e.curSeq = ev.time, ev.pri, ev.seq
	e.metrics.EventsExecuted++
	// The popped event is marked fired (runPop) before its callback runs, so
	// a callback cancelling its own handle is a no-op, not a double release.
	if ev.fn == nil {
		ev.arg.(func())()
	} else {
		ev.fn(ev.arg)
	}
	e.release(ev)
}

// Run executes events in time order until the queue drains, the clock would
// pass until, or Stop is called (including a sticky Stop issued before the
// call — see Stop). It returns the time of the last executed event (or the
// current time if nothing ran) and clears any observed stop.
func (e *Engine) Run(until Time) Time {
	for {
		if e.stopped {
			e.stopped = false
			break
		}
		ev := e.head()
		if ev == nil || ev.time > until {
			break
		}
		e.step()
	}
	return e.now
}

// AdvanceTo is the epoch API for the shard coordinator: it executes events
// with time <= limit and returns the current time. Unlike Run it does NOT
// consume a pending Stop — it halts immediately and leaves the flag set so
// the coordinator can observe the halt at the next barrier and propagate it
// to the whole group.
func (e *Engine) AdvanceTo(limit Time) Time {
	for !e.stopped {
		ev := e.head()
		if ev == nil || ev.time > limit {
			break
		}
		e.step()
	}
	return e.now
}

// nextTime returns the timestamp of the earliest pending event, or Forever
// when the queue is empty. The coordinator uses it to pick the next epoch.
func (e *Engine) nextTime() Time {
	if ev := e.head(); ev != nil {
		return ev.time
	}
	return Forever
}

// RunAll executes events until the queue drains or Stop is called.
func (e *Engine) RunAll() Time { return e.Run(Forever) }

// idleTo moves the clock forward to t, but never past the earliest pending
// event: the clock then reads the start of that instant, before anything at
// it has run. The shard coordinator leaves every shard's clock at the group's
// end this way (ShardGroup.Run).
func (e *Engine) idleTo(t Time) {
	if t = min(t, e.nextTime()); t > e.now {
		e.now, e.curPri, e.curSeq = t, 0, 0
	}
}

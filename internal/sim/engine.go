package sim

import (
	"fmt"
	"math/rand"
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
type Event struct {
	time Time
	// pri orders same-time events before seq. Most code never sets it (zero),
	// which is pure FIFO order among same-time events. The fabric stamps
	// cross-component deliveries with a stable per-channel priority so that
	// same-time arrival order at a component is a function of the channel
	// identity, not of which engine happened to schedule the event — the
	// property that makes event order invariant under repartitioning (see
	// ShardGroup).
	pri uint64
	seq uint64 // tie-breaker: FIFO among same-(time, pri) events
	// index is the event's position in the run/event heap when >= 0, or one
	// of the idx* sentinels (wheel.go): idxDead once popped or cancelled,
	// idxWheel/idxOverflow while intrusively linked in the timing wheel.
	index int
	// next/prev are the intrusive links of the wheel's slot and overflow
	// lists; nil while the event is heap-resident or dead.
	next, prev *Event
	loc        int32 // packed wheel level/slot while index == idxWheel
	fn         func()
	fnArg      func(any) // arg-carrying callback (used when fn == nil)
	arg        any
	cancelled  bool
	fired      bool
}

// Time returns the virtual time at which the event fires.
func (e *Event) Time() Time { return e.time }

// Cancelled reports whether Cancel removed the event before it fired.
func (e *Event) Cancelled() bool { return e.cancelled }

// Fired reports whether the event's callback ran. Fired and Cancelled are
// mutually exclusive: cancelling an already-fired event is a no-op and does
// not mark it cancelled.
func (e *Event) Fired() bool { return e.fired }

// Scheduler selects the engine's event-queue backend.
type Scheduler uint8

const (
	// SchedulerWheel is the default: the hierarchical timing wheel
	// (wheel.go) with O(1) schedule/cancel.
	SchedulerWheel Scheduler = iota
	// SchedulerHeap is the original container/heap queue (heap.go), kept as
	// the differential-testing oracle. Both backends realize the identical
	// (time, pri, seq) total order and identical Metrics.
	SchedulerHeap
)

func (s Scheduler) String() string {
	if s == SchedulerHeap {
		return "heap"
	}
	return "wheel"
}

// defaultScheduler is what NewEngine uses. It is a package variable rather
// than a constructor parameter because engines are built deep inside
// workloads; the differential tests flip it for a whole run via
// SetDefaultScheduler. Not synchronized: set it before
// any concurrent engine construction (the exp.Runner workers only read it).
var defaultScheduler = SchedulerWheel

// SetDefaultScheduler selects the backend NewEngine uses and returns the
// previous choice so callers can restore it.
func SetDefaultScheduler(s Scheduler) Scheduler {
	prev := defaultScheduler
	defaultScheduler = s
	return prev
}

// Metrics is the engine's hot-path counter block. Trial records surface it so
// sweeps can report how much scheduling work a scenario did and how effective
// event recycling was.
//
// The block is part of the determinism contract: it is serialized verbatim
// into Trial records and thus into the committed BENCH artifacts, so both
// scheduler backends must produce bit-identical counters for the same op
// sequence (asserted by TestEngineMetricsBackendIdentity and the fuzz
// harness).
type Metrics struct {
	// EventsExecuted is the total number of events whose callbacks ran.
	EventsExecuted uint64
	// EventsCancelled is the number of events removed before firing.
	EventsCancelled uint64
	// EventAllocs is the number of Event structs freshly allocated.
	EventAllocs uint64
	// EventReuses is the number of Schedule/At calls served from the free
	// list — allocations avoided by recycling popped and cancelled events.
	EventReuses uint64
	// HeapHighWater is the maximum number of simultaneously pending events
	// observed, whichever backend queues them.
	HeapHighWater int
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
	curPri, curSeq uint64
	sched          Scheduler
	wheel          wheel     // timing-wheel backend (SchedulerWheel)
	heapq          eventHeap // heap backend (SchedulerHeap)
	pending        int       // events queued across whichever backend is active
	nextSeq        uint64
	seed           int64
	rng            *rand.Rand
	stopped        bool

	// free is the intrusive free list: fired and cancelled events are pushed
	// here and reused by the next Schedule/At instead of allocating.
	free []*Event

	metrics Metrics
}

// NewEngine returns an engine with its clock at zero, a deterministic random
// source seeded with seed, and the default scheduler backend.
func NewEngine(seed int64) *Engine {
	return NewEngineWithScheduler(seed, defaultScheduler)
}

// NewEngineWithScheduler returns an engine on an explicit queue backend —
// the hook the differential tests use to run one workload on both backends
// without touching the global default.
func NewEngineWithScheduler(seed int64, s Scheduler) *Engine {
	return &Engine{seed: seed, rng: rand.New(rand.NewSource(seed)), sched: s}
}

// Seed returns the seed the engine was constructed with: what a component
// built on a bare engine derives its identity-keyed streams from (NewStream).
func (e *Engine) Seed() int64 { return e.seed }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source, for drivers that
// live on one engine (the churn arrival process). Anything a partition can
// split across engines — switches — draws from its own NewStream instead.
func (e *Engine) Rand() *rand.Rand { return e.rng }

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

// release recycles a dead event. The final fired/cancelled flags stay
// readable on the handle until the struct is reused; the callback references
// are dropped immediately so captured state can be collected.
func (e *Engine) release(ev *Event) {
	ev.fn = nil
	ev.fnArg = nil
	ev.arg = nil
	e.free = append(e.free, ev) //lint:alloc-ok free-list growth is amortized; capacity is retained
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a logic bug in a discrete-event model.
func (e *Engine) At(t Time, fn func()) *Event {
	ev := e.newEvent()
	ev.fn = fn
	e.schedule(t, ev)
	return ev
}

// AtArg schedules fn(arg) at absolute time t. Unlike At, a caller that keeps
// one bound fn and varies arg schedules without any closure allocation — the
// fabric's serializers use this for their per-packet completion events.
func (e *Engine) AtArg(t Time, fn func(any), arg any) *Event {
	ev := e.newEvent()
	ev.fnArg = fn
	ev.arg = arg
	e.schedule(t, ev)
	return ev
}

// AtPri schedules fn at absolute time t with a same-time ordering priority
// (see Event.pri). Only the fabric uses non-zero priorities.
func (e *Engine) AtPri(t Time, pri uint64, fn func()) *Event {
	ev := e.newEvent()
	ev.fn = fn
	ev.pri = pri
	e.schedule(t, ev)
	return ev
}

// AtArgPri schedules fn(arg) at absolute time t with a same-time ordering
// priority; the arg-carrying analogue of AtPri.
func (e *Engine) AtArgPri(t Time, pri uint64, fn func(any), arg any) *Event {
	ev := e.newEvent()
	ev.fnArg = fn
	ev.arg = arg
	ev.pri = pri
	e.schedule(t, ev)
	return ev
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
	if e.sched == SchedulerHeap {
		e.heapPush(ev)
	} else {
		e.wheel.add(ev)
	}
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
	ev.fnArg = fn
	ev.arg = arg
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
	if ev == nil || ev.cancelled || ev.fired || ev.index == idxDead {
		return false
	}
	ev.cancelled = true
	if e.sched == SchedulerHeap {
		e.heapRemove(ev)
	} else {
		e.wheel.remove(ev)
	}
	ev.index = idxDead
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

// head returns the earliest pending event without removing it, or nil. On
// the wheel backend this may repartition pending events (load the next due
// slot into the run heap); it never executes anything.
func (e *Engine) head() *Event {
	if e.sched == SchedulerHeap {
		if len(e.heapq) == 0 {
			return nil
		}
		return e.heapq[0]
	}
	return e.wheel.peek()
}

// step pops and executes the head event. Callers have checked (via head)
// that an event is pending within their time bound.
func (e *Engine) step() {
	var ev *Event
	if e.sched == SchedulerHeap {
		ev = e.heapPop()
	} else {
		ev = e.wheel.pop()
	}
	e.pending--
	e.now, e.curPri, e.curSeq = ev.time, ev.pri, ev.seq
	e.metrics.EventsExecuted++
	// Mark fired before invoking so a callback cancelling its own handle
	// is a no-op rather than a double release.
	ev.fired = true
	if ev.fn != nil {
		ev.fn()
	} else {
		ev.fnArg(ev.arg)
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

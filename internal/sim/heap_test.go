package sim

import "container/heap"

// This file is the reference model the timing wheel is checked against: the
// engine's original event queue, a container/heap over eventBefore, wrapped in
// just enough of an engine — clock, insertion sequence, free list, counters —
// to run the op programs of wheel_test.go and to compute every Metrics
// counter on its own. The wheel must reproduce its pop order, clock and
// counters bit for bit (TestWheelHeapPropertyEquivalence,
// FuzzWheelHeapEquivalence).

// eventHeap orders events by (time, pri, seq).
type eventHeap []*Event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return eventBefore(h[i], h[j]) }
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = int32(i)
	h[j].index = int32(j)
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = int32(len(*h))
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = idxFired
	*h = old[:n-1]
	return e
}

// heapModel is an engine on eventHeap. Its free list is the engine's — LIFO,
// a struct recycled as soon as it fires or is cancelled — so a handle the op
// program holds past its event's death is reused by the same later Schedule
// on both, and a cancel through it hits the same event.
type heapModel struct {
	q       eventHeap
	free    []*Event
	now     Time
	nextSeq uint64
	metrics Metrics
}

func (m *heapModel) Now() Time        { return m.now }
func (m *heapModel) Metrics() Metrics { return m.metrics }

func (m *heapModel) AtArgPri(t Time, pri uint64, fn func(any), arg any) *Event {
	var ev *Event
	if n := len(m.free); n > 0 {
		ev = m.free[n-1]
		m.free = m.free[:n-1]
		*ev = Event{}
		m.metrics.EventReuses++
	} else {
		ev = &Event{}
		m.metrics.EventAllocs++
	}
	ev.time, ev.pri, ev.seq, ev.fn, ev.arg = t, uint32(pri), m.nextSeq, fn, arg
	m.nextSeq++
	heap.Push(&m.q, ev)
	m.metrics.HeapHighWater = max(m.metrics.HeapHighWater, len(m.q))
	return ev
}

func (m *heapModel) Cancel(ev *Event) bool {
	if ev == nil || !ev.pending() {
		return false
	}
	heap.Remove(&m.q, int(ev.index))
	ev.index = idxCancelled
	m.metrics.EventsCancelled++
	m.free = append(m.free, ev)
	return true
}

func (m *heapModel) AdvanceTo(limit Time) Time {
	for len(m.q) > 0 && m.q[0].time <= limit {
		ev := heap.Pop(&m.q).(*Event)
		m.now = ev.time
		m.metrics.EventsExecuted++
		ev.fn(ev.arg)
		m.free = append(m.free, ev)
	}
	return m.now
}

func (m *heapModel) Run(until Time) Time { return m.AdvanceTo(until) }
func (m *heapModel) RunAll() Time        { return m.AdvanceTo(Forever) }
func (m *heapModel) nextTime() Time {
	if len(m.q) == 0 {
		return Forever
	}
	return m.q[0].time
}

package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// This file pins the engine's ordering and epoch contracts as executable
// spec, written against the binary-heap engine BEFORE the timing-wheel swap
// landed. container/heap never guaranteed stability, so the same-time
// ordering these tests rely on is a property of the explicit (time, pri, seq)
// comparator — seq is unique per event, making the order total — not of heap
// mechanics. Any replacement scheduler must pass this file unchanged; the
// differential tests (wheel_test.go, FuzzWheelHeapEquivalence) then extend
// the point checks here to arbitrary op sequences.

// popRecord is one observed firing, tagged with the identity the event was
// scheduled under so tests can check the (time, pri, seq) total order.
type popRecord struct {
	at   Time
	pri  uint64
	born int // scheduling order, a proxy for seq
}

// TestEngineTotalOrderContract drives a deterministic shuffle of events over
// a small set of colliding timestamps and priorities and asserts the pop
// order is exactly ascending (time, pri, scheduling-order) — the total order
// every scheduler backend must reproduce bit-for-bit.
func TestEngineTotalOrderContract(t *testing.T) {
	for _, backend := range []Scheduler{SchedulerHeap, SchedulerWheel} {
		e := NewEngineWithScheduler(1, backend)
		rng := rand.New(rand.NewSource(7))
		var got []popRecord
		var want []popRecord
		for i := 0; i < 400; i++ {
			at := Time(rng.Intn(8)) * 100 // heavy same-time collisions
			pri := uint64(rng.Intn(3))
			rec := popRecord{at: at, pri: pri, born: i}
			want = append(want, rec)
			switch i % 4 {
			case 0:
				e.AtPri(at, pri, func() { got = append(got, rec) })
			case 1:
				e.AtArgPri(at, pri, func(a any) { got = append(got, a.(popRecord)) }, rec)
			case 2:
				if pri == 0 {
					e.At(at, func() { got = append(got, rec) })
				} else {
					e.AtPri(at, pri, func() { got = append(got, rec) })
				}
			default:
				if pri == 0 {
					e.AtArg(at, func(a any) { got = append(got, a.(popRecord)) }, rec)
				} else {
					e.AtArgPri(at, pri, func(a any) { got = append(got, a.(popRecord)) }, rec)
				}
			}
		}
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].pri < want[j].pri
		})
		e.RunAll()
		if len(got) != len(want) {
			t.Fatalf("[%v] fired %d of %d events", backend, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("[%v] pop %d: got %+v want %+v", backend, i, got[i], want[i])
			}
		}
	}
}

// TestEngineSameTimePriOrder pins that pri orders before seq at one instant:
// a low-pri event scheduled LAST still fires before earlier high-pri ones.
func TestEngineSameTimePriOrder(t *testing.T) {
	for _, backend := range []Scheduler{SchedulerHeap, SchedulerWheel} {
		e := NewEngineWithScheduler(1, backend)
		var order []int
		e.AtPri(50, 2, func() { order = append(order, 2) })
		e.AtPri(50, 1, func() { order = append(order, 1) })
		e.AtPri(50, 0, func() { order = append(order, 0) })
		e.AtPri(50, 1, func() { order = append(order, 10) }) // same pri: FIFO by seq
		e.RunAll()
		want := []int{0, 1, 10, 2}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("[%v] order = %v, want %v", backend, order, want)
			}
		}
	}
}

// TestEngineAdvanceToBoundary pins the epoch API the shard coordinator
// depends on: AdvanceTo(limit) is inclusive — an event scheduled exactly at
// the limit fires; one a picosecond later does not, and becomes the next
// epoch's first event.
func TestEngineAdvanceToBoundary(t *testing.T) {
	for _, backend := range []Scheduler{SchedulerHeap, SchedulerWheel} {
		e := NewEngineWithScheduler(1, backend)
		var fired []Time
		e.At(99, func() { fired = append(fired, 99) })
		e.At(100, func() { fired = append(fired, 100) })
		e.At(101, func() { fired = append(fired, 101) })
		e.AdvanceTo(100)
		if len(fired) != 2 || fired[0] != 99 || fired[1] != 100 {
			t.Fatalf("[%v] events through limit: %v", backend, fired)
		}
		if nt := e.nextTime(); nt != 101 {
			t.Fatalf("[%v] nextTime after epoch = %v, want 101", backend, nt)
		}
		e.AdvanceTo(101)
		if len(fired) != 3 || fired[2] != 101 {
			t.Fatalf("[%v] next epoch: %v", backend, fired)
		}
		if nt := e.nextTime(); nt != Forever {
			t.Fatalf("[%v] nextTime on drained queue = %v, want Forever", backend, nt)
		}
	}
}

// TestEngineAdvanceToDoesNotConsumeStop pins the Stop propagation contract:
// AdvanceTo halts on a Stop raised mid-epoch but leaves the flag SET so the
// coordinator can observe it at the barrier, while Run consumes it.
func TestEngineAdvanceToDoesNotConsumeStop(t *testing.T) {
	for _, backend := range []Scheduler{SchedulerHeap, SchedulerWheel} {
		e := NewEngineWithScheduler(1, backend)
		fired := 0
		e.At(10, func() { fired++; e.Stop() })
		e.At(20, func() { fired++ })
		e.AdvanceTo(30)
		if fired != 1 {
			t.Fatalf("[%v] fired = %d after mid-epoch Stop, want 1", backend, fired)
		}
		if !e.Stopped() {
			t.Fatalf("[%v] AdvanceTo consumed the Stop flag", backend)
		}
		// The flag left set by AdvanceTo acts as a sticky stop for the next
		// Run, which consumes it without executing; the one after resumes.
		e.Run(30)
		if fired != 1 || e.Stopped() {
			t.Fatalf("[%v] first Run after epoch stop: fired=%d stopped=%v", backend, fired, e.Stopped())
		}
		if e.Run(30) != 20 || fired != 2 {
			t.Fatalf("[%v] resume after stop: fired=%d", backend, fired)
		}
	}
}

// TestEngineStickyPreRunStop pins sticky-Stop semantics for both loop APIs:
// a Stop issued between runs makes the next Run return immediately (and
// consumes the flag); AdvanceTo under a sticky Stop executes nothing and
// leaves the flag in place.
func TestEngineStickyPreRunStop(t *testing.T) {
	for _, backend := range []Scheduler{SchedulerHeap, SchedulerWheel} {
		e := NewEngineWithScheduler(1, backend)
		fired := 0
		e.At(10, func() { fired++ })
		e.Stop()
		e.AdvanceTo(50)
		if fired != 0 || !e.Stopped() {
			t.Fatalf("[%v] AdvanceTo under sticky stop: fired=%d stopped=%v", backend, fired, e.Stopped())
		}
		if e.Run(50) != 0 || fired != 0 {
			t.Fatalf("[%v] sticky stop did not halt Run (fired=%d)", backend, fired)
		}
		if e.Stopped() {
			t.Fatalf("[%v] Run did not consume the sticky stop", backend)
		}
		e.Run(50)
		if fired != 1 {
			t.Fatalf("[%v] event lost across sticky stop: fired=%d", backend, fired)
		}
	}
}

// TestEngineCancelAfterFireEpoch re-pins cancel-after-fire inside the epoch
// API (engine_test.go covers it under Run): an event that fired during an
// epoch must refuse a late Cancel without being marked cancelled.
func TestEngineCancelAfterFireEpoch(t *testing.T) {
	for _, backend := range []Scheduler{SchedulerHeap, SchedulerWheel} {
		e := NewEngineWithScheduler(1, backend)
		ev := e.At(10, func() {})
		e.AdvanceTo(10)
		if !ev.Fired() {
			t.Fatalf("[%v] event at the epoch limit did not fire", backend)
		}
		if e.Cancel(ev) {
			t.Fatalf("[%v] Cancel of a fired event returned true", backend)
		}
		if ev.Cancelled() {
			t.Fatalf("[%v] fired event marked cancelled", backend)
		}
		if m := e.Metrics(); m.EventsCancelled != 0 {
			t.Fatalf("[%v] EventsCancelled = %d, want 0", backend, m.EventsCancelled)
		}
	}
}

// TestEngineMetricsBackendIdentity pins that the counter block — which is
// serialized verbatim into Trial records and therefore into the committed
// BENCH artifacts — is bit-identical across scheduler backends for the same
// op sequence, including the allocator counters and the high-water mark.
func TestEngineMetricsBackendIdentity(t *testing.T) {
	run := func(s Scheduler) Metrics {
		e := NewEngineWithScheduler(3, s)
		rng := rand.New(rand.NewSource(11))
		var live []*Event
		for i := 0; i < 2000; i++ {
			switch rng.Intn(3) {
			case 0, 1:
				live = append(live, e.Schedule(Duration(rng.Intn(5000)), func() {}))
			default:
				if n := len(live); n > 0 {
					e.Cancel(live[rng.Intn(n)])
				}
			}
			if i%97 == 0 {
				e.Run(e.Now().Add(Duration(rng.Intn(2000))))
			}
		}
		e.RunAll()
		return e.Metrics()
	}
	h, w := run(SchedulerHeap), run(SchedulerWheel)
	if h != w {
		t.Fatalf("metrics diverge across backends:\n heap  %+v\n wheel %+v", h, w)
	}
}

// TestReservedTurnContract pins the turn half of the ordering contract: an
// event filled into a reserved turn runs exactly where an event scheduled at
// the moment of the reservation would have — after same-time events scheduled
// before the reservation, before those scheduled after it and before every
// stamped (priority > 0) one — and Passed flips exactly there.
func TestReservedTurnContract(t *testing.T) {
	for _, backend := range []Scheduler{SchedulerHeap, SchedulerWheel} {
		e := NewEngineWithScheduler(1, backend)
		if !e.Passed(Turn{}) {
			t.Fatalf("%v: the zero turn must read as passed on a fresh engine", backend)
		}
		var order []string
		var turn Turn
		note := func(s string) func() {
			return func() {
				order = append(order, s)
				if e.Passed(turn) {
					order = append(order, "passed")
				}
			}
		}
		e.At(50, note("earlier"))
		// The turn is filled late: from an event at its own instant that was
		// scheduled before the reservation and therefore precedes it.
		e.At(100, func() {
			note("before")()
			e.AtTurn(turn, func(a any) { note(a.(string))() }, "turn")
		})
		e.AtPri(100, 4, note("stamped"))
		turn = e.Reserve(100)
		e.At(100, note("after"))
		e.RunAll()
		want := []string{"earlier", "before", "turn", "passed", "after", "passed", "stamped", "passed"}
		if !slices.Equal(order, want) {
			t.Fatalf("%v: order %v, want %v", backend, order, want)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: filling a passed turn did not panic", backend)
				}
			}()
			e.AtTurn(turn, func(any) {}, nil)
		}()
		// An unfilled reservation costs nothing: no event, no counter.
		before := e.Metrics()
		e.Reserve(e.Now().Add(10))
		if e.Pending() != 0 || e.Metrics() != before {
			t.Errorf("%v: a bare reservation changed the queue: pending %d", backend, e.Pending())
		}
	}
}

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
// mechanics. Any replacement event queue must pass this file unchanged; the
// differential tests (wheel_test.go, FuzzWheelHeapEquivalence) then extend
// the point checks here to arbitrary op sequences against the heap model.

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
// the event queue must reproduce bit-for-bit.
func TestEngineTotalOrderContract(t *testing.T) {
	e := NewEngine(1)
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
		t.Fatalf("fired %d of %d events", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestEngineSameTimePriOrder pins that pri orders before seq at one instant:
// a low-pri event scheduled LAST still fires before earlier high-pri ones.
func TestEngineSameTimePriOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.AtPri(50, 2, func() { order = append(order, 2) })
	e.AtPri(50, 1, func() { order = append(order, 1) })
	e.AtPri(50, 0, func() { order = append(order, 0) })
	e.AtPri(50, 1, func() { order = append(order, 10) }) // same pri: FIFO by seq
	e.RunAll()
	want := []int{0, 1, 10, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestEngineAdvanceToBoundary pins the epoch API the shard coordinator
// depends on: AdvanceTo(limit) is inclusive — an event scheduled exactly at
// the limit fires; one a picosecond later does not, and becomes the next
// epoch's first event.
func TestEngineAdvanceToBoundary(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.At(99, func() { fired = append(fired, 99) })
	e.At(100, func() { fired = append(fired, 100) })
	e.At(101, func() { fired = append(fired, 101) })
	e.AdvanceTo(100)
	if len(fired) != 2 || fired[0] != 99 || fired[1] != 100 {
		t.Fatalf("events through limit: %v", fired)
	}
	if nt := e.nextTime(); nt != 101 {
		t.Fatalf("nextTime after epoch = %v, want 101", nt)
	}
	e.AdvanceTo(101)
	if len(fired) != 3 || fired[2] != 101 {
		t.Fatalf("next epoch: %v", fired)
	}
	if nt := e.nextTime(); nt != Forever {
		t.Fatalf("nextTime on drained queue = %v, want Forever", nt)
	}
}

// TestEngineAdvanceToDoesNotConsumeStop pins the Stop propagation contract:
// AdvanceTo halts on a Stop raised mid-epoch but leaves the flag SET so the
// coordinator can observe it at the barrier, while Run consumes it.
func TestEngineAdvanceToDoesNotConsumeStop(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.At(10, func() { fired++; e.Stop() })
	e.At(20, func() { fired++ })
	e.AdvanceTo(30)
	if fired != 1 {
		t.Fatalf("fired = %d after mid-epoch Stop, want 1", fired)
	}
	if !e.Stopped() {
		t.Fatalf("AdvanceTo consumed the Stop flag")
	}
	// The flag left set by AdvanceTo acts as a sticky stop for the next
	// Run, which consumes it without executing; the one after resumes.
	e.Run(30)
	if fired != 1 || e.Stopped() {
		t.Fatalf("first Run after epoch stop: fired=%d stopped=%v", fired, e.Stopped())
	}
	if e.Run(30) != 20 || fired != 2 {
		t.Fatalf("resume after stop: fired=%d", fired)
	}
}

// TestEngineStickyPreRunStop pins sticky-Stop semantics for both loop APIs:
// a Stop issued between runs makes the next Run return immediately (and
// consumes the flag); AdvanceTo under a sticky Stop executes nothing and
// leaves the flag in place.
func TestEngineStickyPreRunStop(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.At(10, func() { fired++ })
	e.Stop()
	e.AdvanceTo(50)
	if fired != 0 || !e.Stopped() {
		t.Fatalf("AdvanceTo under sticky stop: fired=%d stopped=%v", fired, e.Stopped())
	}
	if e.Run(50) != 0 || fired != 0 {
		t.Fatalf("sticky stop did not halt Run (fired=%d)", fired)
	}
	if e.Stopped() {
		t.Fatalf("Run did not consume the sticky stop")
	}
	e.Run(50)
	if fired != 1 {
		t.Fatalf("event lost across sticky stop: fired=%d", fired)
	}
}

// TestEngineCancelAfterFireEpoch re-pins cancel-after-fire inside the epoch
// API (engine_test.go covers it under Run): an event that fired during an
// epoch must refuse a late Cancel without being marked cancelled.
func TestEngineCancelAfterFireEpoch(t *testing.T) {
	e := NewEngine(1)
	ev := e.At(10, func() {})
	e.AdvanceTo(10)
	if !ev.Fired() {
		t.Fatalf("event at the epoch limit did not fire")
	}
	if e.Cancel(ev) {
		t.Fatalf("Cancel of a fired event returned true")
	}
	if ev.Cancelled() {
		t.Fatalf("fired event marked cancelled")
	}
	if m := e.Metrics(); m.EventsCancelled != 0 {
		t.Fatalf("EventsCancelled = %d, want 0", m.EventsCancelled)
	}
}

// TestReservedTurnContract pins the turn half of the ordering contract: an
// event filled into a reserved turn runs exactly where an event scheduled at
// the moment of the reservation would have — after same-time events scheduled
// before the reservation, before those scheduled after it and before every
// stamped (priority > 0) one — and Passed flips exactly there.
func TestReservedTurnContract(t *testing.T) {
	e := NewEngine(1)
	if !e.Passed(Turn{}) {
		t.Fatalf("the zero turn must read as passed on a fresh engine")
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
		t.Fatalf("order %v, want %v", order, want)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("filling a passed turn did not panic")
			}
		}()
		e.AtTurn(turn, func(any) {}, nil)
	}()
	// An unfilled reservation costs nothing: no event, no counter.
	before := e.Metrics()
	e.Reserve(e.Now().Add(10))
	if e.Pending() != 0 || e.Metrics() != before {
		t.Errorf("a bare reservation changed the queue: pending %d", e.Pending())
	}
}

package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// This file is the randomized differential harness for the timing wheel: it
// drives identical op sequences through the engine and through the heap model
// (heap_test.go) and asserts identical pop order — including same-timestamp
// (pri, seq) tie-breaks — and bit-identical Metrics. The op sequences are
// decoded from a byte string so the property test, its shrinker, and
// FuzzWheelHeapEquivalence (fuzz_test.go) all share one interpreter.

// fireRec is one observed callback firing: which scheduled op fired, when.
type fireRec struct {
	id int
	at Time
}

// opQueue is what an op program drives: the engine, or the heap model.
type opQueue interface {
	Now() Time
	AtArgPri(t Time, pri uint64, fn func(any), arg any) *Event
	Cancel(ev *Event) bool
	AdvanceTo(limit Time) Time
	Run(until Time) Time
	RunAll() Time
	nextTime() Time
	Metrics() Metrics
}

// runOps interprets data as an op bytecode against q, fresh, and returns the
// complete firing log, the final metrics snapshot, the final clock, and —
// on the engine, where checkWheelInvariants runs after every op — the first
// invariant violation.
// The decoder is total: every byte string is a valid program (missing
// operand bytes read as zero).
//
// Op encoding (op := b & 7):
//
//	0,1  schedule at now+u16 ps          — near future, level-0/1 slots
//	2    schedule at now+(u8 << u8%53)   — all levels, overflow, far future
//	3    schedule at now+(u8&15), pri u8&3 — same-timestamp pri collisions
//	4    cancel live[u16 % len]          — handles may be recycled; a cancel
//	     landing on a reused handle cancels whatever event owns it now,
//	     which is deterministic and the same on the engine and the model
//	5    AdvanceTo(now+u16)              — epoch boundary, frontier advance
//	6    Run(now+u8)                     — bounded run
//	7    nextTime probe                  — forces a refill via the peek path
func runOps(e opQueue, data []byte) ([]fireRec, Metrics, Time, error) {
	eng, _ := e.(*Engine)
	var broken error
	var fires []fireRec
	var live []*Event
	id := 0
	rec := func(a any) { fires = append(fires, fireRec{id: a.(int), at: e.Now()}) }
	i := 0
	next := func() byte {
		if i >= len(data) {
			return 0
		}
		b := data[i]
		i++
		return b
	}
	for i < len(data) {
		switch op := next(); op & 7 {
		case 0, 1:
			d := Duration(uint16(next()) | uint16(next())<<8)
			live = append(live, e.AtArgPri(e.Now().Add(d), 0, rec, id))
			id++
		case 2:
			d := Duration(next()) << (next() % 53)
			live = append(live, e.AtArgPri(e.Now().Add(d), 0, rec, id))
			id++
		case 3:
			t := e.Now().Add(Duration(next() & 15))
			pri := uint64(next() & 3)
			live = append(live, e.AtArgPri(t, pri, rec, id))
			id++
		case 4:
			if n := len(live); n > 0 {
				e.Cancel(live[int(uint16(next())|uint16(next())<<8)%n])
			}
		case 5:
			e.AdvanceTo(e.Now().Add(Duration(uint16(next()) | uint16(next())<<8)))
		case 6:
			e.Run(e.Now().Add(Duration(next())))
		default:
			_ = e.nextTime()
		}
		if eng != nil && broken == nil {
			broken = checkWheelInvariants(&eng.wheel)
		}
	}
	e.RunAll()
	return fires, e.Metrics(), e.Now(), broken
}

// checkWheelInvariants verifies the wheel's three-tier partition: every
// run-heap resident is before runEnd and knows its heap position, every slot
// and overflow resident is at/after runEnd, every level >= 1 and overflow
// resident is at/after the cached bound (the claim that lets refill consult
// level 0 alone below it), and the occupancy bitmaps and counts match the
// lists.
func checkWheelInvariants(w *wheel) error {
	for i, ev := range w.run {
		if ev.time >= w.runEnd || int(ev.index) != i {
			return fmt.Errorf("run[%d]: time %v index %d with runEnd %v", i, ev.time, ev.index, w.runEnd)
		}
	}
	resident := 0
	for lv := range w.slots {
		occupied := int32(0)
		for slot, ev := range w.slots[lv] {
			if (ev != nil) != (w.occ[lv][slot>>6]&(1<<uint(slot&63)) != 0) {
				return fmt.Errorf("level %d slot %d: occupancy bit disagrees with list", lv, slot)
			}
			if ev != nil {
				occupied++
			}
			for ; ev != nil; ev = ev.next {
				resident++
				if ev.time < w.runEnd {
					return fmt.Errorf("level %d slot %d holds %v before runEnd %v", lv, slot, ev.time, w.runEnd)
				}
				if lv > 0 && ev.time < w.bound {
					return fmt.Errorf("level %d slot %d holds %v below the cached bound %v", lv, slot, ev.time, w.bound)
				}
			}
		}
		if occupied != w.cnt[lv] {
			return fmt.Errorf("level %d: cnt %d, %d slots occupied", lv, w.cnt[lv], occupied)
		}
	}
	for ev := w.overflow; ev != nil; ev = ev.next {
		resident++
		if ev.time < w.runEnd || ev.time < w.bound {
			return fmt.Errorf("overflow holds %v with runEnd %v, bound %v", ev.time, w.runEnd, w.bound)
		}
	}
	if resident != w.count {
		return fmt.Errorf("count %d, %d events resident in slots and overflow", w.count, resident)
	}
	return nil
}

// diffOps runs one op program on the heap model and on the engine and
// returns a description of the first divergence, or nil when they agree
// exactly.
func diffOps(data []byte) error {
	hf, hm, ht, _ := runOps(&heapModel{}, data)
	wf, wm, wt, broken := runOps(NewEngine(5), data)
	if broken != nil {
		return fmt.Errorf("wheel invariant: %v", broken)
	}
	if len(hf) != len(wf) {
		return fmt.Errorf("fired %d events on heap, %d on wheel", len(hf), len(wf))
	}
	for i := range hf {
		if hf[i] != wf[i] {
			return fmt.Errorf("pop %d: heap %+v, wheel %+v", i, hf[i], wf[i])
		}
	}
	if hm != wm {
		return fmt.Errorf("metrics diverge:\n heap  %+v\n wheel %+v", hm, wm)
	}
	if ht != wt {
		return fmt.Errorf("final clock: heap %v, wheel %v", ht, wt)
	}
	return nil
}

// shrinkOps minimizes a failing op program: smallest failing prefix first,
// then a greedy single-byte removal pass. Returns a program that still fails.
func shrinkOps(data []byte) []byte {
	for k := 1; k <= len(data); k++ {
		if diffOps(data[:k]) != nil {
			data = data[:k:k]
			break
		}
	}
	for i := 0; i < len(data); {
		cand := append(append([]byte{}, data[:i]...), data[i+1:]...)
		if diffOps(cand) != nil {
			data = cand
		} else {
			i++
		}
	}
	return data
}

// TestWheelHeapPropertyEquivalence drives >10⁵ random schedule/cancel/
// advance operations (seeded, shrinkable) through the engine and the heap
// model. 5000 sequences × ≥(bytes/3) ops each ≈ 2.4×10⁵ ops minimum; a
// divergence is minimized before reporting so the failure is directly
// actionable (and worth committing to the fuzz corpus).
func TestWheelHeapPropertyEquivalence(t *testing.T) {
	seqs := 5000
	if testing.Short() {
		seqs = 500
	}
	rng := rand.New(rand.NewSource(42))
	for s := 0; s < seqs; s++ {
		data := make([]byte, 32+rng.Intn(224))
		rng.Read(data)
		if diffOps(data) != nil {
			min := shrinkOps(data)
			t.Fatalf("sequence %d diverges: %v\nminimized program (add to fuzz corpus): %x",
				s, diffOps(min), min)
		}
	}
}

// TestRunQueueHoldsOneGranule is the exact, machine-independent form of the
// claim that the run heap is small: a few thousand events spread over one
// level-0 window, some of which schedule a follow-up into the granule being
// run, plus an RTO-distance level-2 timer. While draining, the run heap never
// holds more than the population of the granule being run. (Loading the whole
// window at once, it would hold the window's population.)
func TestRunQueueHoldsOneGranule(t *testing.T) {
	e := NewEngine(1)
	const events = 4096
	population := map[Time]int{} // granule start -> events that run in it
	maxDepth, fired := 0, 0
	var fn func(any)
	fn = func(arg any) {
		fired++
		granule := e.Now() &^ (wheelGran - 1)
		if arg.(bool) {
			population[granule]++
			e.ScheduleArg(0, fn, false)
		}
		depth := len(e.wheel.run) + 1 // the event being run was popped from it
		if depth > population[granule] {
			t.Fatalf("at %v the run heap holds %d events; its granule only ever holds %d",
				e.Now(), depth, population[granule])
		}
		if depth > maxDepth {
			maxDepth = depth
		}
	}
	x := uint32(1)
	for i := 0; i < events; i++ {
		x = x*1664525 + 1013904223
		at := Time(x>>8) % (wheelSlots * wheelGran)
		population[at&^(wheelGran-1)]++
		e.AtArg(at, fn, i%8 == 0)
	}
	rto := Time(100 * Microsecond)
	population[rto&^(wheelGran-1)]++
	if lv := e.AtArg(rto, fn, false).loc() >> wheelLevelBits; lv != 2 {
		t.Fatalf("the RTO-distance timer sits at level %d, want 2", lv)
	}
	e.RunAll()
	if want := events + events/8 + 1; fired != want {
		t.Fatalf("fired %d of %d events", fired, want)
	}
	if maxDepth < 2 {
		t.Fatalf("deepest run heap %d: the workload never put two events in one granule", maxDepth)
	}
}

// TestWheelSlotBoundary pins ordering across level-0 slot edges: events one
// picosecond either side of a slot boundary, exactly on it, and colliding
// inside one slot must pop in (time, seq) order.
func TestWheelSlotBoundary(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	times := []Time{
		wheelGran - 1, wheelGran, wheelGran + 1, // slot 0 → slot 1 edge
		2*wheelGran - 1, 2 * wheelGran, // slot 1 → slot 2 edge
		wheelGran, wheelGran + 1, // duplicates: seq breaks the tie
		0, // fires immediately at t=0
	}
	for _, at := range times {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	e.RunAll()
	want := []Time{0, wheelGran - 1, wheelGran, wheelGran, wheelGran + 1, wheelGran + 1,
		2*wheelGran - 1, 2 * wheelGran}
	if len(got) != len(want) {
		t.Fatalf("fired %d of %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop %d = %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
}

// TestWheelOverflowCascade schedules events past the top level's horizon so
// they land on the overflow list, then interleaves near events; draining must
// produce global time order, exercising migrateOverflow and the multi-level
// cascade as the frontier catches up.
func TestWheelOverflowCascade(t *testing.T) {
	e := NewEngine(1)
	horizon := Time(1) << (wheelGranBits + wheelLevels*wheelLevelBits) // 2^58 ps
	times := []Time{
		horizon * 3, horizon + 1, horizon * 2, // overflow residents
		5, wheelGran * 300, horizon - 1, // in-wheel at levels 0/1/top
	}
	var got []Time
	for _, at := range times {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	if e.wheel.overflow == nil {
		t.Fatal("far events did not land on the overflow list")
	}
	e.RunAll()
	want := []Time{5, wheelGran * 300, horizon - 1, horizon + 1, horizon * 2, horizon * 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain order %v, want %v", got, want)
		}
	}
	if e.wheel.overflow != nil || e.wheel.count != 0 {
		t.Fatal("wheel not empty after drain")
	}
}

// TestWheelFarFutureCancel parks events near the top of the time range on
// the overflow list, cancels some, and verifies the remainder still drains in
// order and the wheel empties — the far-future/cancel interaction the RTO
// timer workload leans on.
func TestWheelFarFutureCancel(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	far := Time(1) << 61
	evs := make([]*Event, 0, 4)
	for k := Time(0); k < 4; k++ {
		at := far + k
		evs = append(evs, e.At(at, func() { got = append(got, at) }))
	}
	e.At(100, func() { got = append(got, 100) })
	if !e.Cancel(evs[1]) || !e.Cancel(evs[3]) {
		t.Fatal("cancel of overflow residents failed")
	}
	e.RunAll()
	want := []Time{100, far, far + 2}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	if e.Pending() != 0 || e.wheel.count != 0 {
		t.Fatal("wheel not empty after drain")
	}
}

// TestWheelCancelledSlotRefill empties whole slots by cancellation and checks
// the refill machinery skips them without firing anything or losing the one
// survivor several levels up.
func TestWheelCancelledSlotRefill(t *testing.T) {
	e := NewEngine(1)
	var evs []*Event
	for k := Time(0); k < 64; k++ {
		evs = append(evs, e.At(k*wheelGran, func() {}))
	}
	fired := false
	e.At(wheelGran<<(2*wheelLevelBits), func() { fired = true }) // level-2 resident
	for _, ev := range evs {
		e.Cancel(ev)
	}
	if nt := e.nextTime(); nt != wheelGran<<(2*wheelLevelBits) {
		t.Fatalf("nextTime over cancelled slots = %v", nt)
	}
	e.RunAll()
	if !fired {
		t.Fatal("survivor event lost")
	}
}

// TestWheelScheduleCancelAllocs gates the wheel hot path at zero
// steady-state allocations: schedule/cancel churn and schedule/run churn
// must both live entirely off the event free list and the retained run-heap
// backing array.
func TestWheelScheduleCancelAllocs(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	// Warm the free list and the run-heap capacity.
	for k := 0; k < 64; k++ {
		e.Cancel(e.Schedule(Duration(k), fn))
	}
	if n := testing.AllocsPerRun(200, func() {
		ev := e.Schedule(1000, fn)
		e.Cancel(ev)
	}); n != 0 {
		t.Fatalf("schedule+cancel allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		e.Schedule(5, fn)
		e.RunAll()
	}); n != 0 {
		t.Fatalf("schedule+run allocates %.1f/op, want 0", n)
	}
}

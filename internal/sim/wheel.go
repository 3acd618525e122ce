package sim

import "math/bits"

// Hierarchical timing wheel — the engine's event queue.
//
// The motivating workload is transport timer traffic: RTO timers and
// serialization completions are overwhelmingly near-future and frequently
// cancelled before firing. A binary heap pays O(log n) sift on every
// schedule and cancel; the wheel pays O(1) for both (a doubly-linked list
// insert/unlink plus one occupancy-bit flip) and defers all ordering work to
// the moment a slot actually becomes due.
//
// # Geometry
//
// Time is int64 picoseconds, so slot spans are powers of two of the time
// base: level k covers slots of 2^(10+8k) ps. Level 0's slot is 2^10 ps
// (~1 ns, the order of a serialization quantum); each of the 6 levels has
// 256 slots, so the wheel spans 2^58 ps ≈ 3.3 simulated days past the
// frontier. Events beyond that — in practice only Forever-ish sentinels —
// sit in an unordered overflow list and migrate into the top level when the
// frontier approaches.
//
// # Ordering contract
//
// Events pop in ascending (time, pri, seq) (eventBefore) — bit-identical to a
// plain binary heap over the same order, which the tests keep as a reference
// model (wheel_test.go). The wheel maintains the order with a three-tier
// partition:
//
//   - run: a small binary min-heap (explicit (time, pri, seq) comparator,
//     index-maintained for O(log) cancel) holding every pending event with
//     time < runEnd — one level-0 granule's worth, since refill sorts a
//     slot at a time. Pops come only from here.
//   - slots: per-level 256-slot arrays of intrusive doubly-linked lists
//     (the Event's own next/prev fields — no allocation), holding events
//     with runEnd <= time < horizon. Lists are unordered; a slot is sorted
//     wholesale by pushing it through the run heap when it becomes due.
//   - overflow: events past the horizon.
//
// runEnd is the frontier: it only ever advances, and the invariant is that
// every event at or past it lives in slots/overflow and every event before
// it lives in the run heap (so the run heap's minimum is the global
// minimum).
//
// # Anti-aliasing placement
//
// A 256-slot ring can alias: two events a full wrap apart would share a slot
// and break the "circular order = time order" assumption. insert prevents
// this by placing an event at the SMALLEST level k where its slot lies
// within 255 slots of the frontier's slot: (t>>shift_k) - (runEnd>>shift_k)
// < 256. All resident level-k slot numbers then fall in a 256-value window
// anchored at the frontier, which is collision-free mod 256; the frontier
// only grows, so the window only tightens around a resident event.
//
// # Cascade
//
// refill finds, per level, the circularly-first occupied slot at/after the
// frontier cursor; the slot's range start is a lower bound for every event
// in it (and exact for the minimum's slot at level 0). The smallest range
// start wins, ties preferring the coarsest level. A winning level-0 slot is
// sorted into the run heap and runEnd advances to the slot's end; a winning
// level-k>0 slot is cascaded: the frontier advances to the slot's range
// start (everything pending is provably at/after it) and the slot's events
// re-insert, landing at least one level lower — all events in one slot
// share their level-k slot number with the new frontier, so the level-(k-1)
// distance is < 256. That strict descent bounds a cascade at one re-link
// per level per event. The coarse levels are scanned once per level-0
// window, not once per granule: the winning coarse start is cached as the
// bound below which level 0 alone is consulted (see refill).
const (
	wheelGranBits  = 10 // level-0 slot span: 2^10 ps ≈ 1 ns
	wheelLevelBits = 8  // 256 slots per level
	wheelSlots     = 1 << wheelLevelBits
	wheelLevels    = 6
	wheelOccWords  = wheelSlots / 64
	// wheelTopShift is the top level's slot-span exponent; the wheel horizon
	// is wheelSlots slots of that span past the frontier.
	wheelTopShift = wheelGranBits + (wheelLevels-1)*wheelLevelBits

	wheelGran = Time(1) << wheelGranBits
)

// eventBefore is the engine's total order over events: (time, pri, seq).
// seq is unique per event, so this is a strict total order — pop order is
// fully determined by it regardless of which structure maintains it.
func eventBefore(a, b *Event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}

// Event.index sentinels. Non-negative index means "position in the run heap";
// at or below idxWheel it is a wheel slot list, idxWheel - (level<<8 | slot).
const (
	idxFired     = -1 // popped to run its callback
	idxCancelled = -2 // removed by Cancel
	idxOverflow  = -3 // linked into the overflow list
	idxWheel     = -4 // linked into slot 0 of level 0 (see loc)
)

// loc returns the packed level<<8 | slot of an event linked into a wheel slot.
func (ev *Event) loc() int { return idxWheel - int(ev.index) }

// wheel is the hierarchical timing wheel state, embedded by value in Engine.
type wheel struct {
	run      []*Event // min-heap of events with time < runEnd
	runEnd   Time     // frontier: exclusive upper bound of the run heap's window
	bound    Time     // cached coarse bound: level >= 1 and overflow residents are at/after it (see refill)
	count    int      // events resident in slots + overflow
	overflow *Event   // events past the wheel horizon (unordered list)
	// cnt tracks occupied slots per level so refill skips empty levels
	// without touching their bitmaps — all but one or two levels are empty
	// in steady state.
	cnt   [wheelLevels]int32
	occ   [wheelLevels][wheelOccWords]uint64
	slots [wheelLevels][wheelSlots]*Event
}

// add accepts a newly scheduled event (time and seq already assigned).
func (w *wheel) add(ev *Event) {
	if ev.time < w.runEnd {
		w.runPush(ev)
		return
	}
	w.insert(ev)
	w.count++
}

// insert links an event (time >= runEnd) into the smallest level whose slot
// window reaches it, or the overflow list. It does not touch count: cascades
// and overflow migration move events that are already counted.
func (w *wheel) insert(ev *Event) {
	t := uint64(ev.time)
	f := uint64(w.runEnd)
	for lv := 0; lv < wheelLevels; lv++ {
		shift := uint(wheelGranBits + lv*wheelLevelBits)
		if (t>>shift)-(f>>shift) < wheelSlots {
			slot := int(t>>shift) & (wheelSlots - 1)
			ev.index = int32(idxWheel - (lv<<wheelLevelBits | slot))
			ev.prev = nil
			ev.next = w.slots[lv][slot]
			if ev.next != nil {
				ev.next.prev = ev
			} else {
				w.cnt[lv]++
			}
			w.slots[lv][slot] = ev
			w.occ[lv][slot>>6] |= 1 << uint(slot&63)
			return
		}
	}
	ev.index = idxOverflow
	ev.prev = nil
	ev.next = w.overflow
	if ev.next != nil {
		ev.next.prev = ev
	}
	w.overflow = ev
}

// remove cancels a pending event out of whichever tier holds it.
func (w *wheel) remove(ev *Event) {
	switch {
	case ev.index >= 0:
		w.runRemove(int(ev.index))
	case ev.index <= idxWheel:
		lv := ev.loc() >> wheelLevelBits
		slot := ev.loc() & (wheelSlots - 1)
		if ev.prev != nil {
			ev.prev.next = ev.next
		} else {
			w.slots[lv][slot] = ev.next
		}
		if ev.next != nil {
			ev.next.prev = ev.prev
		}
		if w.slots[lv][slot] == nil {
			w.occ[lv][slot>>6] &^= 1 << uint(slot&63)
			w.cnt[lv]--
		}
		ev.next, ev.prev = nil, nil
		w.count--
	case ev.index == idxOverflow:
		if ev.prev != nil {
			ev.prev.next = ev.next
		} else {
			w.overflow = ev.next
		}
		if ev.next != nil {
			ev.next.prev = ev.prev
		}
		ev.next, ev.prev = nil, nil
		w.count--
	}
}

// peek returns the earliest pending event without removing it, or nil.
// It may load the next due slot into the run heap — a pure repartition of
// pending events that executes nothing, so it is safe anywhere the engine
// itself is (nextTime, Pending-driven loops).
func (w *wheel) peek() *Event {
	if len(w.run) == 0 && !w.refill() {
		return nil
	}
	return w.run[0]
}

// pop removes and returns the earliest pending event, or nil, marked fired.
func (w *wheel) pop() *Event {
	if len(w.run) == 0 && !w.refill() {
		return nil
	}
	return w.runPop()
}

// refill sorts the next due level-0 granule into the run heap, cascading
// coarser slots and migrating overflow as needed. Returns false when no event
// is pending outside the run heap.
//
// One granule per call keeps the run heap at the population of a single ~1 ns
// slot; the coarse-level candidate scan is paid once per level-0 window, not
// once per granule, because the bound it computes is cached. The cache needs
// no invalidation:
//
//   - insert places an event at level >= 1 (or overflow) only if its time is
//     at/after the level-0 window end ((runEnd>>gran)+256)<<gran;
//   - runEnd only grows, and bound never exceeds the window end it was
//     computed from, so every such insert is at/after bound;
//   - cascade and migrateOverflow only move events that already were.
//
// So every coarse/overflow resident is at/after bound at all times, and the
// circularly-first level-0 slot below it holds the global minimum. Anything
// scheduled below bound later lands in level 0 (found by the next firstSlot)
// or, below runEnd, in the run heap. bound is granule-aligned, so once runEnd
// reaches it no level-0 slot starts below it and the scan runs again.
//
// Termination: every loop iteration either returns, strictly descends every
// event of one coarse slot by a level (see cascade), or advances the
// frontier far enough that at least one overflow event enters the slots.
func (w *wheel) refill() bool {
	if w.count == 0 {
		return false
	}
	if w.loadLevel0() {
		return true
	}
	// Level 0 is exhausted below the cached bound, so nothing pending lies
	// below it: advance the coarse levels.
	for {
		w.migrateOverflow()
		cLv, cSlot := -1, 0
		var cStart Time
		for lv := 1; lv < wheelLevels; lv++ {
			if w.cnt[lv] == 0 {
				continue
			}
			if slot, start, ok := w.firstSlot(lv); ok && (cLv < 0 || start <= cStart) {
				// <= so the coarsest of tying slots cascades first — its
				// events may precede the finer slot's within the same span.
				cLv, cSlot, cStart = lv, slot, start
			}
		}
		// The anti-aliasing invariant bounds every level-0 resident below
		// the window end, so with no coarse candidate that is the bound.
		w.bound = Time(((uint64(w.runEnd) >> wheelGranBits) + wheelSlots) << wheelGranBits)
		if cLv >= 0 && cStart < w.bound {
			w.bound = cStart
		}
		if w.loadLevel0() {
			return true
		}
		if cLv < 0 {
			// Slots are empty; only far-future overflow remains. Jump the
			// frontier to the earliest overflow time (nothing else is
			// pending, so this skips only empty time) and migrate.
			w.runEnd = w.overflowMinTime() &^ (wheelGran - 1)
			continue
		}
		w.cascade(cLv, cSlot, cStart)
	}
}

// firstSlot scans level lv's occupancy bitmap circularly from the frontier
// cursor and returns the first occupied slot with the absolute start time of
// its span. The anti-aliasing insert rule guarantees circular distance from
// the cursor equals temporal order, and that the span start lower-bounds
// every event in the slot.
func (w *wheel) firstSlot(lv int) (slot int, start Time, ok bool) {
	shift := uint(wheelGranBits + lv*wheelLevelBits)
	cursor := uint64(w.runEnd) >> shift
	cur := int(cursor) & (wheelSlots - 1)
	occ := &w.occ[lv]
	word := cur >> 6
	if rest := occ[word] >> uint(cur&63) << uint(cur&63); rest != 0 {
		slot = word<<6 + bits.TrailingZeros64(rest)
	} else {
		found := false
		for i := 1; i <= wheelOccWords; i++ {
			wd := (word + i) & (wheelOccWords - 1)
			if occ[wd] != 0 {
				// On full wrap (wd == word) only sub-cursor bits can be set:
				// the at/after-cursor bits were checked empty above.
				slot = wd<<6 + bits.TrailingZeros64(occ[wd])
				found = true
				break
			}
		}
		if !found {
			return 0, 0, false
		}
	}
	delta := uint64(slot-cur) & (wheelSlots - 1)
	start = Time((cursor + delta) << shift)
	return slot, start, true
}

// loadLevel0 sorts the circularly-first occupied level-0 slot into the run
// heap if it starts below bound, and advances the frontier to the slot's end.
// Circular scan order equals time order within the level and everything
// outside level 0 is at/after bound, so that slot holds the global minimum.
// Reports whether a slot was loaded.
func (w *wheel) loadLevel0() bool {
	if w.cnt[0] == 0 {
		return false
	}
	slot, start, _ := w.firstSlot(0)
	if start >= w.bound {
		return false
	}
	ev := w.slots[0][slot]
	w.slots[0][slot] = nil
	w.occ[0][slot>>6] &^= 1 << uint(slot&63)
	w.cnt[0]--
	for ev != nil {
		next := ev.next
		ev.next, ev.prev = nil, nil
		w.runPush(ev)
		w.count--
		ev = next
	}
	w.runEnd = start + wheelGran
	return true
}

// cascade re-inserts one coarse slot's events a level down. The frontier
// first advances to the slot's span start — the proven global lower bound —
// so every event in the slot shares its level-lv slot number with the new
// frontier and lands at a level below lv.
func (w *wheel) cascade(lv, slot int, start Time) {
	if start > w.runEnd {
		w.runEnd = start
	}
	ev := w.slots[lv][slot]
	w.slots[lv][slot] = nil
	w.occ[lv][slot>>6] &^= 1 << uint(slot&63)
	w.cnt[lv]--
	for ev != nil {
		next := ev.next
		w.insert(ev)
		ev = next
	}
}

// migrateOverflow moves overflow events that now fit the top level into the
// slots. Afterwards every remaining overflow event is at least a full top
// slot past any slot-resident event, so slot loads never have to consult the
// overflow list.
func (w *wheel) migrateOverflow() {
	if w.overflow == nil {
		return
	}
	f := uint64(w.runEnd) >> wheelTopShift
	for ev := w.overflow; ev != nil; {
		next := ev.next
		if uint64(ev.time)>>wheelTopShift-f < wheelSlots {
			if ev.prev != nil {
				ev.prev.next = ev.next
			} else {
				w.overflow = ev.next
			}
			if ev.next != nil {
				ev.next.prev = ev.prev
			}
			w.insert(ev)
		}
		ev = next
	}
}

// overflowMinTime returns the earliest overflow event time. Only called on
// the refill slow path with all slots empty; the list is in practice a
// handful of Forever-ish sentinels.
func (w *wheel) overflowMinTime() Time {
	min := Forever
	for ev := w.overflow; ev != nil; ev = ev.next {
		if ev.time < min {
			min = ev.time
		}
	}
	return min
}

// runPush inserts into the run min-heap.
func (w *wheel) runPush(ev *Event) {
	ev.index = int32(len(w.run))
	w.run = append(w.run, ev) //lint:alloc-ok run-heap growth is amortized; capacity is retained
	w.runUp(len(w.run) - 1)
}

// runPop removes and returns the run-heap minimum. Caller ensures non-empty.
func (w *wheel) runPop() *Event {
	h := w.run
	top := h[0]
	n := len(h) - 1
	if n > 0 {
		h[0] = h[n]
		h[0].index = 0
	}
	h[n] = nil
	w.run = h[:n]
	if n > 1 {
		w.runDown(0)
	}
	top.index = idxFired
	return top
}

// runRemove deletes the event at heap position i (cancel path).
func (w *wheel) runRemove(i int) {
	h := w.run
	n := len(h) - 1
	if i != n {
		h[i] = h[n]
		h[i].index = int32(i)
	}
	h[n] = nil
	w.run = h[:n]
	if i != n {
		if !w.runDown(i) {
			w.runUp(i)
		}
	}
}

func (w *wheel) runUp(i int) {
	h := w.run
	for i > 0 {
		p := (i - 1) / 2
		if !eventBefore(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		h[i].index = int32(i)
		h[p].index = int32(p)
		i = p
	}
}

func (w *wheel) runDown(i int) bool {
	h := w.run
	n := len(h)
	moved := false
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && eventBefore(h[r], h[l]) {
			m = r
		}
		if !eventBefore(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		h[i].index = int32(i)
		h[m].index = int32(m)
		i = m
		moved = true
	}
	return moved
}

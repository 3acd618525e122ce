package sim

import "testing"

// FuzzWheelHeapEquivalence feeds the op bytecode (see runOps in
// wheel_test.go) to the engine and to the heap model (heap_test.go) and fails
// on any divergence in pop order, Metrics, or the final clock, and on any
// wheel-invariant violation along the way. The seed corpus covers the three structurally
// distinct wheel regimes — level-0 slot boundaries, the overflow list and its
// migrate/cascade path back down, far-future times near the top of the range
// — and the three edges of granule-at-a-time refill under a cached bound.
// testdata/fuzz/FuzzWheelHeapEquivalence holds the same seeds as committed
// corpus files.
func FuzzWheelHeapEquivalence(f *testing.F) {
	// Slot boundary: events at wheelGran-1 / wheelGran / wheelGran+1
	// (0x3ff, 0x400, 0x401 with gran bits 10), then a bounded run across
	// the edge and a drain.
	f.Add([]byte{
		0x00, 0xff, 0x03, // schedule now+1023
		0x00, 0x00, 0x04, // schedule now+1024
		0x00, 0x01, 0x04, // schedule now+1025
		0x06, 0x00, // Run(now) — nothing fires
		0x05, 0x00, 0x04, // AdvanceTo(now+1024) — two fire, one stays
	})
	// Overflow cascade: a far event lands past the top-level horizon
	// (0xff << 52), near events fill level 0, epochs march the frontier so
	// migrate/cascade run, and a cancel hits the overflow resident.
	f.Add([]byte{
		0x02, 0xff, 0x34, // schedule now + 255<<52 — overflow
		0x00, 0x10, 0x00, // schedule now+16
		0x02, 0x01, 0x1e, // schedule now + 1<<30 — level 2/3
		0x05, 0xff, 0xff, // AdvanceTo(now+65535)
		0x04, 0x00, 0x00, // cancel live[0] — the overflow resident
		0x07, // nextTime probe forces a refill
	})
	// Far future with same-time pri collisions: collisions at one instant,
	// a probe, then everything cancelled before a final drain.
	f.Add([]byte{
		0x03, 0x05, 0x02, // schedule now+5 pri 2
		0x03, 0x05, 0x00, // schedule now+5 pri 0
		0x03, 0x05, 0x02, // schedule now+5 pri 2 — seq breaks the tie
		0x02, 0x7f, 0x32, // schedule now + 127<<50 — far future
		0x07,             // probe
		0x04, 0x03, 0x00, // cancel live[3]
	})
	// Coarse insert under the cached bound: two window-end bounds computed
	// from unaligned frontiers (10240, then 265216 → bound 527360), level 0
	// still draining below the bound, then a level-1 insert whose slot
	// starts at 524288 — below the bound — while the event itself is past it.
	f.Add([]byte{
		0x00, 0x10, 0x27, // schedule 10000
		0x05, 0x10, 0x27, // AdvanceTo(10000): fires; runEnd 10240, bound 262144
		0x02, 0xf9, 0x0a, // schedule 264976 — level 0, past the bound
		0x07,             // probe: rescan, bound 272384, runEnd 265216
		0x02, 0x50, 0x0c, // schedule 337680 — level 0, past the bound
		0x04, 0x01, 0x00, // cancel the loaded event: run heap empty
		0x07,             // probe: rescan, bound 527360, runEnd 337920
		0x02, 0x60, 0x0c, // schedule 403216 — level 0, below the bound
		0x02, 0x7e, 0x0c, // schedule 526096 — level 0, below the bound, past 524288
		0x02, 0x98, 0x0c, // schedule 632592 — level 1, slot start 524288
	})
	// Gap below the bound: the last level-0 resident below the cached bound
	// is cancelled in its slot, then events are scheduled into the emptied
	// span, on both sides of the frontier.
	f.Add([]byte{
		0x00, 0x88, 0x13, // schedule 5000
		0x00, 0x60, 0xea, // schedule 60000
		0x02, 0x50, 0x0c, // schedule 327680 — level 1
		0x07,             // probe: loads 5000; runEnd 5120, bound 262144
		0x04, 0x01, 0x00, // cancel 60000: level 0 empty below the bound
		0x00, 0x30, 0x75, // schedule 30000 — into the gap, level 0
		0x03, 0x0f, 0x01, // schedule 15 pri 1 — before the frontier, run heap
		0x05, 0xff, 0xff, // AdvanceTo(65535): three fire, the peek cascades level 1
		0x00, 0x64, 0x00, // schedule now+100 — before the peeked head
	})
	// Peek-only advance: nextTime (as the shard coordinator calls it) moves
	// the frontier without running anything, then events are scheduled
	// before, beside and after the peeked head; the second peek cascades a
	// level-2 timer and the frontier jumps 67 µs past now.
	f.Add([]byte{
		0x00, 0x50, 0xc3, // schedule 50000
		0x02, 0x40, 0x14, // schedule 64<<20 — level 2
		0x07,             // peek: loads 50000; runEnd 50176
		0x00, 0xe8, 0x03, // schedule 1000 — before the peeked head
		0x00, 0xb4, 0xc3, // schedule 50100 — same granule, after it
		0x00, 0x38, 0xc7, // schedule 51000 — past the frontier, level 0
		0x07,             // peek again: nothing moves
		0x05, 0xff, 0xff, // AdvanceTo(65535): four fire, the peek cascades level 2
		0x07,             // peek
		0x03, 0x05, 0x00, // schedule now+5 — 67 µs before the peeked head
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("op program longer than any real workload burst")
		}
		if err := diffOps(data); err != nil {
			t.Fatalf("engine and heap model diverge: %v\nminimized: %x", err, shrinkOps(data))
		}
	})
}

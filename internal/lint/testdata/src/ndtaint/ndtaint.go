// Package ndtaint is a themis-lint golden fixture for the nondeterminism
// taint analyzer: values originating at nondeterministic sources (map
// iteration order, multi-ready select, unseeded math/rand, wall-clock reads,
// pointer→uintptr conversions) are tracked along the call graph into
// determinism sinks, and each finding carries the full source→sink path.
// Several lines double as site-analyzer fixtures (wallclock, map-order,
// purity) because the golden harness runs the whole suite.
package ndtaint

import (
	"math/rand"
	"time"
	"unsafe"

	"themis/internal/sim"
)

type node struct {
	eng   *sim.Engine
	group *sim.ShardGroup
}

// direct: the ranged key flows into the event queue inside the loop.
func (n *node) direct(m map[int]int) {
	for k := range m { // want "map iteration in direct, which reaches the event queue"
		n.eng.At(sim.Time(k), func() {}) // want "nondeterministic value \(map iteration order, ndtaint.go:\d+\) reaches event scheduling"
	}
}

// stamped and posted: the ranged key becomes a same-time priority, on the
// engine and through a shard mailbox — the forms every fabric-link delivery
// and pause frame is scheduled with.
func (n *node) stamped(m map[int]int) {
	for k := range m { // want "map iteration in stamped, which reaches the event queue"
		n.eng.AtPri(0, uint64(k), func() {}) // want "nondeterministic value \(map iteration order, ndtaint.go:\d+\) reaches event scheduling"
	}
}

func (n *node) posted(m map[int]int) {
	for k := range m { // want "map iteration in posted, which reaches the event queue"
		n.group.Post(0, 1, 0, uint64(k), func() {}) // want "nondeterministic value \(map iteration order, ndtaint.go:\d+\) reaches event scheduling"
	}
}

// pickLast leaks map order through its return value; no sink is called here,
// so the source only becomes a finding at launch's call site below.
func pickLast(m map[int]int) int {
	last := 0
	for k := range m {
		last = k
	}
	return last
}

// launch shows the interprocedural hop: the tainted return value crosses
// into the event queue one call later.
func (n *node) launch(m map[int]int) {
	n.eng.At(sim.Time(pickLast(m)), func() {}) // want "nondeterministic value \(map iteration order, ndtaint.go:\d+\) reaches event scheduling"
}

// clock stamps an event with the wall clock: the read itself is a wallclock
// site finding, and the value's flow into the queue is a taint finding.
func (n *node) clock() {
	t := sim.Time(time.Now().UnixNano()) // want "time.Now reads the wall clock"
	n.eng.At(t, func() {})               // want "nondeterministic value \(time.Now \(wall clock\), ndtaint.go:\d+\) reaches event scheduling"
}

// jitter draws from the process-global source: same two-layer reporting.
func (n *node) jitter() {
	d := sim.Duration(rand.Int63()) // want "rand.Int63 uses the process-global source"
	n.eng.Schedule(d, func() {})    // want "nondeterministic value \(rand.Int63 \(process-global source\), ndtaint.go:\d+\) reaches event scheduling"
}

// addr turns pointer identity — ASLR-dependent — into a schedule time.
func (n *node) addr(p *int) {
	u := uintptr(unsafe.Pointer(p))
	n.eng.At(sim.Time(u), func() {}) // want "nondeterministic value \(pointer→uintptr conversion, ndtaint.go:\d+\) reaches event scheduling"
}

// race picks whichever channel is ready first; the winner is
// scheduling-order-dependent. The select and receives are also concurrency
// findings in their own right (purity).
func (n *node) race(a, b chan int) {
	v := 0
	select { // want "select statement in the deterministic core"
	case v = <-a: // want "channel receive in the deterministic core"
	case v = <-b: // want "channel receive in the deterministic core"
	}
	n.eng.At(sim.Time(v), func() {}) // want "nondeterministic value \(select with multiple ready cases, ndtaint.go:\d+\) reaches event scheduling"
}

// audited: a justified //lint:ordered review suppresses both the map-order
// finding and the taint source.
func (n *node) audited(m map[int]int) {
	total := 0
	for _, v := range m { //lint:ordered commutative sum; the total is order-independent
		total += v
	}
	n.eng.At(sim.Time(total), func() {})
}

// cookie: //lint:taint-ok on the source line accepts a reviewed flow.
func (n *node) cookie(p *int) {
	u := uintptr(unsafe.Pointer(p)) //lint:taint-ok reviewed: identity cookie, never ordered on
	n.eng.At(sim.Time(u), func() {})
}

// local nondeterminism that never reaches a sink is not a taint finding.
func lastName(m map[string]bool) string {
	out := ""
	for k := range m {
		out = k
	}
	return out
}

// Package maporder is a themis-lint golden fixture for the map-order
// analyzer: map iteration is flagged only in functions from which an
// event-queue sink is reachable, directly or transitively, and the
// //lint:ordered annotation suppresses the finding.
package maporder

import "themis/internal/sim"

type node struct {
	eng   *sim.Engine
	group *sim.ShardGroup
}

// fire reaches the event queue, making every caller order-sensitive.
func (n *node) fire() {
	n.eng.Schedule(sim.Microsecond, func() {})
}

func (n *node) direct(m map[int]int) {
	for k := range m { // want "map iteration in direct, which reaches the event queue"
		_ = k
		n.eng.Schedule(sim.Microsecond, func() {})
	}
}

func (n *node) transitive(m map[string]bool) {
	for k := range m { // want "map iteration in transitive, which reaches the event queue"
		_ = k
		n.fire()
	}
}

func (n *node) deferred(m map[int]int) {
	// Building callbacks inside a map range is order-sensitive even though
	// they run later.
	for k := range m { // want "map iteration in deferred, which reaches the event queue"
		k := k
		n.eng.At(sim.Time(k), func() {}) // want "nondeterministic value \(map iteration order, maporder.go:\d+\) reaches event scheduling"
	}
}

// stamped and posted reach the queue only through the priority-carrying and
// mailbox forms the fabric schedules every link delivery and pause frame with.
func (n *node) stamped(m map[int]int) {
	for k := range m { // want "map iteration in stamped, which reaches the event queue"
		_ = k
		n.eng.AtPri(0, 2, func() {})
	}
}

func (n *node) posted(m map[int]int) {
	for k := range m { // want "map iteration in posted, which reaches the event queue"
		_ = k
		n.group.Post(0, 1, 0, 3, func() {})
	}
}

// reserved reaches the queue only by reserving a place in the execution order
// and filling it, the form an elided serializer completion uses.
func (n *node) reserved(m map[int]int) {
	for k := range m { // want "map iteration in reserved, which reaches the event queue"
		_ = k
		n.eng.AtTurn(n.eng.Reserve(0), func(any) {}, nil)
	}
}

func (n *node) annotated(m map[int]int) {
	// Deleting independent entries is commutative; the annotation records
	// that the body was audited.
	for k := range m { //lint:ordered deleting independent entries is commutative
		delete(m, k)
	}
	n.fire()
}

func (n *node) annotatedAbove(m map[int]int) {
	//lint:ordered — sums are commutative
	for _, v := range m {
		_ = v
	}
	n.fire()
}

// pure never reaches a sink: its map order stays local and is not flagged.
func pure(m map[int]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}

// slices reaches a sink but ranges a slice, which is ordered.
func (n *node) slices(xs []int) {
	for _, x := range xs {
		_ = x
	}
	n.fire()
}

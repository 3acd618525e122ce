package sim

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

// A Stop issued before Run must be sticky: the next Run observes it, executes
// nothing, and consumes it so the run after that proceeds. (Run used to reset
// the flag unconditionally on entry, silently swallowing pre-run Stops.)
func TestEngineStopStickyBeforeRun(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.At(1, func() { fired++ })
	e.Stop()
	if end := e.RunAll(); end != 0 || fired != 0 {
		t.Fatalf("stopped Run executed work: end=%v fired=%d", end, fired)
	}
	if e.Stopped() {
		t.Fatal("Run did not consume the stop")
	}
	e.RunAll()
	if fired != 1 {
		t.Fatalf("fired = %d after resume, want 1", fired)
	}
}

// AdvanceTo halts on a pending Stop but must NOT consume it — the shard
// coordinator needs the flag to survive until the next barrier.
func TestEngineAdvanceToLeavesStopPending(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.At(1, func() { fired++; e.Stop() })
	e.At(2, func() { fired++ })
	e.AdvanceTo(10)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if !e.Stopped() {
		t.Fatal("AdvanceTo consumed the stop")
	}
	e.AdvanceTo(10) // still halted: the flag is pending
	if fired != 1 {
		t.Fatalf("fired = %d after second AdvanceTo, want 1", fired)
	}
	e.RunAll() // Run observes the pending stop and consumes it
	if fired != 1 || e.Stopped() {
		t.Fatalf("fired=%d stopped=%v after consuming Run", fired, e.Stopped())
	}
	e.RunAll() // now drains normally
	if fired != 2 {
		t.Fatalf("fired = %d after resume, want 2", fired)
	}
}

// Same-time events order by (pri, seq): lower pri first regardless of
// insertion order, FIFO within a pri level, and pri 0 (all classic code)
// stays pure FIFO.
func TestEnginePriOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.AtPri(10, 5, func() { order = append(order, 50) })
	e.AtPri(10, 2, func() { order = append(order, 20) })
	e.At(10, func() { order = append(order, 0) })
	e.AtArgPri(10, 2, func(a any) { order = append(order, a.(int)) }, 21)
	e.AtPri(10, 1, func() { order = append(order, 10) })
	e.RunAll()
	want := []int{0, 10, 20, 21, 50}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestMetricsMerge(t *testing.T) {
	a := Metrics{EventsExecuted: 10, EventsCancelled: 1, EventAllocs: 3, EventReuses: 7, HeapHighWater: 4}
	b := Metrics{EventsExecuted: 5, EventsCancelled: 2, EventAllocs: 1, EventReuses: 4, HeapHighWater: 9}
	a.Merge(b)
	want := Metrics{EventsExecuted: 15, EventsCancelled: 3, EventAllocs: 4, EventReuses: 11, HeapHighWater: 9}
	if a != want {
		t.Fatalf("merged = %+v, want %+v", a, want)
	}
	// Max, not sum: merging a shallower block keeps the high water.
	a.Merge(Metrics{HeapHighWater: 2})
	if a.HeapHighWater != 9 {
		t.Fatalf("HeapHighWater = %d after shallow merge, want 9", a.HeapHighWater)
	}
}

// A single-shard group is the degenerate case the legacy workloads run on:
// it must execute exactly what Engine.Run would, same order, same metrics.
func TestShardGroupSingleShardMatchesRun(t *testing.T) {
	trace := func(drive func(*Engine) Time) ([]Time, Metrics, Time) {
		e := NewEngine(7)
		var seen []Time
		var recur func()
		n := 0
		recur = func() {
			seen = append(seen, e.Now())
			if n++; n < 20 {
				e.Schedule(Duration(3+n%5), recur)
			}
		}
		e.Schedule(2, recur)
		end := drive(e)
		return seen, e.Metrics(), end
	}
	aSeen, aM, aEnd := trace(func(e *Engine) Time { return e.Run(1000) })
	bSeen, bM, bEnd := trace(func(e *Engine) Time {
		return NewShardGroup([]*Engine{e}, Duration(Forever)).Run(1000)
	})
	if aEnd != bEnd || aM != bM {
		t.Fatalf("end %v vs %v, metrics %+v vs %+v", aEnd, bEnd, aM, bM)
	}
	if len(aSeen) != len(bSeen) {
		t.Fatalf("event counts differ: %d vs %d", len(aSeen), len(bSeen))
	}
	for i := range aSeen {
		if aSeen[i] != bSeen[i] {
			t.Fatalf("event %d at %v vs %v", i, aSeen[i], bSeen[i])
		}
	}
}

// Two shards exchanging mail across epochs: the cross-shard ping-pong must
// execute at exactly the predicted times, twice over (determinism), with the
// lookahead window enforcing that each post lands in a later epoch.
func TestShardGroupCrossShardPingPong(t *testing.T) {
	const lookahead = Duration(10)
	run := func() [2][]Time {
		engines := []*Engine{NewEngine(1), NewEngine(2)}
		g := NewShardGroup(engines, lookahead)
		var seen [2][]Time // seen[i] is only touched by shard i's callbacks
		var hop func(shard int) func()
		hop = func(shard int) func() {
			return func() {
				e := g.Shard(shard)
				seen[shard] = append(seen[shard], e.Now())
				peer := 1 - shard
				g.Post(shard, peer, e.Now().Add(lookahead), 1, hop(peer))
			}
		}
		engines[0].At(5, hop(0))
		g.Run(100)
		return seen
	}
	a, b := run(), run()
	want := [2][]Time{{5, 25, 45, 65, 85}, {15, 35, 55, 75, 95}}
	for s := 0; s < 2; s++ {
		if len(a[s]) != len(want[s]) {
			t.Fatalf("shard %d fired at %v, want %v", s, a[s], want[s])
		}
		for i := range want[s] {
			if a[s][i] != want[s][i] || b[s][i] != want[s][i] {
				t.Fatalf("shard %d: runs %v / %v, want %v", s, a[s], b[s], want[s])
			}
		}
	}
}

// Mailbox drain order is (time, pri, src, seq) — posts buffered in arbitrary
// source order must schedule on the destination in exactly that total order.
func TestShardGroupMailDrainOrder(t *testing.T) {
	engines := []*Engine{NewEngine(1), NewEngine(2), NewEngine(3)}
	g := NewShardGroup(engines, Duration(Forever))
	var order []int
	rec := func(v int) func() { return func() { order = append(order, v) } }
	// Build-phase posts (coordinator-owned, before Run) in scrambled order.
	g.Post(2, 0, 5, 1, rec(3))                                               // time 5, pri 1, src 2
	g.Post(1, 0, 7, 0, rec(5))                                               // time 7
	g.Post(1, 0, 5, 1, rec(2))                                               // time 5, pri 1, src 1
	g.Post(0, 0, 5, 2, rec(4))                                               // time 5, pri 2
	g.Post(0, 0, 5, 1, rec(0))                                               // time 5, pri 1, src 0, seq first
	g.PostArg(0, 0, 5, 1, func(a any) { order = append(order, a.(int)) }, 1) // src 0, seq second
	g.Run(100)
	want := []int{0, 1, 2, 3, 4, 5}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// A Stop on any shard halts the whole group at the next barrier, and the
// group consumes the flags so a later Run resumes.
func TestShardGroupStopHaltsGroup(t *testing.T) {
	engines := []*Engine{NewEngine(1), NewEngine(2)}
	g := NewShardGroup(engines, Duration(10))
	fired := [2]int{}
	engines[0].At(5, func() { fired[0]++; engines[0].Stop() })
	engines[0].At(50, func() { fired[0]++ })
	engines[1].At(50, func() { fired[1]++ })
	g.Run(100)
	if fired[0] != 1 || fired[1] != 0 {
		t.Fatalf("fired = %v after stop, want [1 0]", fired)
	}
	if engines[0].Stopped() || engines[1].Stopped() {
		t.Fatal("group Run did not consume the stop flags")
	}
	g.Run(100)
	if fired[0] != 2 || fired[1] != 1 {
		t.Fatalf("fired = %v after resume, want [2 1]", fired)
	}
}

// An event that panics on a shard worker must surface as a panic on the
// goroutine that called Run — where exp.RunObserved's recover turns it into
// Trial.Err — and Run must not return, normally or by panic, before its
// workers have exited.
func TestShardGroupWorkerPanicReachesCaller(t *testing.T) {
	run := func(g *ShardGroup) (r any) {
		defer func() { r = recover() }()
		g.RunAll()
		return nil
	}
	before := runtime.NumGoroutine()

	engines := []*Engine{NewEngine(1), NewEngine(2)}
	g := NewShardGroup(engines, Duration(10))
	peerRan := false
	engines[0].At(5, func() { peerRan = true })
	engines[1].At(5, func() { panic("boom") })
	if got := run(g); got != "boom" {
		t.Fatalf("caller recovered %v, want the worker's panic value", got)
	}
	if !peerRan {
		t.Fatal("the other shard's epoch was cut short")
	}

	// Two shards panicking in one epoch: the lowest shard's value wins, so
	// the report does not depend on which worker finished first.
	engines = []*Engine{NewEngine(1), NewEngine(2)}
	g = NewShardGroup(engines, Duration(10))
	engines[0].At(5, func() { panic("first") })
	engines[1].At(5, func() { panic("second") })
	if got := run(g); got != "first" {
		t.Fatalf("caller recovered %v, want shard 0's value", got)
	}

	// Run waited for the workers, so at most the last instants of their
	// exit are still visible to the scheduler.
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 1000 {
			t.Fatalf("%d goroutines before, %d after: a worker is still running", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestShardGroupMetricsMergesShards(t *testing.T) {
	engines := []*Engine{NewEngine(1), NewEngine(2)}
	g := NewShardGroup(engines, Duration(Forever))
	for i := 0; i < 3; i++ {
		engines[0].At(Time(i+1), func() {})
	}
	engines[1].At(1, func() {})
	g.Run(100)
	m := g.Metrics()
	if m.EventsExecuted != 4 {
		t.Fatalf("EventsExecuted = %d, want 4", m.EventsExecuted)
	}
	if m.HeapHighWater != 3 {
		t.Fatalf("HeapHighWater = %d, want 3 (max, not sum)", m.HeapHighWater)
	}
}

func TestNewShardGroupValidates(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty":        func() { NewShardGroup(nil, Duration(10)) },
		"no lookahead": func() { NewShardGroup([]*Engine{NewEngine(1)}, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// StreamSeed derivation is pure: same (seed, key) -> same stream, different
// key -> different stream.
func TestStreamSeedIdentity(t *testing.T) {
	if StreamSeed(42, 1) != StreamSeed(42, 1) {
		t.Fatal("StreamSeed not deterministic")
	}
	if StreamSeed(42, 1) == StreamSeed(42, 2) {
		t.Fatal("distinct keys collided")
	}
	if StreamSeed(42, 1) == StreamSeed(43, 1) {
		t.Fatal("distinct seeds collided")
	}
}

// Property backing the shard-count determinism contract: the draws a
// component observes from its identity-keyed stream are independent of how
// many other components exist, how they are grouped, and in what order any
// of them consume their own streams. Concretely: for a random grouping of
// components into shards, interleaving draws group-by-group produces exactly
// the per-component sequences that drawing each stream alone produces.
func TestStreamIndependenceProperty(t *testing.T) {
	f := func(seed int64, assign []uint8, rounds uint8) bool {
		const components = 8
		n := int(rounds%5) + 1
		// Reference: each component drains its stream alone.
		want := make([][]int64, components)
		for c := 0; c < components; c++ {
			r := NewStream(seed, uint64(c))
			for i := 0; i < n; i++ {
				want[c] = append(want[c], r.Int63())
			}
		}
		// Grouped: components are sharded by assign and draw interleaved,
		// one draw per component per round, shard-major.
		shards := make(map[uint8][]int)
		for c := 0; c < components; c++ {
			var a uint8
			if len(assign) > 0 {
				a = assign[c%len(assign)] % 4
			}
			shards[a] = append(shards[a], c)
		}
		rngs := make([]*rand.Rand, components)
		for c := range rngs {
			rngs[c] = NewStream(seed, uint64(c))
		}
		got := make([][]int64, components)
		for i := 0; i < n; i++ {
			for a := uint8(0); a < 4; a++ {
				for _, c := range shards[a] {
					got[c] = append(got[c], rngs[c].Int63())
				}
			}
		}
		for c := 0; c < components; c++ {
			for i := range want[c] {
				if got[c][i] != want[c][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

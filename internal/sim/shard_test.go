package sim

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
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

// goid is the calling goroutine's ID, parsed from the "goroutine N [...]"
// header runtime.Stack writes first.
func goid() uint64 {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	id, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// A one-engine group — every trial that is not cut — costs what Engine.Run
// costs: its events run on the calling goroutine, with no worker to hand them
// to and no barrier crossed; a whole Run is one epoch.
func TestShardGroupOneEngineRunsOnTheCaller(t *testing.T) {
	e := NewEngine(1)
	g := NewShardGroup([]*Engine{e}, Duration(Forever))
	caller := goid()
	seen := 0
	var tick func()
	tick = func() {
		if id := goid(); id != caller {
			t.Errorf("an event of a one-engine Run ran on goroutine %d, not the caller's %d", id, caller)
		}
		if seen++; seen < 100 {
			e.Schedule(7, tick)
		}
	}
	e.At(1, tick)
	g.Run(350)
	if seen != 50 || g.Epochs().Epochs != 1 {
		t.Fatalf("Run(350): %d events in %d epochs, want 50 in one", seen, g.Epochs().Epochs)
	}
	g.RunAll()
	if seen != 100 || g.Epochs().Epochs != 2 {
		t.Fatalf("RunAll: %d events in %d epochs, want 100 in two", seen, g.Epochs().Epochs)
	}
}

// A group cut finer than its cores runs every epoch's shares on at most that
// many goroutines, the caller included: at one core only the caller runs
// them. The schedule is the same at every bound.
func TestShardGroupRunsOnItsCores(t *testing.T) {
	const shards, W = 16, Duration(10)
	run := func(cores int) (ran map[uint64]bool, seen [shards][]Time) {
		engines := make([]*Engine, shards)
		for i := range engines {
			engines[i] = NewEngine(int64(i))
		}
		g := NewShardGroup(engines, W)
		g.SetCores(cores)
		var on [shards]map[uint64]bool // on[s]: the goroutines that ran shard s; only its share writes it
		var hop func(s int) func()
		hop = func(s int) func() {
			return func() {
				e := engines[s]
				on[s][goid()] = true
				seen[s] = append(seen[s], e.Now())
				if e.Now() < 400 {
					g.Post(s, (s+5)%shards, e.Now().Add(W), uint64(s), hop((s+5)%shards))
				}
			}
		}
		for s := range engines {
			on[s] = make(map[uint64]bool)
			engines[s].At(Time(s), hop(s))
		}
		g.RunAll()
		ran = make(map[uint64]bool)
		for _, ids := range on {
			maps.Copy(ran, ids)
		}
		return ran, seen
	}
	caller := goid()
	var got [3][shards][]Time
	for i, cores := range []int{1, 2, 4} {
		var ran map[uint64]bool
		if ran, got[i] = run(cores); len(ran) > cores {
			t.Errorf("cores=%d: %d goroutines ran the shares", cores, len(ran))
		}
		if cores == 1 && (len(ran) != 1 || !ran[caller]) {
			t.Errorf("cores=1: the shares ran on goroutines %v, want only the caller's %d", ran, caller)
		}
	}
	_, want := run(shards)
	for i := range got {
		if fmt.Sprint(got[i]) != fmt.Sprint(want) {
			t.Errorf("run %d: the schedule differs from one goroutine per shard", i)
		}
	}
}

// Homes tile the shards: contiguous, disjoint, covering [0, n) in
// participant order, no two more than one shard apart in size, and home 0 —
// the coordinator's — a smallest.
func TestShardHomesTileTheShards(t *testing.T) {
	for n := 1; n <= 20; n++ {
		for w := 1; w <= min(n, 8); w++ {
			next, sizes := 0, make([]int, w)
			for p := range w {
				lo, hi := homeRun(p, n, w)
				if lo != next || hi < lo {
					t.Fatalf("n=%d w=%d: home %d is [%d, %d), want it to start at %d", n, w, p, lo, hi, next)
				}
				next, sizes[p] = hi, hi-lo
			}
			if next != n {
				t.Fatalf("n=%d w=%d: the homes end at %d", n, w, next)
			}
			if lo, hi := slices.Min(sizes), slices.Max(sizes); hi-lo > 1 || sizes[0] != lo {
				t.Fatalf("n=%d w=%d: home sizes %v", n, w, sizes)
			}
		}
	}
}

// A participant whose home is empty steals the other homes' shares from the
// back. Sixteen shards on two cores: shard 0's event, which its owner (the
// caller) claims first, spins until shards 1–7 — the rest of its home — have
// run, which only the other participant can do, by stealing. Every shard
// still runs exactly once an epoch, and the schedule is the one-core run's,
// where nothing is stolen.
func TestShardGroupStealsFromTheBack(t *testing.T) {
	const shards, W = 16, Duration(10)
	run := func(cores int) ([shards][]Time, EpochStats) {
		engines := make([]*Engine, shards)
		for i := range engines {
			engines[i] = NewEngine(int64(i))
		}
		g := NewShardGroup(engines, W)
		g.SetCores(cores)
		var ran [shards]atomic.Int32 // events run per shard, read across participants
		var seen [shards][]Time
		var hop func(s int) func()
		hop = func(s int) func() {
			return func() {
				e := engines[s]
				if s == 0 && cores > 1 {
					for j := 1; j < shards/2; j++ {
						for ran[j].Load() < ran[0].Load()+1 {
							runtime.Gosched()
						}
					}
				}
				ran[s].Add(1)
				seen[s] = append(seen[s], e.Now())
				if e.Now() < 60 {
					g.Post(s, (s+1)%shards, e.Now().Add(2*W), uint64(s), hop((s+1)%shards))
				}
			}
		}
		for s := range engines {
			engines[s].At(5, hop(s))
		}
		g.RunAll()
		return seen, g.Epochs()
	}
	want, one := run(1)
	if one.Epochs != 4 || one.Steals != 0 {
		t.Fatalf("one core: %d epochs, %d steals; want 4 and none", one.Epochs, one.Steals)
	}
	for s := range want {
		if !slices.Equal(want[s], []Time{5, 25, 45, 65}) {
			t.Fatalf("shard %d ran at %v, want once an epoch", s, want[s])
		}
	}
	got, two := run(2)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("two cores ran\n%v\nwant\n%v", got, want)
	}
	if two.Epochs != 4 || two.Steals < 4*(shards/2-1) {
		t.Fatalf("two cores: %d epochs, %d steals; want 4 and at least %d", two.Epochs, two.Steals, 4*(shards/2-1))
	}
}

// Two shards exchanging mail across epochs: the cross-shard ping-pong must
// execute at exactly the predicted times, twice over (determinism), with the
// lookahead window enforcing that each post lands in a later epoch. Each hop
// is one epoch: the window starts at the posted mail, so no epoch is spent
// on taking it in.
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
		if n := g.Epochs().Epochs; n != 10 {
			t.Fatalf("10 hops in %d epochs, want one each", n)
		}
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
	g.Post(2, 0, 5, 1, rec(3)) // time 5, pri 1, src 2
	g.Post(1, 0, 7, 0, rec(5)) // time 7
	g.Post(1, 0, 5, 1, rec(2)) // time 5, pri 1, src 1
	g.Post(0, 0, 5, 2, rec(4)) // time 5, pri 2
	g.Post(0, 0, 5, 1, rec(0)) // time 5, pri 1, src 0, seq first
	g.Post(0, 0, 5, 1, rec(1)) // src 0, seq second
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

// Run leaves every shard's clock at its end, as one engine's would be, so work
// scheduled at Now() afterwards starts at the same instant on every shard;
// a shard a Stop left with an event before end stops at that event instead.
func TestShardGroupLeavesClocksAtEnd(t *testing.T) {
	engines := []*Engine{NewEngine(1), NewEngine(2)}
	g := NewShardGroup(engines, Duration(100))
	engines[0].At(5, func() { engines[0].Stop() })
	engines[0].At(8, func() {})
	engines[1].At(20, func() {})
	if end := g.Run(Forever); end != 20 {
		t.Fatalf("halted Run returned %v, want 20", end)
	}
	if engines[0].Now() != 8 || engines[1].Now() != 20 {
		t.Fatalf("clocks after a halt = %v, %v; want 8 (its pending event) and 20", engines[0].Now(), engines[1].Now())
	}
	engines[1].At(30, func() {})
	if end := g.RunAll(); end != 30 {
		t.Fatalf("RunAll returned %v, want 30", end)
	}
	for i, e := range engines {
		if e.Now() != 30 {
			t.Fatalf("shard %d clock = %v after RunAll, want 30", i, e.Now())
		}
		e.At(e.Now(), func() {})
	}
	g.RunAll()
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

	// Sixteen shards on two cores: the panicking share is claimed by
	// whichever participant gets there, and the worker still exits.
	engines = make([]*Engine, 16)
	for i := range engines {
		engines[i] = NewEngine(int64(i))
		engines[i].At(5, func() {})
	}
	engines[9].At(5, func() { panic("nine") })
	g = NewShardGroup(engines, Duration(10))
	g.SetCores(2)
	if got := run(g); got != "nine" {
		t.Fatalf("caller recovered %v, want shard 9's value", got)
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

// Hand runs its callback on the destination's worker when the mail is
// drained, between epochs — before any event of the next one, in (source
// shard, post order) — and the callback orders the work itself.
func TestShardGroupHandRunsWhenMailIsTakenIn(t *testing.T) {
	engines := []*Engine{NewEngine(1), NewEngine(2), NewEngine(3)}
	g := NewShardGroup(engines, Duration(10))
	var log []string
	rec := func(s string) { log = append(log, s) }
	hand := func(name string) func(Time, any) {
		return func(at Time, arg any) {
			rec(fmt.Sprintf("hand %s now=%d", name, engines[0].Now()))
			engines[0].AtPri(at, 1, func() { rec(fmt.Sprintf("%s at %d", name, engines[0].Now())) })
		}
	}
	engines[0].At(12, func() { rec("own event at 12") })
	engines[2].At(1, func() { g.Hand(2, 0, 14, hand("c"), nil) })
	engines[1].At(2, func() {
		g.Hand(1, 0, 15, hand("a"), nil)
		g.Hand(1, 0, 13, hand("b"), nil)
	})
	g.RunAll()
	want := []string{
		"hand a now=0", "hand b now=0", "hand c now=0", // drained before the epoch at 12 runs anything
		"own event at 12", "b at 13", "c at 14", "a at 15",
	}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("log = %q\nwant  %q", log, want)
	}
}

// Run returns with every mailbox empty: mail the last epoch addressed past
// the horizon is in its destination's engine, and the next Run delivers it.
func TestShardGroupRunLeavesNoMailBehind(t *testing.T) {
	engines := []*Engine{NewEngine(1), NewEngine(2)}
	g := NewShardGroup(engines, Duration(10))
	fired := 0
	engines[0].At(5, func() { g.Post(0, 1, 50, 1, func() { fired++ }) })
	g.Run(20)
	if engines[1].Pending() != 1 || fired != 0 {
		t.Fatalf("after Run(20): %d pending on the destination, fired %d; want the post scheduled there", engines[1].Pending(), fired)
	}
	g.RunAll()
	if fired != 1 || engines[1].Now() != 50 {
		t.Fatalf("fired %d at %v, want once at 50", fired, engines[1].Now())
	}
}

// Mail posted in the epoch a Stop halts stays buffered across the halt and is
// delivered by the next Run, at its time.
func TestShardGroupHaltKeepsMail(t *testing.T) {
	engines := []*Engine{NewEngine(1), NewEngine(2)}
	g := NewShardGroup(engines, Duration(10))
	var at Time
	engines[0].At(5, func() {
		g.Post(0, 1, 30, 1, func() { at = engines[1].Now() })
		engines[0].Stop()
	})
	g.RunAll()
	if at != 0 || engines[1].Pending() != 0 {
		t.Fatalf("halted run delivered the mail (at %v) or scheduled it (%d pending)", at, engines[1].Pending())
	}
	g.RunAll()
	if at != 30 {
		t.Fatalf("mail delivered at %v after the halt, want 30", at)
	}
}

// The coordinator reproduces the one-engine schedule: components that message
// each other — over the mailboxes when they live on different shards,
// straight onto their engine when they share one — execute exactly the same
// events at the same instants whether the group has 1, 2, 4 or 8 shards, run
// on 1, 2, 3 or 4 cores — three cores give 8 shards homes of 2, 3 and 3, and
// four cores are more participants than processors on a small box, where the
// barrier's waiting sides yield instead of spinning. Each
// component draws from its own stream and stamps its messages with its own
// priority at strictly increasing times, the fabric's rule, so (time, pri) is
// unique at every receiver. Half the components post, half hand off. Under
// `make race-sim` this is also the check that the drain and advance phases
// hand the mailboxes over cleanly.
func TestShardGroupMatchesOneEngine(t *testing.T) {
	const components, W, horizon = 8, Duration(10), Time(2000)
	run := func(shards, cores int) [][]Time {
		engines := make([]*Engine, shards)
		for i := range engines {
			engines[i] = NewEngine(int64(i))
		}
		lookahead := W
		if shards == 1 {
			lookahead = Duration(Forever)
		}
		g := NewShardGroup(engines, lookahead)
		g.SetCores(cores)
		shardOf := func(c int) int { return c % shards }
		seen := make([][]Time, components) // seen[c] is only touched by c's shard
		rngs := make([]*rand.Rand, components)
		last := make([]Time, components)
		var receive func(c int) func()
		receive = func(c int) func() {
			return func() {
				e := engines[shardOf(c)]
				seen[c] = append(seen[c], e.Now())
				if e.Now() > horizon {
					return
				}
				d := (c + 1 + rngs[c].Intn(components-1)) % components
				at := max(e.Now().Add(W+Duration(rngs[c].Int63n(int64(3*W)))), last[c]+1)
				last[c] = at
				pri := uint64(c + 1)
				switch src, dst := shardOf(c), shardOf(d); {
				case src == dst:
					engines[dst].AtPri(at, pri, receive(d))
				case c%2 == 0:
					g.Post(src, dst, at, pri, receive(d))
				default:
					fn := receive(d)
					g.Hand(src, dst, at, func(at Time, _ any) { engines[dst].AtPri(at, pri, fn) }, nil)
				}
			}
		}
		for c := range rngs {
			rngs[c] = NewStream(7, uint64(c))
			engines[shardOf(c)].AtPri(Time(c), uint64(c+1), receive(c))
		}
		g.RunAll()
		return seen
	}
	want := run(1, 1)
	total := 0
	for _, s := range want {
		total += len(s)
	}
	if total < 500 {
		t.Fatalf("only %d events: the storm is too small to check anything", total)
	}
	for _, shards := range []int{2, 4, 8} {
		for _, cores := range []int{1, 2, 3, 4} {
			got := run(shards, cores)
			for c := range want {
				if fmt.Sprint(got[c]) != fmt.Sprint(want[c]) {
					t.Fatalf("shards=%d cores=%d: component %d ran at\n%v\nwant\n%v", shards, cores, c, got[c], want[c])
				}
			}
		}
	}
}

// The barrier costs no allocation per epoch: whatever Run allocates it
// allocates once, so a two-shard ping-pong through 2 000 single-hand epochs
// allocates exactly what one through 20 does. The hands are bound once, as the
// fabric's are; Post builds a closure per call.
func TestShardGroupEpochsDoNotAllocate(t *testing.T) {
	allocs := func(hops int) float64 {
		const W = Duration(10)
		engines := []*Engine{NewEngine(1), NewEngine(2)}
		g := NewShardGroup(engines, W)
		left := 0
		var hop [2]func()
		var hand [2]func(Time, any)
		for s := range hop {
			hop[s] = func() {
				if left > 0 {
					left--
					g.Hand(s, 1-s, engines[s].Now().Add(W), hand[1-s], nil)
				}
			}
			hand[s] = func(at Time, _ any) { engines[s].AtPri(at, 1, hop[s]) }
		}
		return testing.AllocsPerRun(5, func() {
			left = hops
			engines[0].Schedule(W, hop[0])
			g.RunAll()
		})
	}
	if few, many := allocs(20), allocs(2000); few != many {
		t.Fatalf("RunAll allocates %v over 20 epochs and %v over 2000", few, many)
	}
}

package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the space-parallel shard coordinator: several engines
// — one per topology shard — advanced in lockstep epochs under conservative
// barrier synchronization. The design invariants are:
//
//   - Lookahead. Every cross-shard interaction has a minimum latency W (the
//     smallest cross-shard link propagation delay). An event executing at
//     time t can therefore only affect another shard at t+W or later.
//   - Epochs. Each epoch executes events with time in [T, T+W), where T is
//     the earliest pending event across all shards. Everything a shard does
//     inside the window lands in other shards at or after T+W, i.e. in a
//     later epoch — so shards never need to see each other mid-epoch and can
//     run on separate goroutines.
//   - Mailboxes. Cross-shard work is posted into per-(src,dst) mailboxes
//     instead of the destination's event queue. Each destination's worker
//     drains its own at the top of its next epoch, source by source in post
//     order, so the schedule order at the destination is a pure function of
//     the simulation state, not of goroutine interleaving.
//
// Determinism across shard *counts* additionally requires that no component
// observes the partition. Components therefore draw randomness from streams
// keyed by their stable identity (NewStream), never from a shared engine RNG,
// and cross-component deliveries carry a stable per-channel priority (see
// Event.pri) so same-time arrival order does not depend on which engine
// scheduled the event.

// splitmix64 is the SplitMix64 finalizer (Steele, Lea & Flood 2014) — the
// fixed mixing function the determinism contract names for deriving
// per-component RNG streams from a trial seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// StreamSeed derives the seed of an independent RNG stream from a trial seed
// and a stable component key (a switch ID, a shard index, ...). Streams are
// keyed by identity, not by draw order, so a component sees the same draws
// no matter how the topology is partitioned or how other components consume
// their own streams.
func StreamSeed(seed int64, key uint64) int64 {
	return int64(splitmix64(splitmix64(uint64(seed)) ^ key))
}

// NewStream returns a deterministic RNG for the (seed, key) stream.
func NewStream(seed int64, key uint64) *rand.Rand {
	return rand.New(rand.NewSource(StreamSeed(seed, key)))
}

// mailItem is one cross-shard post: fn(arg) to schedule on the destination
// shard at an absolute time with a same-time priority, or hand(at, arg) to run
// there when the mail is drained (Hand). A plain func() rides in arg behind
// callFunc. The source is the mailbox row, so an item carries no provenance.
type mailItem struct {
	at   Time
	pri  uint64
	fn   func(any)
	hand func(Time, any)
	arg  any
}

// callFunc runs a func() posted through Post.
func callFunc(fn any) { fn.(func())() }

// ShardGroup coordinates a set of engines that jointly simulate one
// partitioned topology. Shard(i) hands out the per-shard engines at build
// time; Run advances them all under barrier-per-epoch synchronization.
//
// Concurrency contract: an epoch is one phase, ended by one barrier. Shard
// i's share first reads and truncates column i of the retired mail bank —
// the mail addressed to it in the epoch before — and schedules it on engine
// i; then it owns engine i and everything reachable from it, and appends to
// row i of the current bank (Post, PostArg, Hand). The banks are disjoint,
// so no share reads what another is writing. Each share runs on one
// goroutine: shard i's worker, or the coordinator when it takes the share
// first. Between epochs the coordinator owns everything. The hand-offs happen through the
// generation barrier inside Run: the coordinator's store to the generation
// word hands an epoch out, a compare-and-swap on the shard's slot takes its
// share, and a decrement of the outstanding count hands it back; those
// atomic operations are the happens-before edges. No other synchronization
// exists, which is why the themis-lint purity analyzer can allowlist Run
// alone.
type ShardGroup struct {
	engines   []*Engine
	lookahead Duration
	// out[src] is shard src's outgoing mail, and bank the bank posts go to.
	// Run flips bank at each barrier, retiring the bank the last epoch
	// posted into; the next epoch drains it.
	out    []outbox
	bank   int
	epochs EpochStats // what Run has counted (see Epochs)
}

// EpochStats counts the windows Run has advanced the engines through. Work is
// the events the epochs executed and Span the sum over epochs of the busiest
// shard's share: Work/Span bounds the speed-up this partition allows on any
// number of processors.
type EpochStats struct {
	Epochs     int
	Work, Span uint64
}

// outbox is one source shard's mail: box[b][dst] buffers its posts to dst
// while bank b is current (the backing arrays are retained across epochs),
// and low is the earliest at among the current bank's posts, the one word of
// a source's mail the coordinator reads at a barrier.
type outbox struct {
	box [2][][]mailItem
	low Time
	_   [8]byte // to 64 bytes
}

// NewShardGroup assembles a coordinator over the given per-shard engines.
// The lookahead must be a positive lower bound on every cross-shard
// interaction latency; Forever is the correct value when no cross-shard
// links exist (the single epoch then spans the whole run).
func NewShardGroup(engines []*Engine, lookahead Duration) *ShardGroup {
	if len(engines) == 0 {
		panic("sim: shard group needs at least one engine")
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: shard lookahead must be positive, got %v", lookahead))
	}
	out := make([]outbox, len(engines))
	for src := range out {
		o := &out[src]
		o.box = [2][][]mailItem{make([][]mailItem, len(engines)), make([][]mailItem, len(engines))}
		o.low = Forever
	}
	return &ShardGroup{engines: engines, lookahead: lookahead, out: out}
}

// Shards returns the number of shards in the group.
func (g *ShardGroup) Shards() int { return len(g.engines) }

// Shard returns shard i's engine.
func (g *ShardGroup) Shard(i int) *Engine { return g.engines[i] }

// Post queues fn to run on shard dst at absolute time at. It must be called
// from shard src's worker during an epoch (or from the build phase before
// Run), and at must be at least one lookahead past the posting instant —
// the drain panics via Engine.schedule otherwise, which is exactly the
// violation a too-optimistic lookahead would cause.
func (g *ShardGroup) Post(src, dst int, at Time, pri uint64, fn func()) {
	g.PostArg(src, dst, at, pri, callFunc, fn)
}

// PostArg is the arg-carrying analogue of Post; see Engine.AtArg.
func (g *ShardGroup) PostArg(src, dst int, at Time, pri uint64, fn func(any), arg any) {
	g.post(src, dst, mailItem{at: at, pri: pri, fn: fn, arg: arg})
}

// Hand queues hand(at, arg) to run on shard dst's worker when it drains its
// mail — in drain order, before any event of the next epoch — instead of
// scheduling an event at at. It is for work the destination orders itself:
// the receiving end of a link pushes the packet onto its own propagation
// pipe, which keeps one pending event per link however many packets are on
// the wire. hand must schedule nothing before at; the other rules are Post's.
func (g *ShardGroup) Hand(src, dst int, at Time, hand func(Time, any), arg any) {
	g.post(src, dst, mailItem{at: at, hand: hand, arg: arg})
}

func (g *ShardGroup) post(src, dst int, it mailItem) {
	o := &g.out[src]
	o.box[g.bank][dst] = append(o.box[g.bank][dst], it) //lint:alloc-ok mailbox growth is amortized; backing arrays are retained across epochs
	o.low = min(o.low, it.at)
}

// drain moves the retired bank's mail addressed to dst into dst's engine:
// source by source in shard order, each source's posts in the order they were
// made. The engine orders events by (time, pri) and then by when they were
// scheduled, so the drain order decides only ties at equal (time, pri), and
// breaks them by (source shard, post order) — a function of the traffic, not
// of goroutine interleaving, and the order a (time, pri, source, sequence)
// sort would give. Hand callbacks run in the same order. drain touches only
// column dst and dst's engine: each destination's worker drains its own mail.
func (g *ShardGroup) drain(dst int) {
	eng := g.engines[dst]
	for src := range g.out {
		box := g.out[src].box[g.bank^1][dst]
		if len(box) == 0 {
			continue // write nothing: the row's other columns share this line
		}
		for i := range box {
			if it := &box[i]; it.hand != nil {
				it.hand(it.at, it.arg)
			} else {
				eng.AtArgPri(it.at, it.pri, it.fn, it.arg)
			}
		}
		g.out[src].box[g.bank^1][dst] = box[:0]
	}
}

// Epochs returns what Run has counted of its epochs so far.
func (g *ShardGroup) Epochs() EpochStats { return g.epochs }

// Metrics returns the group's counter block: every shard engine's metrics
// folded together with Metrics.Merge.
func (g *ShardGroup) Metrics() Metrics {
	var m Metrics
	for _, e := range g.engines {
		m.Merge(e.Metrics())
	}
	return m
}

// Run advances every shard to until under conservative barrier-per-epoch
// synchronization and returns the latest shard clock. A Stop on any shard's
// engine halts the whole group at the next barrier (the stop flags are
// consumed, mirroring Engine.Run); cross-shard mail pending at a halt stays
// buffered and is delivered by the next Run; at until, the coordinator
// schedules the pending mail on its destinations before returning.
//
// An epoch is one phase: every shard takes in the retired bank's mail
// addressed to it, then advances its engine through [T, T+W), where T is the
// earliest of the engines' heads and the retired bank's posts. A post's event
// is scheduled at its at, and a Hand pushes onto a pipe whose head is at or
// before at, so no event the mail brings in precedes T. With one shard the
// epoch runs inline on the calling goroutine and with no mail that
// degenerates to exactly Engine.Run(until): a single epoch bounded by until,
// identical event order, identical metrics.
//
// An epoch is handed out through a generation barrier that never blocks a
// thread: the coordinator publishes the window and bumps an atomic generation,
// each worker polls it, takes and runs its shard's share and decrements an
// atomic count of shares outstanding, which the coordinator polls down to
// zero after running shard 0's share and every share no worker has taken
// yet. Waking a parked thread costs hundreds of microseconds on a small VM —
// a large slice of an epoch — so a waiting side spins on the word before it
// starts yielding its processor between polls, and yields at once when the
// group has more shards than processors to run them.
//
// An event callback that panics on a worker is recovered there, carried
// across the barrier and re-raised here on the calling goroutine once every
// worker has exited, so the caller's recover sees it like a panic out of
// Engine.Run (the lowest panicking shard's value when several do). The
// group's state past that point is whatever the interrupted epoch left.
//
// This is — alongside exp.Runner.Run — one of exactly two concurrent symbols
// in the deterministic core. The themis-lint purity analyzer allowlists it
// by name, which is why every goroutine, atomic and barrier lives lexically
// inside this one function.
func (g *ShardGroup) Run(until Time) Time {
	n := len(g.engines)
	// ctl is what the coordinator hands the workers, alone on one cache line
	// so that taking an epoch and handing it back moves as few lines between
	// cores as possible. The plain fields are ordered by the atomics: the
	// coordinator writes limit and the group's bank before its store to gen,
	// which a worker loads before it takes its share and reads them; whoever
	// ran a share wrote its engine, its state slot, its outbox and any panic
	// before its decrement of left, which the coordinator loads before
	// reading them.
	var ctl struct {
		limit  Time
		gen    atomic.Uint32
		left   atomic.Int32
		closed atomic.Bool
		_      [47]byte // to 64 bytes
	}
	// state[i] is what the coordinator reads of shard i's engine at a
	// barrier, recorded by whichever goroutine ran shard i's share, and
	// taken, the last generation whose share of shard i someone took. Each
	// sits on a cache line of its own, so the coordinator reads one line per
	// shard instead of the engine lines the shard's worker just wrote.
	type shardState struct {
		next     Time   // the engine's earliest pending event
		executed uint64 // the engine's EventsExecuted
		taken    atomic.Uint32
		stopped  bool     // a pending Stop
		_        [43]byte // to 64 bytes
	}
	state := make([]shardState, n)
	panics := make([]any, n)
	note := func(i int) {
		e, s := g.engines[i], &state[i]
		s.next, s.executed, s.stopped = e.nextTime(), e.metrics.EventsExecuted, e.stopped
	}
	// share runs shard i's part of the epoch and hands it back: the mail
	// addressed to it first, then the window.
	share := func(i int) {
		func() {
			defer func() {
				if p := recover(); p != nil {
					panics[i] = p
				}
			}()
			g.drain(i)
			g.engines[i].AdvanceTo(ctl.limit)
			note(i)
		}()
		ctl.left.Add(-1)
	}
	// spins is how many times a waiting side polls before it yields between
	// polls. With a processor per shard the other side is usually running
	// and answers within the budget; with more shards than processors it may
	// be the one waiting for this processor, so yield from the first poll.
	spins := 0
	if n <= runtime.GOMAXPROCS(0) {
		spins = 4096
	}
	await := func(ready func() bool) {
		for i := 0; !ready(); i++ {
			if i >= spins {
				runtime.Gosched()
			}
		}
	}
	finished := func() bool { return ctl.left.Load() == 0 }
	var workers sync.WaitGroup
	if n > 1 {
		workers.Add(n - 1)
		for i := 1; i < n; i++ {
			go func(i int) {
				defer workers.Done()
				var seen uint32
				bumped := func() bool { return ctl.gen.Load() != seen }
				for {
					await(bumped)
					// Generation seen hands out one share per shard; the
					// coordinator takes this one itself when it gets there
					// first, and the bump after it waits for that share.
					// Check closed after loading seen: the closing bump
					// comes after the store to closed.
					seen = ctl.gen.Load()
					if ctl.closed.Load() {
						return
					}
					if state[i].taken.CompareAndSwap(seen-1, seen) {
						share(i)
					}
				}
			}(i)
		}
		// Every return path, the re-raised panic included, leaves no worker
		// behind: it happens at a barrier, with every share handed back.
		defer func() {
			ctl.closed.Store(true)
			ctl.gen.Add(1)
			workers.Wait()
		}()
	}
	// run executes one epoch on every shard and returns at the barrier. The
	// calling goroutine runs shard 0's share, then every share whose worker
	// has not taken it yet: a worker that is not running — its thread not yet
	// woken, or its processor taken by the host — would otherwise hold up
	// the barrier for longer than the share takes to run here.
	run := func() {
		ctl.left.Store(int32(n))
		gen := ctl.gen.Add(1)
		share(0)
		for i := 1; i < n; i++ {
			if state[i].taken.Load() == gen-1 && state[i].taken.CompareAndSwap(gen-1, gen) {
				share(i)
			}
		}
		await(finished)
		for _, p := range panics {
			if p != nil {
				panic(p)
			}
		}
	}
	ran := make([]uint64, n) // each shard's executed count at the last barrier
	for i := range state {
		note(i)
		ran[i] = state[i].executed
	}
	for {
		// Barrier state: every worker is polling gen, so the coordinator
		// owns all engine and mailbox state here, and state is current.
		halted, next := false, Forever
		for i := range state {
			halted = halted || state[i].stopped
			next = min(next, state[i].next, g.out[i].low)
		}
		if halted {
			break
		}
		// Retire the bank the last epoch posted into: the next epoch drains
		// it and posts into the other.
		g.bank ^= 1
		for i := range g.out {
			if g.out[i].low != Forever {
				g.out[i].low = Forever // only if set: the workers read this line
			}
		}
		if next == Forever || next > until {
			for i := range g.engines {
				g.drain(i)
			}
			break
		}
		// The epoch executes [next, next+W); AdvanceTo is inclusive, so the
		// limit is one tick short of the window end (saturating near
		// Forever), and never past until.
		limit := Forever
		if g.lookahead < Duration(Forever-next) {
			limit = next.Add(g.lookahead) - 1
		}
		ctl.limit = min(limit, until)
		g.epochs.Epochs++
		run()
		var busiest uint64
		for i := range state {
			d := state[i].executed - ran[i]
			ran[i] = state[i].executed
			g.epochs.Work += d
			busiest = max(busiest, d)
		}
		g.epochs.Span += busiest
	}
	var end Time
	for _, e := range g.engines {
		e.stopped = false // consume the halt, as Engine.Run does
		if e.now > end {
			end = e.now
		}
	}
	return end
}

// RunAll advances the group until every shard's queue drains (or a Stop
// halts it).
func (g *ShardGroup) RunAll() Time { return g.Run(Forever) }

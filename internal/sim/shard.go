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
//   - Mail. Cross-shard work is handed into per-(src,dst) boxes instead of
//     the destination's event queue. Each destination's worker drains its own
//     at the top of its next epoch, source by source in the order the hands
//     were made, so the schedule order at the destination is a pure function
//     of the simulation state, not of goroutine interleaving.
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

// handItem is one Hand: hand(at, arg) to run on the destination shard when
// its mail is drained. The source is the box's row, so an item carries no
// provenance.
type handItem struct {
	at   Time
	hand func(Time, any)
	arg  any
}

// ShardGroup coordinates a set of engines that jointly simulate one
// partitioned topology. Shard(i) hands out the per-shard engines at build
// time; Run advances them all under barrier-per-epoch synchronization.
//
// Concurrency contract: an epoch is one phase, ended by one barrier. Shard
// i's share first reads and truncates column i of the retired mail bank —
// the hands addressed to it in the epoch before — and runs them on engine i;
// then it owns engine i and everything reachable from it, and appends to row
// i of the current bank (Hand). The banks are disjoint, so no share reads
// what another is writing. Each share runs on one goroutine: whichever of
// Run's participants claimed it, nearly always the one whose home holds it. Between epochs the coordinator owns everything.
// The hand-offs happen through the barrier inside Run: the coordinator's
// store to a home word hands that home's shares out, a compare-and-swap on
// it claims one, and a decrement of the outstanding count hands it back;
// those atomic operations are the happens-before edges. No other
// synchronization exists, which is why the themis-lint purity analyzer can
// allowlist Run alone.
type ShardGroup struct {
	engines   []*Engine
	lookahead Duration
	cores     int // the processors Run may occupy; 0 means GOMAXPROCS
	// out[src] is shard src's outgoing mail, and bank the bank hands go to.
	// Run flips bank at each barrier, retiring the bank the last epoch
	// handed into; the next epoch drains it.
	out    []outbox
	bank   int
	epochs EpochStats // what Run has counted (see Epochs)
}

// EpochStats counts the windows Run has advanced the engines through. Work is
// the events the epochs executed and Span the sum over epochs of the busiest
// shard's share: Work/Span bounds the speed-up this partition allows on any
// number of processors. Those three are exact; Steals, the shares run off
// their participant's home (see Run), depends on timing and is never
// serialized.
type EpochStats struct {
	Epochs     int
	Work, Span uint64
	Steals     uint64
}

// outbox is one source shard's mail: hand[b][dst] buffers its hands to dst
// while bank b is current (the backing arrays are retained across epochs),
// and low is the earliest at among the current bank's mail, the one word of a
// source's mail the coordinator reads at a barrier.
type outbox struct {
	hand [2][][]handItem
	low  Time
	_    [8]byte // to 64 bytes
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
		o.hand = [2][][]handItem{make([][]handItem, len(engines)), make([][]handItem, len(engines))}
		o.low = Forever
	}
	return &ShardGroup{engines: engines, lookahead: lookahead, out: out}
}

// Shards returns the number of shards in the group.
func (g *ShardGroup) Shards() int { return len(g.engines) }

// Shard returns shard i's engine.
func (g *ShardGroup) Shard(i int) *Engine { return g.engines[i] }

// SetCores bounds the processors Run occupies: an epoch's shares run on the
// calling goroutine and at most cores-1 workers. 0, the default, means
// GOMAXPROCS; a trial that shares the machine with others passes its share.
// How finely the fabric is cut is the engine count, a separate choice.
func (g *ShardGroup) SetCores(cores int) { g.cores = cores }

// Bank returns which of the two mail banks is current: mail made while it
// reads b is drained in the epoch after, while it reads b^1. A source that
// batches its own cross-shard traffic double-buffers it on this bit and
// hands the batch over once (Hand), so the destination reads one buffer
// while the source fills the other.
func (g *ShardGroup) Bank() int { return g.bank }

// Post queues fn to run on shard dst at time at, same-time priority pri: a
// Hand that schedules it, with a closure built per call. The rules are Hand's;
// pri must fit 32 bits, as AtPri's, and a wider one panics here, at the post.
func (g *ShardGroup) Post(src, dst int, at Time, pri uint64, fn func()) {
	narrowPri(pri)
	eng := g.engines[dst]
	g.Hand(src, dst, at, func(at Time, _ any) { eng.AtPri(at, pri, fn) }, nil)
}

// Hand queues hand(at, arg) to run on shard dst's worker when it drains its
// mail — in drain order, before any event of the next epoch. The destination
// orders the work itself: a cut link's receiving end pushes the packets staged
// for it (see Bank) onto its own pipe, and a PFC pause frame schedules itself.
// Call it from shard src's worker during an epoch (or from the build phase
// before Run); at must be at least one lookahead past now, and hand must
// schedule nothing before at — Engine.schedule panics otherwise, which is
// exactly the violation a too-optimistic lookahead would cause.
func (g *ShardGroup) Hand(src, dst int, at Time, hand func(Time, any), arg any) {
	o := &g.out[src]
	box := o.hand[g.bank]
	box[dst] = append(box[dst], handItem{at: at, hand: hand, arg: arg}) //lint:alloc-ok mailbox growth is amortized; backing arrays are retained across epochs
	o.low = min(o.low, at)
}

// drain runs the retired bank's hands addressed to dst on dst's worker, source
// by source in shard order, each source's in the order they were made. The
// engine orders events by (time, pri), then by insertion, so this decides only
// ties at equal (time, pri), and breaks them by (source, hand order): a
// function of the traffic, not of goroutine interleaving. A source's PFC pause
// frames interleave with its links' hands and tie none of their events: each
// priority the fabric's mail schedules at belongs to one channel (a link's
// bursts 2·chanID, the pause frames to its queue 2·chanID+1, sent only by the
// switch at its far end), whose mail one source makes, in order. drain
// touches only column dst and dst's engine.
func (g *ShardGroup) drain(dst int) {
	b := g.bank ^ 1
	for src := range g.out {
		o := &g.out[src]
		// Write a box back only if it held mail: the row's other columns
		// share its line.
		if hands := o.hand[b][dst]; len(hands) > 0 {
			for i := range hands {
				h := &hands[i]
				h.hand(h.at, h.arg)
			}
			o.hand[b][dst] = hands[:0]
		}
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
// synchronization and returns the latest shard clock, end, which every
// shard's clock then reads (or its earliest pending event, if a Stop left one
// before end). A Stop on any shard's engine halts the whole group at the next
// barrier (the stop flags are consumed, mirroring Engine.Run); cross-shard
// mail pending at a halt stays buffered and is delivered by the next Run; at
// until, the coordinator schedules the pending mail on its destinations
// before returning.
//
// An epoch is one phase: every shard takes in the retired bank's mail
// addressed to it, then advances its engine through [T, T+W), where T is the
// earliest of the engines' heads and the retired bank's hands. A hand
// schedules nothing before its at, so no event the mail brings in precedes T. With one shard the
// epoch runs inline on the calling goroutine and with no mail that
// degenerates to exactly Engine.Run(until): a single epoch bounded by until,
// identical event order, identical metrics.
//
// An epoch's shares run on w = min(shards, cores) participants (SetCores):
// the calling goroutine (participant 0) and w-1 workers. The coordinator
// publishes the window and stores each participant's home, the shards
// [p·n/w, (p+1)·n/w); a participant claims its home's shares from the front,
// then steals the other homes' from the back, and hands each back by
// decrementing an atomic count of shares outstanding, which the coordinator
// polls down to zero once it can claim no more. A share costs a
// compare-and-swap, not a goroutine, so the fabric can be cut finer than
// there are processors: a shard's events for one window run together, stay
// in cache, and run on the core that ran them the epoch before; a thief
// takes what the owner would reach last. The handout never blocks a thread.
// Waking a parked thread costs hundreds of microseconds on a small VM — a
// large slice of an epoch — so a waiting side spins on the word before it
// starts yielding its processor between polls, and yields at once when there
// are more participants than processors to run them.
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
	cores := g.cores
	if cores < 1 {
		cores = runtime.GOMAXPROCS(0)
	}
	w := min(n, cores)
	// ctl is what the coordinator hands the participants, alone on one cache
	// line so that taking an epoch and handing it back moves as few lines
	// between cores as possible. The plain fields are ordered by the atomics:
	// the coordinator writes limit and the group's bank before its stores to
	// the home words, which a participant's claim reads before it reads them;
	// whoever ran a share wrote its engine, its state slot, its outbox, any
	// panic and its steal before its decrement of left, which the coordinator
	// loads before reading them.
	var ctl struct {
		limit  Time
		gen    atomic.Uint32 // bumped once an epoch's homes are stored
		left   atomic.Int32  // the shares not yet handed back
		steals atomic.Uint64 // shares run off their home in this Run
		closed atomic.Bool
		_      [36]byte // to 64 bytes
	}
	// homes[p] is participant p's unclaimed run of shards, front<<32 | back,
	// on a cache line of its own: its owner claims front, a thief back-1.
	type home struct {
		run atomic.Uint64
		_   [56]byte
	}
	homes := make([]home, w)
	// state[i] is what the coordinator reads of shard i's engine at a
	// barrier, recorded by whoever ran shard i's share, on a cache line of
	// its own, so the coordinator reads one line per shard instead of the
	// engine lines the share just wrote.
	type shardState struct {
		next     Time   // the engine's earliest pending event
		executed uint64 // the engine's EventsExecuted
		stopped  bool   // a pending Stop
		_        [47]byte
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
	// take claims a share of home h, its front for the owner and its back
	// for a thief, or returns -1 when the home is empty.
	take := func(h int, own bool) int {
		for {
			r := homes[h].run.Load()
			front, back := int(r>>32), int(uint32(r))
			if front >= back {
				return -1
			}
			i, claimed := back-1, r-1
			if own {
				i, claimed = front, r+1<<32
			}
			if homes[h].run.CompareAndSwap(r, claimed) {
				return i
			}
		}
	}
	// claim runs participant p's shares until the epoch has none left to
	// hand out: its home's, then the other homes' in order p+1, p+2, ... A
	// participant still claiming when the next epoch is handed out claims
	// from it, which is as good: its compare-and-swap reads the
	// coordinator's store of the home word, which orders the new window
	// before the share.
	claim := func(p int) {
		for i := take(p, true); i >= 0; i = take(p, true) {
			share(i)
		}
		for k := 1; k < w; k++ {
			h := (p + k) % w
			for i := take(h, false); i >= 0; i = take(h, false) {
				ctl.steals.Add(1)
				share(i)
			}
		}
	}
	// spins is how many times a waiting side polls before it yields between
	// polls. With a processor per participant the other side is usually
	// running and answers within the budget; with more participants than
	// processors it may be the one waiting for this processor, so yield from
	// the first poll.
	spins := 0
	if w <= runtime.GOMAXPROCS(0) {
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
	if w > 1 {
		workers.Add(w - 1)
		for p := 1; p < w; p++ {
			go func() {
				defer workers.Done()
				var seen uint32 // the last epoch handed out that p claimed from
				handedOut := func() bool { return ctl.gen.Load() != seen || ctl.closed.Load() }
				for {
					await(handedOut)
					if ctl.closed.Load() {
						return
					}
					seen = ctl.gen.Load()
					claim(p)
				}
			}()
		}
		// Every return path, the re-raised panic included, leaves no worker
		// behind: it happens at a barrier, with every share handed back.
		defer func() {
			ctl.closed.Store(true)
			workers.Wait()
		}()
	}
	// run executes one epoch on every shard and returns at the barrier. The
	// calling goroutine claims shares like any worker: one that is not
	// running — its thread not yet woken, or its processor taken by the host
	// — holds up only the share it is in, never one it has not claimed.
	run := func() {
		ctl.left.Store(int32(n))
		for p := range homes {
			lo, hi := homeRun(p, n, w)
			homes[p].run.Store(uint64(lo)<<32 | uint64(hi))
		}
		ctl.gen.Add(1)
		claim(0)
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
		// Retire the bank the last epoch handed into: the next epoch drains
		// it and hands into the other.
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
		g.epochs.Steals += ctl.steals.Swap(0)
	}
	var end Time
	for _, e := range g.engines {
		e.stopped = false // consume the halt, as Engine.Run does
		end = max(end, e.now)
	}
	// Every clock reads end, as the one engine of an uncut run does, so work
	// injected after Run starts at the same instant at any shard count. A
	// Stop can leave a shard's event before end; that clock stops at it.
	for _, e := range g.engines {
		e.idleTo(end)
	}
	return end
}

// homeRun is participant p's home among w over n shards. The homes tile
// [0, n) in order, differ in size by at most one, and home 0 is a smallest:
// its owner also keeps the barrier's books.
func homeRun(p, n, w int) (lo, hi int) { return p * n / w, (p + 1) * n / w }

// RunAll advances the group until every shard's queue drains (or a Stop
// halts it).
func (g *ShardGroup) RunAll() Time { return g.Run(Forever) }

package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
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
//     instead of the destination's event queue. The coordinator drains them
//     between epochs in sorted (time, pri, src, seq) order, so the schedule
//     order at the destination is a pure function of the simulation state,
//     not of goroutine interleaving.
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

// mailItem is one cross-shard post: a callback to schedule on the
// destination shard at an absolute time. src and seq record provenance for
// the deterministic drain order.
type mailItem struct {
	at    Time
	pri   uint64
	src   int
	seq   uint64
	fn    func()
	fnArg func(any)
	arg   any
}

// ShardGroup coordinates a set of engines that jointly simulate one
// partitioned topology. Shard(i) hands out the per-shard engines at build
// time; Run advances them all under barrier-per-epoch synchronization.
//
// Concurrency contract: during an epoch, shard i's worker goroutine owns
// engine i and everything reachable from it, and may append to mail[i][*]
// via Post/PostArg. Between epochs the coordinator owns everything. The
// hand-offs happen through the barrier channels inside Run, which provide
// the happens-before edges; no other synchronization exists, which is why
// the themis-lint purity analyzer can allowlist Run alone.
type ShardGroup struct {
	engines   []*Engine
	lookahead Duration
	// mail[src][dst] buffers cross-shard posts made during an epoch. Only
	// shard src's worker appends to row src, and only between-epoch
	// coordinator code reads or truncates it.
	mail    [][][]mailItem
	seq     []uint64   // per-source post counters (drain tie-breaker)
	scratch []mailItem // coordinator-only drain buffer, reused across epochs
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
	mail := make([][][]mailItem, len(engines))
	for i := range mail {
		mail[i] = make([][]mailItem, len(engines))
	}
	return &ShardGroup{
		engines:   engines,
		lookahead: lookahead,
		mail:      mail,
		seq:       make([]uint64, len(engines)),
	}
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
	g.post(dst, mailItem{at: at, pri: pri, src: src, fn: fn})
}

// PostArg is the arg-carrying analogue of Post; see Engine.AtArg.
func (g *ShardGroup) PostArg(src, dst int, at Time, pri uint64, fn func(any), arg any) {
	g.post(dst, mailItem{at: at, pri: pri, src: src, fnArg: fn, arg: arg})
}

func (g *ShardGroup) post(dst int, it mailItem) {
	it.seq = g.seq[it.src]
	g.seq[it.src]++
	g.mail[it.src][dst] = append(g.mail[it.src][dst], it) //lint:alloc-ok mailbox growth is amortized; backing arrays are retained across epochs
}

// drainMail moves every buffered cross-shard post into its destination
// engine, in (time, pri, src, seq) order per destination. The sort key is a
// total order (src+seq is unique), so the schedule order — and through it
// the destination's seq tie-breaker — is deterministic.
func (g *ShardGroup) drainMail() {
	for dst := range g.engines {
		g.scratch = g.scratch[:0]
		for src := range g.engines {
			g.scratch = append(g.scratch, g.mail[src][dst]...)
			g.mail[src][dst] = g.mail[src][dst][:0]
		}
		if len(g.scratch) == 0 {
			continue
		}
		sort.Slice(g.scratch, func(i, j int) bool {
			a, b := g.scratch[i], g.scratch[j]
			if a.at != b.at {
				return a.at < b.at
			}
			if a.pri != b.pri {
				return a.pri < b.pri
			}
			if a.src != b.src {
				return a.src < b.src
			}
			return a.seq < b.seq
		})
		eng := g.engines[dst]
		for i := range g.scratch {
			it := &g.scratch[i]
			if it.fn != nil {
				eng.AtPri(it.at, it.pri, it.fn)
			} else {
				eng.AtArgPri(it.at, it.pri, it.fnArg, it.arg)
			}
		}
	}
}

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
// buffered and is delivered by the next Run.
//
// With one shard and no mail this degenerates to exactly Engine.Run(until):
// a single epoch bounded by until, identical event order, identical metrics.
//
// An event callback that panics on a worker is recovered there, carried
// across the barrier and re-raised here on the calling goroutine once every
// worker has exited, so the caller's recover sees it like a panic out of
// Engine.Run (the lowest panicking shard's value when several do). The
// group's state past that point is whatever the interrupted epoch left.
//
// This is — alongside exp.Runner.Run — one of exactly two concurrent symbols
// in the deterministic core. The themis-lint purity analyzer allowlists it
// by name, which is why every goroutine, channel and barrier lives lexically
// inside this one function.
func (g *ShardGroup) Run(until Time) Time {
	n := len(g.engines)
	cmd := make([]chan Time, n)
	done := make(chan int, n)
	// panics[i] is written by worker i before its done send and read by the
	// coordinator after the barrier.
	panics := make([]any, n)
	var workers sync.WaitGroup
	workers.Add(n)
	for i := 0; i < n; i++ {
		cmd[i] = make(chan Time)
		go func(i int) {
			defer workers.Done()
			for limit := range cmd[i] {
				func() {
					defer func() { panics[i] = recover() }()
					g.engines[i].AdvanceTo(limit)
				}()
				done <- i
			}
		}(i)
	}
	// Every return path, the re-raised panic included, leaves no worker behind.
	defer func() {
		for i := 0; i < n; i++ {
			close(cmd[i])
		}
		workers.Wait()
	}()
	for {
		// Barrier state: every worker is idle blocking on cmd, so the
		// coordinator owns all engine and mailbox state here.
		halted := false
		for _, e := range g.engines {
			if e.stopped {
				halted = true
			}
		}
		if halted {
			break
		}
		g.drainMail()
		next := Forever
		for _, e := range g.engines {
			if t := e.nextTime(); t < next {
				next = t
			}
		}
		if next == Forever || next > until {
			break
		}
		// The epoch executes [next, next+W); AdvanceTo is inclusive, so the
		// limit is one tick short of the window end (saturating near
		// Forever), and never past until.
		limit := Forever
		if g.lookahead < Duration(Forever-next) {
			limit = next.Add(g.lookahead) - 1
		}
		if limit > until {
			limit = until
		}
		for i := 0; i < n; i++ {
			cmd[i] <- limit
		}
		for i := 0; i < n; i++ {
			<-done
		}
		for _, p := range panics {
			if p != nil {
				panic(p)
			}
		}
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

// Package collective implements the communication schedules of the paper's
// workloads: ring Allreduce and Alltoall (§5). The schedulers are transport
// agnostic — they drive an abstract Mesh of reliable connections, which the
// experiment harness (internal/workload) backs with simulated RDMA QPs.
package collective

import (
	"fmt"
	"strings"
)

// Conn is one reliable, ordered, unidirectional connection between two group
// members (one RDMA QP in practice).
type Conn interface {
	// Send posts a message; sentDone fires when the last byte is
	// acknowledged at the sender.
	Send(bytes int64, sentDone func())
	// NotifyRecv registers fn to fire when the cumulative bytes delivered
	// in order at the receiver reach threshold. Thresholds must be posted
	// in non-decreasing order per connection; if the threshold has already
	// been crossed, fn fires immediately.
	NotifyRecv(threshold int64, fn func())
}

// Mesh provides connections between group ranks.
type Mesh interface {
	// Conn returns the connection from rank src to rank dst (src != dst).
	Conn(src, dst int) Conn
}

// Pattern names a collective schedule.
type Pattern int

const (
	// RingAllreduce is the bandwidth-optimal ring: 2(G-1) steps of S/G.
	RingAllreduce Pattern = iota
	// AllToAll is a full personalized exchange: G-1 messages of S/G.
	AllToAll
)

// patternNames is the mnemonic table behind String, ParsePattern and
// PatternNames.
var patternNames = [...]string{RingAllreduce: "allreduce", AllToAll: "alltoall"}

// String returns the pattern mnemonic.
func (p Pattern) String() string {
	if p < 0 || int(p) >= len(patternNames) {
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
	return patternNames[p]
}

// PatternNames returns the mnemonics joined by "|", for flag help and errors.
func PatternNames() string { return strings.Join(patternNames[:], "|") }

// ParsePattern is the inverse of Pattern.String.
func ParsePattern(s string) (Pattern, error) {
	for p, name := range patternNames {
		if name == s {
			return Pattern(p), nil
		}
	}
	return 0, fmt.Errorf("unknown pattern %q (%s)", s, PatternNames())
}

// Run executes the pattern over a group of size g exchanging totalBytes,
// invoking onDone once every member has finished all sends and receives.
func Run(p Pattern, mesh Mesh, g int, totalBytes int64, onDone func()) {
	switch p {
	case RingAllreduce:
		RunRingAllreduce(mesh, g, totalBytes, onDone)
	case AllToAll:
		RunAllToAll(mesh, g, totalBytes, onDone)
	default:
		panic(fmt.Sprintf("collective: unknown pattern %d", int(p)))
	}
}

// chunkSize splits totalBytes across g chunks, rounding up so every chunk
// carries at least one byte.
func chunkSize(totalBytes int64, g int) int64 {
	c := (totalBytes + int64(g) - 1) / int64(g)
	if c < 1 {
		c = 1
	}
	return c
}

// RunRingAllreduce schedules a ring Allreduce over g ranks: 2(g-1) steps; in
// each step every rank sends a chunk of totalBytes/g to its ring successor,
// and a rank may start step s+1 only after receiving the step-s chunk from
// its predecessor (the data dependency of reduce-scatter/allgather).
// A group of one completes immediately.
func RunRingAllreduce(mesh Mesh, g int, totalBytes int64, onDone func()) {
	if g < 1 {
		panic("collective: group size must be >= 1")
	}
	steps := 2 * (g - 1)
	if steps == 0 {
		if onDone != nil {
			onDone()
		}
		return
	}
	chunk := chunkSize(totalBytes, g)
	remaining := g * steps * 2 // a send-ack and a receive per rank per step
	finish := func() {
		remaining--
		if remaining == 0 && onDone != nil {
			onDone()
		}
	}
	for rank := 0; rank < g; rank++ {
		rank := rank
		succ := mesh.Conn(rank, (rank+1)%g)
		pred := mesh.Conn((rank+g-1)%g, rank)
		// Post the first send immediately; later sends chain off receives.
		succ.Send(chunk, finish)
		for s := 1; s < steps; s++ {
			s := s
			pred.NotifyRecv(int64(s)*chunk, func() {
				finish() // receive s-1 done
				succ.Send(chunk, finish)
			})
		}
		// The final step's receive.
		pred.NotifyRecv(int64(steps)*chunk, finish)
	}
}

// RunAllToAll schedules a full personalized exchange: every rank sends
// totalBytes/g to each of the other g-1 ranks, all messages posted up front
// (as NCCL's alltoall does). Completion requires every send acknowledged and
// every receive fully delivered.
func RunAllToAll(mesh Mesh, g int, totalBytes int64, onDone func()) {
	if g < 1 {
		panic("collective: group size must be >= 1")
	}
	if g == 1 {
		if onDone != nil {
			onDone()
		}
		return
	}
	chunk := chunkSize(totalBytes, g)
	remaining := g * (g - 1) * 2 // send-ack + receive per ordered pair
	finish := func() {
		remaining--
		if remaining == 0 && onDone != nil {
			onDone()
		}
	}
	for src := 0; src < g; src++ {
		for off := 1; off < g; off++ {
			dst := (src + off) % g
			mesh.Conn(src, dst).Send(chunk, finish)
			mesh.Conn(src, dst).NotifyRecv(chunk, finish)
		}
	}
}

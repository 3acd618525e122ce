// Package trace records simulation events into a bounded in-memory ring for
// debugging and for the packet-level walkthroughs in the examples. Recording
// is zero-cost when no tracer is installed (a nil *Tracer is safe to call).
//
// Events capture the life of a packet through the fabric — injection,
// switch hops, queueing decisions, ECN marks, drops — and the Themis
// middleware's verdicts (blocked / forwarded / compensated), which is
// exactly the evidence one needs to audit a NACK classification after the
// fact.
package trace

import (
	"fmt"

	"themis/internal/packet"
	"themis/internal/sim"
)

// Op enumerates traced operations.
type Op uint8

const (
	// HostTx: a host injected a packet into its access link.
	HostTx Op = iota
	// SwEnq: a switch queued a packet on an egress port.
	SwEnq
	// SwTx: a packet started serializing out of a port.
	SwTx
	// Mark: a packet got CE-marked.
	Mark
	// Drop: a packet was dropped (buffer, loss injection or dead link).
	Drop
	// Deliver: a packet reached its destination host.
	Deliver
	// NackBlocked: Themis-D blocked an invalid NACK.
	NackBlocked
	// NackForwarded: Themis-D validated and forwarded a NACK.
	NackForwarded
	// Compensate: Themis-D generated a compensation NACK.
	Compensate
	// Spray: Themis-S steered a data packet.
	Spray
	// FaultLinkDown: a fault injector (or operator) took a link down.
	FaultLinkDown
	// FaultLinkUp: a downed link was repaired.
	FaultLinkUp
	// FaultReset: a ToR middleware lost its state (simulated reboot).
	FaultReset

	// lastOp marks the end of the Op space for iteration; keep it after the
	// final real op.
	lastOp
)

// String returns the op mnemonic.
func (o Op) String() string {
	switch o {
	case HostTx:
		return "host-tx"
	case SwEnq:
		return "sw-enq"
	case SwTx:
		return "sw-tx"
	case Mark:
		return "mark"
	case Drop:
		return "drop"
	case Deliver:
		return "deliver"
	case NackBlocked:
		return "nack-blocked"
	case NackForwarded:
		return "nack-fwd"
	case Compensate:
		return "compensate"
	case Spray:
		return "spray"
	case FaultLinkDown:
		return "fault-down"
	case FaultLinkUp:
		return "fault-up"
	case FaultReset:
		return "fault-reset"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// IsFault reports whether the op is a fault event (no packet fields).
func (o Op) IsFault() bool { return o >= FaultLinkDown && o < lastOp }

// ParseOp is the inverse of Op.String: it resolves a mnemonic (or the
// "Op(N)" fallback form String produces for out-of-range values) back to the
// Op. The JSONL trace importer relies on ParseOp(op.String()) == op holding
// for every possible Op byte, which FuzzTraceRoundTrip exercises.
func ParseOp(s string) (Op, bool) {
	for op := HostTx; op < lastOp; op++ {
		if s == op.String() {
			return op, true
		}
	}
	var n uint8
	if _, err := fmt.Sscanf(s, "Op(%d)", &n); err == nil && fmt.Sprintf("Op(%d)", n) == s {
		return Op(n), true
	}
	return 0, false
}

// Ops returns every defined operation, in declaration order — the iteration
// surface for exhaustiveness checks and per-op summaries.
func Ops() []Op {
	out := make([]Op, 0, int(lastOp))
	for op := HostTx; op < lastOp; op++ {
		out = append(out, op)
	}
	return out
}

// Event is one recorded occurrence. Packet fields are copied, not
// referenced, so events stay valid after the packet is recycled.
type Event struct {
	T    sim.Time
	Op   Op
	Sw   int // switch involved, -1 for host-side events
	Port int // port involved, -1 when not applicable
	Kind packet.Kind
	QP   packet.QPID
	PSN  packet.PSN
	Src  packet.NodeID
	Dst  packet.NodeID
}

// String renders one line of trace output.
func (e Event) String() string {
	loc := "host"
	if e.Sw >= 0 {
		if e.Port >= 0 {
			loc = fmt.Sprintf("sw%d.%d", e.Sw, e.Port)
		} else {
			loc = fmt.Sprintf("sw%d", e.Sw)
		}
	}
	if e.Op.IsFault() {
		// Fault events carry no packet fields.
		return fmt.Sprintf("%12.3fus %-12s %-8s", e.T.Microseconds(), e.Op, loc)
	}
	return fmt.Sprintf("%12.3fus %-12s %-8s %s qp=%d psn=%d %d->%d",
		e.T.Microseconds(), e.Op, loc, e.Kind, e.QP, e.PSN, e.Src, e.Dst)
}

// Tracer is a fixed-capacity ring of events. The zero value is unusable;
// construct with New. A nil Tracer ignores Record calls, so call sites need
// no guards.
type Tracer struct {
	events []Event
	head   int
	size   int
	total  uint64
}

// New returns a tracer retaining the last capacity events.
func New(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{events: make([]Event, capacity)}
}

// Record appends an event, evicting the oldest when full. Safe on nil.
func (t *Tracer) Record(ev Event) {
	if t == nil {
		return
	}
	t.total++
	if t.size < len(t.events) {
		t.events[(t.head+t.size)%len(t.events)] = ev
		t.size++
		return
	}
	t.events[t.head] = ev
	t.head = (t.head + 1) % len(t.events)
}

// RecordPacket is a convenience wrapper copying packet fields. Safe on nil.
func (t *Tracer) RecordPacket(now sim.Time, op Op, sw, port int, p *packet.Packet) {
	if t == nil {
		return
	}
	t.Record(Event{
		T: now, Op: op, Sw: sw, Port: port,
		Kind: p.Kind, QP: p.QP, PSN: p.PSN, Src: p.Src, Dst: p.Dst,
	})
}

// Len returns the number of retained events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.size
}

// Total returns the number of events ever recorded (including evicted).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.total
}

// Events returns the retained events oldest-first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, t.size)
	for i := 0; i < t.size; i++ {
		out[i] = t.events[(t.head+i)%len(t.events)]
	}
	return out
}

// ByOp returns the retained events with a given verdict/op, oldest-first —
// the post-hoc audit trail for one class of decisions (e.g. every blocked
// NACK, or every injected fault).
func (t *Tracer) ByOp(op Op) []Event {
	var out []Event
	for _, ev := range t.Events() {
		if ev.Op == op {
			out = append(out, ev)
		}
	}
	return out
}

// RecordFault is a convenience wrapper for non-packet fault events (link
// state changes, middleware state resets). Safe on nil.
func (t *Tracer) RecordFault(now sim.Time, op Op, sw, port int) {
	if t == nil {
		return
	}
	t.Record(Event{T: now, Op: op, Sw: sw, Port: port})
}

package trace

import (
	"strings"
	"testing"

	"themis/internal/packet"
	"themis/internal/sim"
)

// TestWraparoundAtExactCapacity pins the boundary between "ring filling" and
// "ring evicting": recording exactly capacity events retains all of them in
// order with no eviction, and one more event evicts exactly the oldest.
func TestWraparoundAtExactCapacity(t *testing.T) {
	const cap = 8
	tr := New(cap)
	for i := 0; i < cap; i++ {
		tr.Record(ev(sim.Time(i), SwEnq, packet.PSN(i)))
	}
	if tr.Len() != cap || tr.Total() != cap {
		t.Fatalf("at capacity: len=%d total=%d", tr.Len(), tr.Total())
	}
	evs := tr.Events()
	for i, e := range evs {
		if e.PSN != packet.PSN(i) {
			t.Fatalf("event %d: psn=%d, ring reordered at exact capacity", i, e.PSN)
		}
	}
	tr.Record(ev(sim.Time(cap), SwEnq, packet.PSN(cap)))
	evs = tr.Events()
	if tr.Len() != cap || tr.Total() != cap+1 {
		t.Fatalf("past capacity: len=%d total=%d", tr.Len(), tr.Total())
	}
	if evs[0].PSN != 1 || evs[cap-1].PSN != cap {
		t.Fatalf("eviction window wrong: first=%d last=%d", evs[0].PSN, evs[cap-1].PSN)
	}
}

// TestQueriesOnEmptyTracer: a constructed-but-unused tracer answers every
// query with an empty (nil) result rather than zero-valued events.
func TestQueriesOnEmptyTracer(t *testing.T) {
	tr := New(4)
	if got := tr.Events(); len(got) != 0 {
		t.Fatalf("Events on empty tracer = %v", got)
	}
	if got := tr.ByOp(Drop); got != nil {
		t.Fatalf("ByOp on empty tracer = %v", got)
	}
}

// TestNilTracerEveryMethod exercises the full method set on a nil receiver —
// the convention every recording call site relies on instead of guards.
func TestNilTracerEveryMethod(t *testing.T) {
	var tr *Tracer
	tr.Record(ev(0, HostTx, 0))
	tr.RecordPacket(0, Drop, 0, 0, &packet.Packet{})
	tr.RecordFault(0, FaultReset, 0, -1)
	if tr.Len() != 0 {
		t.Fatal("nil Len")
	}
	if tr.Total() != 0 {
		t.Fatal("nil Total")
	}
	if tr.Events() != nil {
		t.Fatal("nil Events")
	}
	if tr.ByOp(Drop) != nil {
		t.Fatal("nil ByOp")
	}
}

// TestOpStringExhaustive iterates the whole Op space via Ops(): every defined
// op must have a real mnemonic (not the "Op(N)" fallback), mnemonics must be
// unique, and ParseOp must invert String for defined and undefined ops alike.
func TestOpStringExhaustive(t *testing.T) {
	ops := Ops()
	if len(ops) != int(lastOp) {
		t.Fatalf("Ops() returned %d ops, lastOp = %d", len(ops), lastOp)
	}
	seen := make(map[string]Op, len(ops))
	for _, op := range ops {
		s := op.String()
		if strings.HasPrefix(s, "Op(") {
			t.Errorf("op %d has no mnemonic (add a String case)", op)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("ops %d and %d share mnemonic %q", prev, op, s)
		}
		seen[s] = op
		got, ok := ParseOp(s)
		if !ok || got != op {
			t.Errorf("ParseOp(%q) = (%d, %t), want (%d, true)", s, got, ok, op)
		}
	}
	// The fallback form round-trips too (the JSONL importer depends on it).
	if got, ok := ParseOp(Op(200).String()); !ok || got != Op(200) {
		t.Fatalf("fallback form did not round-trip: got %d, %t", got, ok)
	}
	if _, ok := ParseOp("no-such-op"); ok {
		t.Fatal("ParseOp accepted garbage")
	}
}

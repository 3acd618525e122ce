package trace

import (
	"strings"
	"testing"

	"themis/internal/packet"
	"themis/internal/sim"
)

func ev(t sim.Time, op Op, psn packet.PSN) Event {
	return Event{T: t, Op: op, Sw: 1, Port: 2, Kind: packet.Data, QP: 3, PSN: psn, Src: 0, Dst: 4}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(ev(0, HostTx, 0))
	tr.RecordPacket(0, Drop, 0, 0, &packet.Packet{})
	if tr.Len() != 0 || tr.Total() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer misbehaved")
	}
}

func TestRecordAndEvents(t *testing.T) {
	tr := New(8)
	for i := 0; i < 5; i++ {
		tr.Record(ev(sim.Time(i), SwEnq, packet.PSN(i)))
	}
	evs := tr.Events()
	if len(evs) != 5 || tr.Total() != 5 {
		t.Fatalf("len=%d total=%d", len(evs), tr.Total())
	}
	for i, e := range evs {
		if e.PSN != packet.PSN(i) {
			t.Fatal("order broken")
		}
	}
}

func TestEviction(t *testing.T) {
	tr := New(3)
	for i := 0; i < 10; i++ {
		tr.Record(ev(sim.Time(i), SwEnq, packet.PSN(i)))
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("len = %d", len(evs))
	}
	if evs[0].PSN != 7 || evs[2].PSN != 9 {
		t.Fatalf("retained = %v", evs)
	}
	if tr.Total() != 10 {
		t.Fatalf("total = %d", tr.Total())
	}
}

func TestMinCapacity(t *testing.T) {
	tr := New(0)
	tr.Record(ev(0, Drop, 1))
	tr.Record(ev(1, Drop, 2))
	if tr.Len() != 1 || tr.Events()[0].PSN != 2 {
		t.Fatal("min capacity ring broken")
	}
}

func TestEventString(t *testing.T) {
	e := ev(sim.Time(1500*sim.Nanosecond), NackBlocked, 7)
	s := e.String()
	for _, want := range []string{"1.500us", "nack-blocked", "sw1.2", "DATA", "qp=3", "psn=7", "0->4"} {
		if !strings.Contains(s, want) {
			t.Fatalf("%q missing %q", s, want)
		}
	}
	host := Event{Op: HostTx, Sw: -1, Port: -1}
	if !strings.Contains(host.String(), "host") {
		t.Fatal("host event location")
	}
}

func TestOpStrings(t *testing.T) {
	ops := map[Op]string{
		HostTx: "host-tx", SwEnq: "sw-enq", SwTx: "sw-tx", Mark: "mark",
		Drop: "drop", Deliver: "deliver", NackBlocked: "nack-blocked",
		NackForwarded: "nack-fwd", Compensate: "compensate", Spray: "spray",
		FaultLinkDown: "fault-down", FaultLinkUp: "fault-up", FaultReset: "fault-reset",
	}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("%d = %q want %q", op, op.String(), want)
		}
	}
	if Op(99).String() != "Op(99)" {
		t.Fatal("unknown op")
	}
}

func TestByOpAndFaultEvents(t *testing.T) {
	tr := New(16)
	tr.Record(Event{Op: NackBlocked, QP: 1, PSN: 10})
	tr.RecordFault(sim.Time(2*sim.Microsecond), FaultLinkDown, 3, 4)
	tr.RecordFault(sim.Time(5*sim.Microsecond), FaultLinkUp, 3, 4)
	tr.Record(Event{Op: NackBlocked, QP: 2, PSN: 20})
	blocked := tr.ByOp(NackBlocked)
	if len(blocked) != 2 || blocked[0].PSN != 10 || blocked[1].PSN != 20 {
		t.Fatalf("blocked = %v", blocked)
	}
	downs := tr.ByOp(FaultLinkDown)
	if len(downs) != 1 || downs[0].Sw != 3 || downs[0].Port != 4 {
		t.Fatalf("downs = %v", downs)
	}
	// Fault events render without packet fields.
	s := downs[0].String()
	if !strings.Contains(s, "fault-down") || !strings.Contains(s, "sw3.4") || strings.Contains(s, "qp=") {
		t.Fatalf("fault event render = %q", s)
	}
	// Nil safety.
	var nilTr *Tracer
	nilTr.RecordFault(0, FaultReset, 0, -1)
	if nilTr.ByOp(FaultReset) != nil {
		t.Fatal("nil tracer ByOp")
	}
}

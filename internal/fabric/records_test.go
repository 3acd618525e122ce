package fabric

import (
	"bytes"
	"fmt"
	"testing"

	"themis/internal/packet"
	"themis/internal/route"
	"themis/internal/sim"
)

// FuzzHostQueueRecords checks that host-link send records are exact: a fuzzed
// injection schedule runs once with records and once under KeepHostPackets,
// and the two delivery logs — time, host and every Packet field of each
// delivery, then the counters and the executed event count — must be the same
// bytes. The schedule crosses what a record has to carry or break on: PSN runs
// with gaps and across the 24-bit wrap, short tail payloads, retransmit and ECN
// flags, a preset TTL, per-packet SPorts (as under REPS), control packets
// interleaved on the same link, PFC pause/resume of the host link (explicit,
// and from a ToR whose Xoff a burst crosses) and a routing-epoch change while
// a QP's burst is still queued. With records on, every op also checks that
// the runs are maximal: no record continues the one before it.
//
// Each op is four bytes: op&7 is the kind and op>>3 the gap before it in
// 50 ns steps; a, b and c are its operands.
func FuzzHostQueueRecords(f *testing.F) {
	f.Add([]byte{0, 0x3c, 0, 0, 0, 0x3c, 0, 0, 8, 0x3d, 0, 0x31, 16, 0x3e, 40, 0x88}) // one run across the wrap, a gap, a short tail
	f.Add([]byte{0, 0x3c, 0, 0, 3, 0, 0, 0, 40, 0x3c, 0, 0x28, 4, 0, 0, 0})           // pause, a retransmit/ECN burst, resume
	f.Add([]byte{0, 0x3c, 0, 0, 5, 0, 0, 0, 0, 0x3c, 0, 0, 5, 0, 0, 0})               // epoch changes between bursts of one QP
	f.Add([]byte{0, 0x3c, 0, 0x20, 2, 0, 7, 0, 1, 0x3d, 0, 0x40, 2, 1, 200, 0})       // per-packet SPorts, control, preset TTL
	f.Add([]byte{0, 0x7c, 0, 0, 0, 0x7d, 0, 0, 0, 0x7e, 0, 0, 0, 0x7f, 0, 0})         // four QPs at once: real PFC pauses
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		eager := hostRecordsRun(t, ops, true)
		lazy := hostRecordsRun(t, ops, false)
		if !bytes.Equal(eager, lazy) {
			el, ll := bytes.Split(eager, []byte("\n")), bytes.Split(lazy, []byte("\n"))
			for i := range min(len(el), len(ll)) {
				if !bytes.Equal(el[i], ll[i]) {
					t.Fatalf("line %d differs:\n  packets: %s\n  records: %s", i, el[i], ll[i])
				}
			}
			t.Fatalf("logs differ in length: %d lines with packets, %d with records", len(el), len(ll))
		}
	})
}

// hostRecordsRun plays ops on a 2-leaf, 2-spine fabric with two hosts a leaf
// and returns its log. Four QPs run from hosts 0 and 1 to hosts 2 and 3, each
// from PSN 2^24-16.
func hostRecordsRun(t *testing.T, ops []byte, keep bool) []byte {
	tp := leafSpine(t, 2, 2, 2)
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{
		ControlLossless: true,
		Pool:            packet.NewPool(),
		PFC:             PFCConfig{Enabled: true, XoffBytes: 12000, XonBytes: 6000},
		Routing:         route.Config{Mode: route.Distributed},
	})
	if keep {
		KeepHostPackets(n)
	}
	var log bytes.Buffer
	for h := range tp.NumHosts() {
		n.AttachHost(packet.NodeID(h), func(p *packet.Packet) {
			fmt.Fprintf(&log, "%d h%d %+v\n", e.Now(), h, *p)
		})
	}
	var uplinks []int // leaf 0's fabric ports: flipping one bumps the epoch
	for port, q := range n.switches[0].ports {
		if !q.isHostPort {
			uplinks = append(uplinks, port)
		}
	}
	var next [4]packet.PSN
	for qp := range next {
		next[qp] = packet.NewPSN(1<<24 - 16)
	}
	at := sim.Time(0)
	for i := 0; i+4 <= len(ops); i += 4 {
		op, a, b, c := ops[i], ops[i+1], ops[i+2], ops[i+3]
		at = at.Add(sim.Duration(op>>3) * 50 * sim.Nanosecond)
		e.At(at, func() {
			hostRecordsOp(n, op&7, a, b, c, &next, uplinks)
			if !keep {
				for _, q := range n.hostUp {
					checkRunsMaximal(t, q)
				}
			}
		})
	}
	e.RunAll()
	fmt.Fprintf(&log, "%+v events=%d\n", n.Counters(), e.Executed())
	for h := range n.hostUp {
		fmt.Fprintf(&log, "h%d queued=%d\n", h, n.HostUplinkBytes(packet.NodeID(h)))
	}
	return log.Bytes()
}

// hostRecordsOp applies one op:
//   - 0, 1: a burst on QP a&3 (from host a&1 to host 2+(a>>1&1)) of
//     1+(a>>2&15) packets. c&1 skips 1+(c>>1&3) PSNs first; c&8 marks the
//     first half retransmissions; c&16 presets ECN; c&32 gives each packet
//     its own SPort; c&64 presets TTL 8; c&128 cuts the last payload to 1+4b.
//   - 2: a control packet (ACK, NACK or CNP by b%3) from host a&1, ePSN b.
//   - 3, 4: pause / resume host a&1's link.
//   - 5: flip leaf 0's uplink a&1, which bumps the routing epoch.
//   - 6, 7: nothing (time passes).
func hostRecordsOp(n *Network, kind, a, b, c byte, next *[4]packet.PSN, uplinks []int) {
	src, dst := packet.NodeID(a&1), packet.NodeID(2+(a>>1&1))
	switch kind {
	case 0, 1:
		qp := a & 3
		if c&1 != 0 {
			next[qp] = next[qp].Add(1 + int(c>>1&3))
		}
		count := 1 + int(a>>2&15)
		for k := range count {
			p := n.pools[0].Get()
			p.Kind, p.Src, p.Dst, p.QP = packet.Data, src, dst, packet.QPID(qp+1)
			p.SPort, p.DPort = 1000+uint16(qp), packet.RoCEv2Port
			p.PSN, p.Payload = next[qp], 1000
			next[qp] = next[qp].Next()
			p.Retransmit = c&8 != 0 && k < count/2
			p.ECN = c&16 != 0
			if c&32 != 0 {
				p.SPort = 2000 + uint16(k)
			}
			if c&64 != 0 {
				p.TTL = 8
			}
			if c&128 != 0 && k == count-1 {
				p.Payload = 1 + 4*int(b)
			}
			n.Inject(src, p)
		}
	case 2:
		n.Inject(src, n.pools[0].Control(packet.Kind(1+b%3), src, dst, 0, 1000, packet.PSN(b)))
	case 3, 4:
		n.hostUp[src].setPaused(kind == 3)
	case 5:
		port := uplinks[int(a&1)%len(uplinks)]
		n.SetLinkState(0, port, !n.switches[0].portUp[port])
	}
}

// checkRunsMaximal fails if a send record continues the one before it: a run
// split where pack should have extended it.
func checkRunsMaximal(t *testing.T, q *outQueue) {
	for i := 1; i < q.runs.len(); i++ {
		if r, s := q.runs.at(i-1), q.runs.at(i); r.hdr == s.hdr && r.psn.Add(int(r.count)) == s.psn {
			t.Fatalf("records %d and %d form one run: %+v then %+v", i-1, i, *r, *s)
		}
	}
}

// TestHostQueueRecordsReach pins that the fuzz's ops reach what they are
// meant to: three bursts of one QP queued at once, across the PSN wrap, the
// second under a new routing epoch with ECN preset, the third with TTL preset
// (8, less two forwarding hops).
func TestHostQueueRecordsReach(t *testing.T) {
	ops := []byte{0, 0x3c, 0, 0, 5, 0, 0, 0, 0, 0x3c, 0, 0x10, 0, 0x3c, 0, 0x40}
	log := hostRecordsRun(t, ops, false)
	for _, want := range []string{"PSN:16777215 ", "PSN:0 ", "RouteEpoch:0 ", "RouteEpoch:1 ", "ECN:true ", "TTL:6 "} {
		if !bytes.Contains(log, []byte(want)) {
			t.Errorf("log lacks %q", want)
		}
	}
}

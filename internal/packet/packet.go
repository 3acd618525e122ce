// Package packet defines the on-the-wire unit of the simulator: a RoCE-like
// packet carrying a flow five-tuple, a queue-pair identifier, a packet
// sequence number (PSN) and the control fields the transports, the switches
// and the Themis middleware act on.
//
// The field set deliberately mirrors what a RoCEv2 deployment exposes to a
// programmable ToR switch: the UDP source port is the ECMP entropy field that
// Themis-S rewrites, the PSN lives in the BTH, and ACK/NACK packets carry the
// receiver's expected PSN (ePSN) in the AETH — NACKs never carry the PSN of
// the out-of-order packet that triggered them (§2.2 of the paper).
package packet

import "fmt"

// Kind discriminates packet roles.
type Kind uint8

const (
	// Data is a payload-bearing RDMA data segment.
	Data Kind = iota
	// Ack is a cumulative acknowledgment carrying the receiver's ePSN:
	// everything below PSN has been received.
	Ack
	// Nack requests retransmission of the packet with the carried ePSN.
	// Per the NIC-SR contract it carries only the ePSN.
	Nack
	// Cnp is a DCQCN congestion notification packet.
	Cnp
)

// String returns the kind mnemonic.
func (k Kind) String() string {
	switch k {
	case Data:
		return "DATA"
	case Ack:
		return "ACK"
	case Nack:
		return "NACK"
	case Cnp:
		return "CNP"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// IsControl reports whether the kind is a control packet (ACK/NACK/CNP).
func (k Kind) IsControl() bool { return k != Data }

// NodeID identifies a host (NIC) in the network.
type NodeID int32

// QPID identifies a queue pair connection between two hosts. QPIDs are
// globally unique in a simulation; a QP is unidirectional for data (the
// reverse direction carries only ACK/NACK/CNP).
type QPID int32

// Header sizes, matching RoCEv2 framing closely enough for timing purposes:
// Ethernet(14+4 FCS) + IPv4(20) + UDP(8) + BTH(12) = 58; round to 64 with
// preamble/IFG accounted as on-wire overhead.
const (
	HeaderBytes  = 64   // per-packet header+framing overhead on the wire
	ControlBytes = 64   // ACK/NACK/CNP are header-only packets
	DefaultMTU   = 1500 // default payload bytes per data packet (paper Table 1)
)

// RoCEv2Port is the UDP destination port every RoCEv2 packet carries.
const RoCEv2Port = 4791

// DefaultTTL is the hop limit stamped on packets entering the fabric (the
// IPv4 TTL / IPv6 hop-limit of the encapsulating header). Any loop-free CLOS
// path is at most a handful of switch hops, so a packet that burns through
// DefaultTTL decrements has been caught in a forwarding loop — the transient
// micro-loops a reconverging distributed control plane produces — and is
// dropped instead of livelocking the event loop.
const DefaultTTL = 64

// Packet is a single simulated packet. Packets are passed by pointer through
// the fabric; ownership transfers with the pointer (a switch that drops a
// packet releases it back to the pool).
type Packet struct {
	Kind Kind

	// Flow addressing.
	Src, Dst NodeID // endpoints (hosts)
	QP       QPID   // queue pair the packet belongs to
	SPort    uint16 // UDP source port: ECMP entropy, rewritten by Themis-S
	DPort    uint16 // UDP destination port (RoCEv2Port, constant)

	// Transport fields.
	PSN     PSN // BTH packet sequence number (Data), or AETH ePSN (Ack/Nack)
	Payload int // payload bytes (0 for control)

	// Congestion signals.
	ECN bool // CE mark applied by a switch on the way

	// TTL is the remaining hop limit, decremented at every switch that
	// forwards (not locally delivers) the packet; at zero the packet is
	// dropped and counted as a loop drop. Stamped with DefaultTTL on fabric
	// entry when unset, so tests may pre-set a smaller limit.
	TTL uint8

	// RouteEpoch records the routing-plane convergence epoch the packet was
	// injected under (fabric-internal, not on the wire). A TTL-exhaustion
	// drop only indicts the routing plane when the packet was launched under
	// the *current* quiescent epoch; packets stamped during a reconvergence
	// window are allowed to die of staleness.
	RouteEpoch uint32

	// Bookkeeping (not on the wire).
	Retransmit bool  // this data packet is a retransmission
	Buffered   bool  // currently counted against a switch buffer (fabric-internal)
	Accounted  bool  // currently counted against a PFC ingress (fabric-internal)
	InPort     int32 // ingress port at the current switch (fabric-internal)
}

// Size returns the on-wire size in bytes including headers.
func (p *Packet) Size() int { return HeaderBytes + p.Payload }

// String renders a compact trace representation.
func (p *Packet) String() string {
	r := ""
	if p.Retransmit {
		r = " rtx"
	}
	return fmt.Sprintf("%s qp=%d psn=%d %d->%d sport=%d len=%d%s",
		p.Kind, p.QP, p.PSN, p.Src, p.Dst, p.SPort, p.Payload, r)
}

// FlowKey identifies a unidirectional flow for ECMP hashing: the classic
// five-tuple reduced to the fields that vary in this simulator.
type FlowKey struct {
	Src, Dst NodeID
	SPort    uint16
	DPort    uint16
}

// Key returns the packet's flow key. For control packets travelling in the
// reverse direction the key still uses the packet's own src/dst so that
// replies hash independently (as real ECMP does).
func (p *Packet) Key() FlowKey {
	return FlowKey{Src: p.Src, Dst: p.Dst, SPort: p.SPort, DPort: p.DPort}
}

// Package rnic models commodity RDMA NICs at the granularity the paper
// reasons about (§2.2): queue pairs with PSN-numbered data segments,
// cumulative ACKs, and one of three reliable transports —
//
//   - SelectiveRepeat (NIC-SR): the current-generation behaviour (CX-6/CX-7).
//     The receiver keeps an ePSN and an out-of-order bitmap, accepts OOO
//     packets, and on every OOO arrival assumes the ePSN packet was lost:
//     it emits a NACK carrying only the ePSN — at most one NACK per ePSN
//     value. The sender retransmits exactly the NACKed packet and hands the
//     NACK to DCQCN as a congestion signal (the "unnecessary slow start").
//
//   - GoBackN: the previous-generation behaviour (CX-4/CX-5). OOO packets
//     are dropped, the receiver NACKs the ePSN, and the sender rewinds.
//
//   - Ideal: an oracle upper bound (Fig. 1d) that never misinterprets OOO
//     arrival as loss — no spurious NACKs, no NACK-triggered rate cuts;
//     genuine losses are recovered by timeout.
//
// One NIC instance attaches to each simulated host and multiplexes any
// number of sender and receiver QPs.
package rnic

import (
	"fmt"
	"strings"

	"themis/internal/cc"
	"themis/internal/lb"
	"themis/internal/obs"
	"themis/internal/packet"
	"themis/internal/sim"
)

// Transport selects the reliable transport behaviour of a QP.
type Transport int

const (
	// SelectiveRepeat is NIC-SR, the current-generation commodity RNIC
	// transport the paper targets.
	SelectiveRepeat Transport = iota
	// GoBackN is the previous-generation transport.
	GoBackN
	// Ideal is the oracle transport with perfect loss discrimination.
	Ideal
)

// transportNames is the mnemonic table behind String, ParseTransport and
// TransportNames.
var transportNames = [...]string{SelectiveRepeat: "nic-sr", GoBackN: "gbn", Ideal: "ideal"}

// String returns the transport mnemonic.
func (t Transport) String() string {
	if t < 0 || int(t) >= len(transportNames) {
		return fmt.Sprintf("Transport(%d)", int(t))
	}
	return transportNames[t]
}

// TransportNames returns the mnemonics joined by "|", for flag help and errors.
func TransportNames() string { return strings.Join(transportNames[:], "|") }

// ParseTransport is the inverse of Transport.String.
func ParseTransport(s string) (Transport, error) {
	for t, name := range transportNames {
		if name == s {
			return Transport(t), nil
		}
	}
	return 0, fmt.Errorf("unknown transport %q (%s)", s, TransportNames())
}

// Config parameterizes a NIC. Zero fields take defaults.
type Config struct {
	// Transport selects the reliable transport (default SelectiveRepeat).
	Transport Transport
	// LineRate is the access link rate in bits per second (required).
	LineRate int64
	// CC configures DCQCN. CC.LineRate defaults to LineRate. Set DisableCC
	// to send at line rate unconditionally.
	CC        cc.Config
	DisableCC bool
	// RTO is the base retransmission timeout (default 1 ms).
	RTO sim.Duration
	// RTOBackoff is the multiplicative backoff applied to the RTO on every
	// consecutive timeout of a QP (default 1 = fixed RTO, the historical
	// behaviour). Values > 1 make timeout storms under heavy loss converge:
	// each barren timeout doubles (for 2.0) the next wait instead of
	// re-firing at the base period while the fabric is still broken.
	RTOBackoff float64
	// RTOMax caps the backed-off timeout. Defaults to 100 × RTO when
	// RTOBackoff > 1; ignored otherwise.
	RTOMax sim.Duration
	// BurstBytes is the pacer granularity: up to this many bytes leave
	// back-to-back at line rate before the pacer inserts the rate-matching
	// gap. Hardware rate limiters on commodity RNICs schedule whole WQE
	// chunks, not single packets; this burstiness is what turns multi-path
	// spraying into out-of-order arrivals even without persistent
	// congestion. Default: one packet (perfectly smooth pacing).
	BurstBytes int
	// NewEntropy, if non-nil, gives every sender QP an EntropySource: the
	// sender stamps each data (re)transmission's source port from
	// Pick(psn) instead of the flow's constant sport, and threads transport
	// feedback back into the source — OnAck per cumulatively-acknowledged
	// PSN, OnNack per explicit NACK, OnTimeout per RTO expiry. This is the
	// ACK-feedback hook the REPS arm lives on. base is the flow's home
	// sport, so a source that returns base unchanged reproduces the legacy
	// single-path behaviour bit for bit.
	NewEntropy func(qp packet.QPID, base uint16) lb.EntropySource
	// Pool, if non-nil, is the packet free list injected packets are drawn
	// from. Share it with fabric.Config.Pool so delivered packets recycle
	// back. Nil allocates normally.
	Pool *packet.Pool
	// Metrics, if non-nil, gives this NIC a "rnic.message_complete_us"
	// histogram of its message completion latencies; share one registry
	// across all NICs and the snapshot digests them as one. It costs one
	// nil-check per message completion when disabled. Sender counters are not
	// re-exported: SenderQP.Stats is what a trial's record sums.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.LineRate <= 0 {
		panic("rnic: Config.LineRate is required")
	}
	if c.RTO == 0 {
		c.RTO = sim.Millisecond
	}
	if c.RTOBackoff == 0 {
		c.RTOBackoff = 1
	}
	if c.RTOBackoff > 1 && c.RTOMax == 0 {
		c.RTOMax = 100 * c.RTO
	}
	if c.CC.LineRate == 0 {
		c.CC.LineRate = c.LineRate
	}
	return c
}

// NIC is one host's RNIC: a dispatch table of QPs plus the host's injection
// path into the fabric.
type NIC struct {
	engine *sim.Engine
	id     packet.NodeID
	cfg    Config
	inject func(*packet.Packet)

	senders   map[packet.QPID]*SenderQP
	receivers map[packet.QPID]*ReceiverQP

	// msgHist receives message completion latencies (nil when metrics are
	// off; Observe on a nil histogram is a no-op).
	msgHist *obs.Histogram
}

// New creates a NIC for host id. inject transmits a packet onto the host's
// access link (normally fabric.Network.Inject bound to the host).
func New(engine *sim.Engine, id packet.NodeID, cfg Config, inject func(*packet.Packet)) *NIC {
	return &NIC{
		engine:    engine,
		id:        id,
		cfg:       cfg.withDefaults(),
		inject:    inject,
		senders:   make(map[packet.QPID]*SenderQP),
		receivers: make(map[packet.QPID]*ReceiverQP),
		msgHist:   cfg.Metrics.Histogram("rnic.message_complete_us"),
	}
}

// ID returns the host NodeID.
func (n *NIC) ID() packet.NodeID { return n.id }

// Config returns the NIC configuration (with defaults applied).
func (n *NIC) Config() Config { return n.cfg }

// HandlePacket is the host receive entry point; wire it to
// fabric.Network.AttachHost.
func (n *NIC) HandlePacket(p *packet.Packet) {
	switch p.Kind {
	case packet.Data:
		if r, ok := n.receivers[p.QP]; ok {
			r.onData(p)
		}
	case packet.Ack:
		if s, ok := n.senders[p.QP]; ok {
			s.onAck(p)
		}
	case packet.Nack:
		if s, ok := n.senders[p.QP]; ok {
			s.onNack(p)
		}
	case packet.Cnp:
		if s, ok := n.senders[p.QP]; ok {
			s.onCnp(p)
		}
	}
}

// OpenSender creates the send side of QP qp towards dst, using sport as the
// flow's UDP source-port entropy.
func (n *NIC) OpenSender(qp packet.QPID, dst packet.NodeID, sport uint16) *SenderQP {
	if _, dup := n.senders[qp]; dup {
		panic(fmt.Sprintf("rnic: duplicate sender QP %d on host %d", qp, n.id))
	}
	s := newSenderQP(n, qp, dst, sport)
	n.senders[qp] = s
	return s
}

// OpenReceiver creates the receive side of QP qp from src.
func (n *NIC) OpenReceiver(qp packet.QPID, src packet.NodeID, sport uint16) *ReceiverQP {
	if _, dup := n.receivers[qp]; dup {
		panic(fmt.Sprintf("rnic: duplicate receiver QP %d on host %d", qp, n.id))
	}
	r := newReceiverQP(n, qp, src, sport)
	n.receivers[qp] = r
	return r
}

// Sender returns the sender QP (nil if absent).
func (n *NIC) Sender(qp packet.QPID) *SenderQP { return n.senders[qp] }

// Receiver returns the receiver QP (nil if absent).
func (n *NIC) Receiver(qp packet.QPID) *ReceiverQP { return n.receivers[qp] }

// Senders iterates all sender QPs.
func (n *NIC) Senders() map[packet.QPID]*SenderQP { return n.senders }

// CloseSender tears down the send side of QP qp: timers and pending pacer
// events are cancelled and the QP is removed from the dispatch table, so
// stray ACKs/NACKs still in flight are simply dropped (HandlePacket ignores
// unknown QPs, matching how a real RNIC treats a destroyed QP). The closed
// QP's Stats stay readable through the handle the caller holds. Unknown QPs
// are a no-op.
func (n *NIC) CloseSender(qp packet.QPID) {
	s, ok := n.senders[qp]
	if !ok {
		return
	}
	s.Close()
	delete(n.senders, qp)
}

// CloseReceiver tears down the receive side of QP qp. Receivers hold no
// timers, so this only removes the dispatch entry; late data packets for the
// QP are dropped. Unknown QPs are a no-op.
func (n *NIC) CloseReceiver(qp packet.QPID) {
	delete(n.receivers, qp)
}

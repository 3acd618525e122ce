package rnic

import (
	"themis/internal/packet"
	"themis/internal/sim"
)

// ReceiverStats counts receiver-side events.
type ReceiverStats struct {
	DataRx     uint64 // data packets received
	InOrder    uint64 // arrivals matching ePSN
	OutOfOrder uint64 // arrivals with PSN > ePSN
	Duplicates uint64 // arrivals with PSN < ePSN
	GBNDrops   uint64 // OOO packets discarded by Go-Back-N
	AcksTx     uint64
	NacksTx    uint64
	CnpsTx     uint64
	BytesRecv  uint64 // payload bytes delivered in order (each byte once)
}

// ReceiverQP is the receive half of a queue pair, implementing the NIC-SR
// contract of §2.2 (or GBN / the ideal oracle).
type ReceiverQP struct {
	nic   *NIC
	qp    packet.QPID
	src   packet.NodeID
	sport uint16 // the flow's forward-direction sport (reverse control reuses it)

	epsn   packet.PSN
	bitmap map[packet.PSN]int // OOO buffer: PSN -> payload size (SelectiveRepeat/Ideal)

	// NIC-SR NACK duplication guard: at most one NACK per ePSN value.
	nackedEPSN packet.PSN
	nackedSet  bool

	lastCNP     sim.Time
	cnpEverSent bool

	stats ReceiverStats

	// OnDeliver, if set, observes every in-order payload delivery (psn,
	// payload) as ePSN advances.
	OnDeliver func(t sim.Time, psn packet.PSN, payload int)
}

func newReceiverQP(n *NIC, qp packet.QPID, src packet.NodeID, sport uint16) *ReceiverQP {
	return &ReceiverQP{
		nic:    n,
		qp:     qp,
		src:    src,
		sport:  sport,
		bitmap: make(map[packet.PSN]int),
	}
}

// QP returns the queue pair ID.
func (r *ReceiverQP) QP() packet.QPID { return r.qp }

// EPSN returns the expected PSN.
func (r *ReceiverQP) EPSN() packet.PSN { return r.epsn }

// Stats returns a snapshot of the receiver counters.
func (r *ReceiverQP) Stats() ReceiverStats { return r.stats }

// onData processes a data arrival.
func (r *ReceiverQP) onData(p *packet.Packet) {
	r.stats.DataRx++
	if p.ECN {
		r.maybeSendCNP(p.SPort)
	}
	switch {
	case p.PSN == r.epsn:
		r.stats.InOrder++
		r.deliver(p.PSN, p.Payload)
		r.epsn = r.epsn.Next()
		// Drain the OOO bitmap: advance to the smallest missing PSN.
		for {
			payload, ok := r.bitmap[r.epsn]
			if !ok {
				break
			}
			delete(r.bitmap, r.epsn)
			r.deliver(r.epsn, payload)
			r.epsn = r.epsn.Next()
		}
		r.sendAck()

	case p.PSN.After(r.epsn):
		r.stats.OutOfOrder++
		switch r.nic.cfg.Transport {
		case SelectiveRepeat:
			r.bitmap[p.PSN] = p.Payload
			// §2.2: the NIC assumes the ePSN packet was lost and NACKs —
			// but generates at most one NACK per ePSN value.
			if !r.nackedSet || r.nackedEPSN != r.epsn {
				r.nackedEPSN = r.epsn
				r.nackedSet = true
				r.sendNack()
			}
		case GoBackN:
			// OOO packets are dropped; NACK once per ePSN.
			r.stats.GBNDrops++
			if !r.nackedSet || r.nackedEPSN != r.epsn {
				r.nackedEPSN = r.epsn
				r.nackedSet = true
				r.sendNack()
			}
		case Ideal:
			// The oracle accepts OOO silently; timeouts recover real loss.
			r.bitmap[p.PSN] = p.Payload
		}

	default: // p.PSN < r.epsn
		r.stats.Duplicates++
		// Duplicate (a spurious retransmission arriving after recovery):
		// re-ACK so the sender's cumulative state advances.
		r.sendAck()
	}
}

func (r *ReceiverQP) deliver(psn packet.PSN, payload int) {
	r.stats.BytesRecv += uint64(payload)
	if r.OnDeliver != nil {
		r.OnDeliver(r.nic.engine.Now(), psn, payload)
	}
}

func (r *ReceiverQP) sendAck() {
	r.stats.AcksTx++
	r.nic.inject(r.nic.cfg.Pool.Control(packet.Ack, r.nic.id, r.src, r.qp, r.sport, r.epsn))
}

func (r *ReceiverQP) sendNack() {
	r.stats.NacksTx++
	// NACKs carry only the ePSN (§2.2).
	r.nic.inject(r.nic.cfg.Pool.Control(packet.Nack, r.nic.id, r.src, r.qp, r.sport, r.epsn))
}

// cnpInterval is the minimum gap between CNPs per QP.
const cnpInterval = 50 * sim.Microsecond

// maybeSendCNP rate-limits congestion notifications to one per cnpInterval.
// The CNP echoes the marked data packet's source-port entropy so a spraying
// sender can attribute the congestion to the path it stamped (per-path
// DCQCN); for non-spraying flows the data entropy equals the flow sport, so
// the echo is indistinguishable from the historical constant stamp.
func (r *ReceiverQP) maybeSendCNP(entropy uint16) {
	now := r.nic.engine.Now()
	if r.cnpEverSent && now.Sub(r.lastCNP) < cnpInterval {
		return
	}
	r.lastCNP = now
	r.cnpEverSent = true
	r.stats.CnpsTx++
	r.nic.inject(r.nic.cfg.Pool.Control(packet.Cnp, r.nic.id, r.src, r.qp, entropy, 0))
}

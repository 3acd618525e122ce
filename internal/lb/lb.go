// Package lb implements the load-balancing policies the paper compares:
// flow-level ECMP, random packet spraying, queue-aware adaptive routing and
// flowlet switching, plus the deterministic PSN-based spraying rule of Eq. 1
// that Themis-S enforces.
//
// A Selector picks one egress port out of a switch's equal-cost candidate
// set for each packet. Selectors are instantiated per switch so that any
// per-flow state (flowlet tables) is switch-local, as it would be in
// hardware.
package lb

import (
	"hash/crc32"
	"math/rand"

	"themis/internal/packet"
	"themis/internal/sim"
)

// Context gives a Selector access to local switch state at decision time.
type Context interface {
	// Now returns the current virtual time.
	Now() sim.Time
	// QueueBytes returns the current egress queue depth of a candidate port.
	QueueBytes(port int) int
	// Rand is the deterministic random source of the simulation.
	Rand() *rand.Rand
	// Seed is the switch-local hash seed (see SwitchSeed), decorrelating
	// ECMP decisions across tiers.
	Seed() uint32
}

// Selector picks an egress port for a packet from the candidate set cands
// (actual port numbers, sorted ascending). Implementations must return one
// of the candidates.
type Selector interface {
	Select(pkt *packet.Packet, cands []int, ctx Context) int
	// Name identifies the policy in reports.
	Name() string
}

// ieeeTable is the byte-at-a-time CRC-32/IEEE table. The stdlib's
// ChecksumIEEE forces its input slice to escape (it feeds arch-specific fast
// paths), which would cost one heap allocation per ECMP decision; hashing the
// fixed-size keys byte by byte against the table keeps the fabric forward
// path allocation-free while producing bit-identical checksums.
var ieeeTable = crc32.MakeTable(crc32.IEEE)

// crcByte folds one byte into a running CRC-32/IEEE state.
func crcByte(crc uint32, b byte) uint32 {
	return ieeeTable[byte(crc)^b] ^ (crc >> 8)
}

// Hash is the ECMP hash over a flow key. It is CRC32 (IEEE), which real
// switch ASICs commonly use, and which is linear over GF(2): for a fixed
// base key, XOR-ing a delta into the UDP source port changes the hash by a
// key-independent delta. That linearity is what makes the offline PathMap of
// §3.2 (and [37]) valid for every flow; see package core.
func Hash(k packet.FlowKey) uint32 {
	crc := ^uint32(0)
	crc = crcByte(crc, byte(k.Src))
	crc = crcByte(crc, byte(k.Src>>8))
	crc = crcByte(crc, byte(k.Src>>16))
	crc = crcByte(crc, byte(k.Src>>24))
	crc = crcByte(crc, byte(k.Dst))
	crc = crcByte(crc, byte(k.Dst>>8))
	crc = crcByte(crc, byte(k.Dst>>16))
	crc = crcByte(crc, byte(k.Dst>>24))
	crc = crcByte(crc, byte(k.SPort))
	crc = crcByte(crc, byte(k.SPort>>8))
	crc = crcByte(crc, byte(k.DPort))
	crc = crcByte(crc, byte(k.DPort>>8))
	return ^crc
}

// Index reduces a hash onto n candidates. For power-of-two n this is a mask
// (preserving XOR linearity); otherwise a modulo.
func Index(h uint32, n int) int {
	if n <= 0 {
		panic("lb: Index with no candidates")
	}
	if n&(n-1) == 0 {
		return int(h) & (n - 1)
	}
	return int(h % uint32(n))
}

// SwitchSeed derives a deterministic per-switch value, used where per-switch
// (rather than per-tier) diversity is wanted — e.g. deriving a flow's P_base
// in Eq. 1.
func SwitchSeed(swID int) uint32 {
	crc := ^uint32(0)
	crc = crcByte(crc, byte(swID))
	crc = crcByte(crc, byte(swID>>8))
	crc = crcByte(crc, byte(swID>>16))
	crc = crcByte(crc, 0x5a)
	return ^crc
}

// TierSeed derives the ECMP hash seed for a topology tier. Real fabrics
// configure hashing uniformly within a tier and differently across tiers:
// within a tier, uniformity keeps the fabric-wide path function a single
// linear map of the flow hash (the property the §3.2 PathMap and [37]
// exploit); across tiers, distinct seeds decorrelate decisions and avoid
// hash polarization. The PathMap prober in package core mirrors this exact
// function.
func TierSeed(tier int) uint32 {
	crc := ^uint32(0)
	crc = crcByte(crc, byte(tier))
	crc = crcByte(crc, 0xc3)
	crc = crcByte(crc, 0x96)
	crc = crcByte(crc, 0x69)
	return ^crc
}

// gf32Mul multiplies two elements of GF(2^32) modulo the CRC-32/IEEE
// polynomial (x^32 + x^26 + ... + 1, 0x04C11DB7). Multiplication by a fixed
// nonzero constant is an invertible GF(2)-linear map, which is exactly what
// per-switch hash seeding needs: each switch applies a different linear
// transform to the flow hash, so successive tiers decide on independent bit
// subspaces (no hash polarization) while XOR-deltas in the key still induce
// key-independent decision deltas (the linearity PathMap relies on).
func gf32Mul(a, b uint32) uint32 {
	var r uint32
	for b != 0 {
		if b&1 != 0 {
			r ^= a
		}
		b >>= 1
		carry := a & 0x80000000
		a <<= 1
		if carry != 0 {
			a ^= 0x04C11DB7
		}
	}
	return r
}

// ECMPIndex is the canonical ECMP decision: the candidate index a switch
// with the given seed picks for flow key k among n candidates. Both the
// fabric's ECMP selector and the offline PathMap prober use it, so the two
// can never disagree.
func ECMPIndex(k packet.FlowKey, seed uint32, n int) int {
	return Index(gf32Mul(Hash(k), seed|1), n)
}

// ECMP hashes the five-tuple; all packets of a flow take one path.
type ECMP struct{}

// Select implements Selector. A single candidate — every spine→leaf and
// fat-tree down-hop, half of all calls — is returned without hashing: an
// index into one slot is 0 whatever the hash.
func (ECMP) Select(pkt *packet.Packet, cands []int, ctx Context) int {
	if len(cands) == 1 {
		return cands[0]
	}
	return cands[ECMPIndex(pkt.Key(), ctx.Seed(), len(cands))]
}

// Name implements Selector.
func (ECMP) Name() string { return "ecmp" }

// RandomSpray picks a uniformly random candidate per packet (random packet
// spraying, RPS [13]).
type RandomSpray struct{}

// Select implements Selector. A single candidate is returned without
// consuming a random draw: degraded fabrics (failed links leaving one uplink)
// must not perturb the shared per-switch RNG stream for a decision with no
// freedom, or the failure would shift every later spray decision on the
// switch.
func (RandomSpray) Select(_ *packet.Packet, cands []int, ctx Context) int {
	if len(cands) == 1 {
		return cands[0]
	}
	return cands[ctx.Rand().Intn(len(cands))]
}

// Name implements Selector.
func (RandomSpray) Name() string { return "rps" }

// Adaptive picks the candidate with the shortest egress queue, breaking ties
// by the flow hash so that an idle fabric still spreads flows. This models
// per-packet adaptive routing as deployed in AI fabrics.
type Adaptive struct{}

// Select implements Selector. The winner is the first minimum-queue
// candidate in rotation order starting from the flow-hash position, so ties
// genuinely spread by flow hash rather than collapsing onto cands[0].
func (Adaptive) Select(pkt *packet.Packet, cands []int, ctx Context) int {
	if len(cands) == 1 {
		return cands[0]
	}
	start := ECMPIndex(pkt.Key(), ctx.Seed(), len(cands))
	best := cands[start]
	bestQ := ctx.QueueBytes(best)
	for i := 1; i < len(cands); i++ {
		c := cands[(start+i)%len(cands)]
		if q := ctx.QueueBytes(c); q < bestQ {
			best, bestQ = c, q
		}
	}
	return best
}

// Name implements Selector.
func (Adaptive) Name() string { return "adaptive" }

// PSNSpray implements Eq. 1: path_i = (PSN_i mod N + P_base) mod N, with
// P_base derived from the flow's ECMP hash. It is exported for direct use as
// a plain selector (the "2-tier" deployment of Themis-S, §3.2) and reused by
// package core.
type PSNSpray struct{}

// Select implements Selector. Control packets fall back to ECMP: the policy
// sprays only data packets, whose PSNs are meaningful.
func (PSNSpray) Select(pkt *packet.Packet, cands []int, ctx Context) int {
	n := len(cands)
	if n == 1 {
		return cands[0]
	}
	if pkt.Kind != packet.Data {
		return cands[ECMPIndex(pkt.Key(), ctx.Seed(), n)]
	}
	return cands[SprayIndex(pkt.PSN, Hash(pkt.Key())^ctx.Seed(), n)]
}

// Name implements Selector.
func (PSNSpray) Name() string { return "psn-spray" }

// SprayIndex computes Eq. 1's path index for a PSN given the flow's hash and
// the path count n.
func SprayIndex(psn packet.PSN, flowHash uint32, n int) int {
	base := Index(flowHash, n)
	return (psn.Mod(n) + base) % n
}

// Package memmodel implements the §4 analytical memory-overhead model of
// Themis (Table 1): the PathMap footprint of Themis-S and the per-QP flow
// table + ring PSN queue footprint of Themis-D, plus the fat-tree worked
// example that yields M_total ≈ 193 KB for a k=32 fat-tree ToR.
package memmodel

import (
	"fmt"
	"math"

	"themis/internal/sim"
)

// Params are the symbols of Table 1.
type Params struct {
	NPaths    int          // N_paths: equal-cost paths between a src/dst pair
	Bandwidth int64        // BW: last-hop bandwidth, bits per second
	RTTLast   sim.Duration // RTT_last: last-hop round-trip time
	NNIC      int          // N_NIC: RNICs per ToR switch
	NQP       int          // N_QP: cross-rack QPs per RNIC
	MTU       int          // MTU size in bytes
	Factor    float64      // F: queue capacity expansion factor
}

// PaperDefaults returns the reference values of Table 1.
func PaperDefaults() Params {
	return Params{
		NPaths:    256,
		Bandwidth: 400e9,
		RTTLast:   2 * sim.Microsecond,
		NNIC:      16,
		NQP:       100,
		MTU:       1500,
		Factor:    1.5,
	}
}

// Flow-table entry layout (§4): 13 B QP ID + 3 B blocked ePSN + 1 B Valid +
// 3 B queue metadata.
const (
	QPIDBytes           = 13
	BlockedEPSNBytes    = 3
	ValidFlagBytes      = 1
	QueueMetaBytes      = 3
	FlowTableEntryBytes = QPIDBytes + BlockedEPSNBytes + ValidFlagBytes + QueueMetaBytes
	// QueueEntryBytes is the truncated PSN stored per ring slot.
	QueueEntryBytes = 1
)

// PathMapBytes is M_PathMap = N_paths × 2 bytes (Themis-S).
func (p Params) PathMapBytes() int { return p.NPaths * 2 }

// QueueEntries is N_entries = ⌈BW × RTT_last × F / MTU⌉.
func (p Params) QueueEntries() int {
	bdpBytes := float64(p.Bandwidth) / 8 * p.RTTLast.Seconds()
	return int(math.Ceil(bdpBytes * p.Factor / float64(p.MTU)))
}

// PerQPBytes is M_QP = 20 bytes + N_entries × 1 byte (Themis-D).
func (p Params) PerQPBytes() int {
	return FlowTableEntryBytes + p.QueueEntries()*QueueEntryBytes
}

// TotalBytes is Eq. 4: M_total = M_PathMap + M_QP × N_QP × N_NIC.
func (p Params) TotalBytes() int {
	return p.PathMapBytes() + p.PerQPBytes()*p.NQP*p.NNIC
}

// FractionOfSRAM returns M_total as a fraction of a switch SRAM size.
func (p Params) FractionOfSRAM(sramBytes int) float64 {
	return float64(p.TotalBytes()) / float64(sramBytes)
}

// Report renders the full §4 calculation as text (the `themis-sim memory` output).
func (p Params) Report() string {
	return fmt.Sprintf(`Themis memory overhead model (paper §4, Table 1)
  N_paths = %d   BW = %g Gbps   RTT_last = %v   N_NIC = %d   N_QP = %d   MTU = %d B   F = %g

Themis-S:
  M_PathMap = N_paths x 2 B                = %d B
Themis-D (per QP):
  N_entries = ceil(BW x RTT_last x F / MTU) = %d
  M_QP      = %d B flow-table entry + N_entries x 1 B = %d B
Total (Eq. 4):
  M_total   = M_PathMap + M_QP x N_QP x N_NIC = %d B (%.1f KB)
  fraction of 64 MB switch SRAM             = %.2f%%
`,
		p.NPaths, float64(p.Bandwidth)/1e9, p.RTTLast, p.NNIC, p.NQP, p.MTU, p.Factor,
		p.PathMapBytes(),
		p.QueueEntries(),
		FlowTableEntryBytes, p.PerQPBytes(),
		p.TotalBytes(), float64(p.TotalBytes())/1024,
		p.FractionOfSRAM(64<<20)*100)
}

// FatTree describes the §4 worked example fabric: a 3-layer fat-tree with
// switch port count K and 1:1 subscription.
type FatTree struct{ K int }

// Leaves returns the ToR (leaf) switch count, K²/2.
func (f FatTree) Leaves() int { return f.K * f.K / 2 }

// Spines returns the aggregation switch count, K²/2.
func (f FatTree) Spines() int { return f.K * f.K / 2 }

// Cores returns the core switch count, K²/4.
func (f FatTree) Cores() int { return f.K * f.K / 4 }

// Hosts returns the GPU/NIC count, K³/4.
func (f FatTree) Hosts() int { return f.K * f.K * f.K / 4 }

// MaxPaths returns the maximum equal-cost paths between a pair, (K/2)².
func (f FatTree) MaxPaths() int { return (f.K / 2) * (f.K / 2) }

// NICsPerToR returns K/2.
func (f FatTree) NICsPerToR() int { return f.K / 2 }

// Params derives Table 1 parameters from the fat-tree dimensions, keeping
// the paper's link/QP assumptions.
func (f FatTree) Params() Params {
	p := PaperDefaults()
	p.NPaths = f.MaxPaths()
	p.NNIC = f.NICsPerToR()
	return p
}

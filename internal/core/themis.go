package core

import (
	"fmt"
	"math"

	"themis/internal/lb"
	"themis/internal/memmodel"
	"themis/internal/obs"
	"themis/internal/packet"
	"themis/internal/sim"
	"themis/internal/topo"
	"themis/internal/trace"
)

// SprayMode selects how Themis-S enforces the PSN-based spraying policy.
type SprayMode int

const (
	// DirectSpray has the ToR pick the egress uplink from Eq. 1 directly.
	// Valid when the ToR's uplink choice fully determines the path (2-tier
	// Clos, §3.2 "Implementation limited to the ToR switch").
	DirectSpray SprayMode = iota
	// PathMapSpray rewrites the UDP source port through an offline PathMap
	// so that downstream ECMP deterministically realizes path (PSN mod N)
	// (multi-tier Clos, §3.2 / [37]). The fabric's data selector must be
	// ECMP.
	PathMapSpray
)

// String returns the mode mnemonic.
func (m SprayMode) String() string {
	switch m {
	case DirectSpray:
		return "direct"
	case PathMapSpray:
		return "pathmap"
	default:
		return fmt.Sprintf("SprayMode(%d)", int(m))
	}
}

// Config parameterizes a Themis instance (one per ToR switch). It is also the
// Themis block of a serialized scenario (workload.ClusterConfig.Themis): the
// ablation knobs carry JSON tags, while Mode and the runtime hooks do not
// serialize, so no scenario file sets them.
type Config struct {
	// Mode selects the Themis-S mechanism (default DirectSpray).
	Mode SprayMode `json:"-"`
	// QueueFactor is F, the PSN-queue capacity expansion factor over the
	// last-hop BDP (§3.3/§4; default 1.5).
	QueueFactor float64 `json:"queue_factor,omitempty"`
	// DisableCompensation turns off the §3.4 NACK compensation (ablation:
	// blocked-but-real losses must wait for the sender's RTO).
	DisableCompensation bool `json:"disable_compensation,omitempty"`
	// FallbackOnFailure makes the ToR disable Themis and revert to ECMP
	// while any of its fabric links is down (§6).
	FallbackOnFailure bool `json:"fallback_on_failure,omitempty"`
	// PathSubset, if positive, restricts each flow to this many of its N
	// equal-cost paths (the §6 future-work extension). The subset is chosen
	// per flow from P_base, so different flows cover different paths while
	// each flow's Eq. 1/Eq. 3 arithmetic runs modulo the subset size. Must
	// be configured identically on the source and destination ToRs of a
	// flow (it is part of the connection-setup handshake in deployment).
	PathSubset int `json:"path_subset,omitempty"`
	// TableBudgetBytes caps the SRAM charged to per-QP flow state on this
	// ToR (both roles), enforcing the §4 memory model at run time: every
	// entry is charged its Table 1 footprint (flow-table entry bytes plus,
	// for Themis-D, the ring queue slots; for Themis-S, the per-flow PathMap)
	// and a registration that would exceed the budget evicts idle/LRU entries
	// to make room. When no victim is evictable the flow is rejected and runs
	// unmanaged — it degrades to ECMP and conservative NACK forwarding,
	// exactly like the post-reboot relearn path. Zero means unbounded (the
	// historical behaviour). See TableBudget to derive a value from
	// memmodel.Params.
	TableBudgetBytes int `json:"table_budget_bytes,omitempty"`
	// IdleTimeout enables lazy reclamation of idle flow-table entries: an
	// entry untouched for this long may be evicted by SweepIdle (run
	// opportunistically on every registration) even without budget pressure.
	// Requires Clock. Zero disables idle eviction; entries are then reclaimed
	// only by UnregisterFlow or budget pressure.
	IdleTimeout sim.Duration `json:"idle_timeout,omitempty"`
	// Relearn makes the ToR rebuild per-QP flow state from live traffic
	// after a state loss (Reboot): a data or NACK packet for an unknown QP
	// re-registers the flow from its header fields, exactly as the
	// connection-setup interception would have. The rebuilt Themis-D state
	// starts with an empty ring and no armed compensation, so the first
	// NACKs after a reboot fall through the conservative scan-miss path
	// (forwarded) rather than being blocked — a rebooted ToR can cause
	// spurious retransmissions but never suppress a valid NACK.
	Relearn bool `json:"relearn,omitempty"`
	// Tracer, if non-nil, records middleware verdicts (spray, block,
	// forward, compensate); see package trace. Requires Clock.
	Tracer *trace.Tracer `json:"-"`
	// Clock supplies timestamps for trace events (normally the sim.Engine).
	Clock interface{ Now() sim.Time } `json:"-"`
	// Pool, if non-nil, supplies packets for compensation NACKs. Share it
	// with fabric.Config.Pool. Nil allocates normally.
	Pool *packet.Pool `json:"-"`
	// Metrics, if non-nil, receives this instance's live flow-table state as
	// additive gauges (see registerMetrics). Share one registry across all
	// ToRs to get cluster-wide totals.
	Metrics *obs.Registry `json:"-"`
}

// Stats counts Themis events on one ToR.
type Stats struct {
	Sprayed               uint64 // data packets steered by Themis-S
	NacksSeen             uint64 // NACKs inspected by Themis-D
	NacksForwarded        uint64 // valid NACKs passed through
	NacksBlocked          uint64 // invalid NACKs blocked
	Compensations         uint64 // compensation NACKs generated (§3.4)
	CompensationCancelled uint64 // BePSN arrived (bypassed or not): blocked NACK proven spurious
	ScanMisses            uint64 // NACKs whose tPSN was not found in the ring
	RingOverflows         uint64 // ring evictions (undersized queue)
	Bypassed              uint64 // packets passed through while disabled (failure mode)
	Reboots               uint64 // simulated state losses (Reboot calls)
	Relearns              uint64 // flows re-registered from live traffic after a reboot
	Evictions             uint64 // entries reclaimed by the lifecycle layer (budget or idle)
	IdleEvictions         uint64 // subset of Evictions reclaimed by SweepIdle
	TableFull             uint64 // registrations rejected: budget exhausted, no victim
	Unregistered          uint64 // entries retired explicitly via UnregisterFlow
	UnknownNacksForwarded uint64 // NACKs for unknown/evicted QPs passed through unfiltered
}

// flowState is the per-QP state of Table "FlowTable" in Fig. 4a: ring queue
// metadata plus the blocked-ePSN/valid pair, and the spraying parameters.
type flowState struct {
	src, dst packet.NodeID
	nPaths   int
	flowHash uint32   // seeded ECMP hash at this ToR (P_base source)
	pathMap  []uint16 // PathMapSpray: Δsport per path index (nil in direct mode)

	ring *psnRing

	// NACK-compensation fields (§3.4).
	bepsn packet.PSN
	valid bool

	// Lifecycle fields (see lifecycle.go): key back-reference, role, charged
	// Table 1 footprint, last-touch clock, and intrusive LRU links (a list,
	// not map iteration, so victim selection is O(1) and deterministic).
	qp        packet.QPID
	isDst     bool
	bytes     int
	lastTouch sim.Time
	lruPrev   *flowState
	lruNext   *flowState
}

// Themis is the middleware instance on one ToR switch. It implements
// fabric.TorPipeline. A single instance plays both the Themis-S role (for
// flows entering the fabric here) and the Themis-D role (for flows whose
// receiver is attached here); per-QP state is registered explicitly, which
// models the paper's connection-setup interception.
type Themis struct {
	topology *topo.Topology
	swID     int
	cfg      Config

	// Themis-S state: flows sourced under this ToR.
	srcFlows map[packet.QPID]*flowState
	// Themis-D state: flows terminating under this ToR.
	dstFlows map[packet.QPID]*flowState
	// relearnIgnored caches QPs a relearn attempt declined to register
	// (same-rack, single-path, or registration error) so the hot path does
	// not retry them on every packet.
	relearnIgnored map[packet.QPID]struct{}

	// Lifecycle state: intrusive LRU over all entries (head = coldest) and
	// the SRAM currently charged against Config.TableBudgetBytes.
	lruHead    *flowState
	lruTail    *flowState
	tableBytes int

	downPorts int
	// The bypass state is two independent latches so the §6 failure response
	// and the operator/cluster disable cannot clobber each other: repairing
	// this ToR's last down link clears only failDisabled, never an operator
	// hold, and vice versa.
	adminDisabled bool // operator/cluster hold (SetDisabled)
	failDisabled  bool // §6 FallbackOnFailure while any local link is down

	stats Stats
}

// New creates the Themis instance for ToR switch swID. Install it with
// fabric.Network.SetTorPipeline.
func New(t *topo.Topology, swID int, cfg Config) *Themis {
	if cfg.QueueFactor == 0 {
		cfg.QueueFactor = 1.5
	}
	th := &Themis{
		topology: t,
		swID:     swID,
		cfg:      cfg,
		srcFlows: make(map[packet.QPID]*flowState),
		dstFlows: make(map[packet.QPID]*flowState),
	}
	th.registerMetrics(cfg.Metrics)
	return th
}

// registerMetrics exposes what the Stats block does not count: the SRAM and
// entries the flow table holds right now, as additive gauges. Pull-based
// (evaluated only at Snapshot time), so enabling metrics costs nothing per
// packet. No-op on a nil registry.
func (th *Themis) registerMetrics(r *obs.Registry) {
	r.GaugeFunc("themis.table_bytes", func() float64 { return float64(th.tableBytes) })
	r.GaugeFunc("themis.flows", func() float64 { return float64(len(th.srcFlows) + len(th.dstFlows)) })
}

// Stats returns a snapshot of this instance's counters.
func (th *Themis) Stats() Stats { return th.stats }

// Disabled reports whether Themis is currently bypassing itself, for any
// reason: an operator hold (SetDisabled) or the §6 failure response.
func (th *Themis) Disabled() bool { return th.adminDisabled || th.failDisabled }

// bypassed is the hot-path alias of Disabled.
func (th *Themis) bypassed() bool { return th.adminDisabled || th.failDisabled }

// SetDisabled sets or clears the operator/cluster hold. It is a latch
// independent of the failure-driven one: link repairs never clear it, and
// clearing it does not re-enable a ToR that still has down links under
// FallbackOnFailure.
func (th *Themis) SetDisabled(v bool) { th.adminDisabled = v }

// DownPorts returns the number of this ToR's fabric links currently down, as
// tracked from LinkStateChanged notifications.
func (th *Themis) DownPorts() int { return th.downPorts }

// Reboot simulates a power-cycle of the middleware: the flow table and every
// per-QP ring queue are lost mid-flow, exactly what a ToR reboot does to the
// paper's Fig. 4a state. Registered flows become unknown QPs — their NACKs
// are forwarded unmodified (never blocked) until state is rebuilt, either by
// re-running connection setup (RegisterFlow) or, with Config.Relearn, lazily
// from live traffic. Counters and link state survive (they model the
// monitoring plane, not switch SRAM).
func (th *Themis) Reboot() {
	th.srcFlows = make(map[packet.QPID]*flowState)
	th.dstFlows = make(map[packet.QPID]*flowState)
	th.relearnIgnored = nil
	th.lruHead, th.lruTail = nil, nil
	th.tableBytes = 0
	th.stats.Reboots++
	if th.cfg.Tracer != nil && th.cfg.Clock != nil {
		th.cfg.Tracer.RecordFault(th.cfg.Clock.Now(), trace.FaultReset, th.swID, -1)
	}
}

// relearn attempts to rebuild flow state for an unknown QP from packet header
// fields (Config.Relearn). Declined registrations are cached so the per-packet
// cost is one map lookup.
//
//lint:alloc-ok per-flow (re)registration control branch, charged against the table budget; not per-packet work
func (th *Themis) relearn(qp packet.QPID, src, dst packet.NodeID, sport uint16) {
	if _, skip := th.relearnIgnored[qp]; skip {
		return
	}
	// A failed registration (e.g. direct spray on an asymmetric fabric) is
	// treated like an unmanaged flow rather than retried per packet — except
	// ErrTableFull, which is transient (armed entries disarm, budget frees):
	// caching it would permanently unmanage a flow that was merely unlucky.
	if err := th.RegisterFlow(qp, src, dst, sport); err == ErrTableFull {
		return
	}
	_, isSrc := th.srcFlows[qp]
	_, isDst := th.dstFlows[qp]
	if isSrc || isDst {
		th.stats.Relearns++
		return
	}
	if th.relearnIgnored == nil {
		th.relearnIgnored = make(map[packet.QPID]struct{})
	}
	th.relearnIgnored[qp] = struct{}{}
}

// PendingCompensations counts destination flows with an armed compensation
// (BePSN recorded, Valid set): blocked NACKs whose verdict is still open.
// After traffic drains it must be possible for these to be zero or resolve
// via the sender's RTO — the chaos invariant checker asserts exactly that.
// A bypass window (§6) arms nothing, fires nothing and still disarms: the
// BePSN's delivery clears Valid whether or not Themis is bypassed.
func (th *Themis) PendingCompensations() int {
	n := 0
	for _, fs := range th.dstFlows {
		if fs.valid {
			n++
		}
	}
	return n
}

// RingStats sums ring-queue occupancy over destination flows: entries can
// never exceed capacity (entries are evicted, not leaked).
func (th *Themis) RingStats() (entries, capacity int, overflows uint64) {
	for _, fs := range th.dstFlows { //lint:ordered commutative integer sums over every flow; the totals are iteration-order-independent
		entries += fs.ring.Len()
		capacity += fs.ring.Cap()
		overflows += fs.ring.Overflows()
	}
	return entries, capacity, overflows
}

// FlowCounts returns the number of flows registered in the Themis-S and
// Themis-D roles.
func (th *Themis) FlowCounts() (src, dst int) {
	return len(th.srcFlows), len(th.dstFlows)
}

// RegisterFlow announces a QP to this ToR — the simulation analogue of the
// paper's RNIC-handshake interception. It must be called on the source ToR
// (Themis-S role) and the destination ToR (Themis-D role); calling it on a
// switch that is neither is a no-op. Same-rack flows (a single path) are
// ignored: Themis only operates on cross-rack QPs (§4).
//
// Under a finite Config.TableBudgetBytes the table is a bounded cache:
// registering may first sweep idle entries and evict LRU victims, and returns
// ErrTableFull when no room can be made (all residents protected by an armed
// compensation). A rejected flow is unmanaged, not broken — it runs over
// plain ECMP with NACKs forwarded, and relearn retries it later.
func (th *Themis) RegisterFlow(qp packet.QPID, src, dst packet.NodeID, sport uint16) error {
	// Ownership first: the cluster offers every flow to every ToR, and the
	// path count is a walk of the topology (1 for a same-rack flow).
	isSrc := th.topology.ToROf(src) == th.swID
	isDst := th.topology.ToROf(dst) == th.swID
	if !isSrc && !isDst {
		return nil
	}
	full := th.topology.PathCount(src, dst)
	if full < 2 {
		return nil
	}
	th.SweepIdle()
	// Re-registration (connection-setup retry, or a stale entry for a reused
	// QP number) replaces the old entry rather than leaking its charge.
	if th.UnregisterFlow(qp) {
		th.stats.Unregistered-- // internal replacement, not an observable retirement
	}
	n := full
	if th.cfg.PathSubset > 0 && th.cfg.PathSubset < n {
		// §6 extension: spray over a flow-specific subset of the paths.
		n = th.cfg.PathSubset
	}
	key := packet.FlowKey{Src: src, Dst: dst, SPort: sport, DPort: packet.RoCEv2Port}
	fs := &flowState{
		src:      src,
		dst:      dst,
		nPaths:   n,
		flowHash: lb.Hash(key) ^ lb.SwitchSeed(th.swID),
		qp:       qp,
	}
	if isSrc {
		if th.cfg.Mode == PathMapSpray {
			// Charge the budget before the PathMap build so a rejected flow
			// costs no allocation on the (possibly per-packet) relearn path.
			if !th.ensureRoom(memmodel.FlowTableEntryBytes + 2*n) {
				th.stats.TableFull++
				return ErrTableFull
			}
			pm, err := BuildPathMap(th.topology, key, n)
			if err != nil {
				return fmt.Errorf("core: building PathMap for qp %d: %w", qp, err)
			}
			fs.pathMap = pm
		} else {
			// Direct mode requires the ToR uplink choice to determine the
			// whole path: the number of uplink candidates must equal the
			// full path count (the subset is carved out of them at spray
			// time).
			cands := th.topology.CandidatePorts(th.swID, dst)
			if len(cands) != full {
				return fmt.Errorf("core: direct spray needs one uplink per path (have %d uplinks, %d paths); use PathMapSpray", len(cands), full)
			}
			if !th.ensureRoom(memmodel.FlowTableEntryBytes) {
				th.stats.TableFull++
				return ErrTableFull
			}
		}
		th.srcFlows[qp] = fs
	} else {
		ringCap := th.ringCapacity(dst)
		if !th.ensureRoom(memmodel.FlowTableEntryBytes + ringCap*memmodel.QueueEntryBytes) {
			th.stats.TableFull++
			return ErrTableFull
		}
		fs.ring = newPSNRing(ringCap)
		fs.isDst = true
		th.dstFlows[qp] = fs
	}
	th.install(fs)
	return nil
}

// ringCapacity sizes the per-QP PSN queue from the last-hop BDP (§3.3):
// slightly more than BDP/MTU (packet.DefaultMTU, the RNIC's), scaled by the
// expansion factor F.
func (th *Themis) ringCapacity(dst packet.NodeID) int {
	a := th.topology.HostAttach(dst)
	rtt := 2 * a.Delay // last-hop round trip
	bdpBytes := float64(a.Bandwidth) / 8 * rtt.Seconds()
	entries := int(math.Ceil(bdpBytes / packet.DefaultMTU * th.cfg.QueueFactor))
	if entries < 1 {
		entries = 1
	}
	return entries
}

// --- fabric.TorPipeline implementation ---

// SelectUplink implements Themis-S: Eq. 1 steering of data packets.
func (th *Themis) SelectUplink(pkt *packet.Packet, cands []int) (int, bool) {
	fs, ok := th.srcFlows[pkt.QP]
	if !ok {
		if th.cfg.Relearn && !th.bypassed() {
			th.relearn(pkt.QP, pkt.Src, pkt.Dst, pkt.SPort)
			fs, ok = th.srcFlows[pkt.QP]
		}
		if !ok {
			return 0, false
		}
	}
	if th.bypassed() {
		th.stats.Bypassed++
		return 0, false // ECMP fallback (§6)
	}
	th.touch(fs)
	th.stats.Sprayed++
	th.trace(trace.Spray, pkt)
	if fs.pathMap != nil {
		// Multi-tier: rewrite the entropy field; downstream ECMP realizes
		// the deterministic path for PSN mod N.
		j := pkt.PSN.Mod(fs.nPaths)
		pkt.SPort ^= fs.pathMap[j]
		return 0, false
	}
	// 2-tier: pick the uplink directly. The flow's P_base is spread over
	// all uplinks; the flow then cycles through nPaths consecutive ones
	// (nPaths < len(cands) only under the PathSubset extension).
	base := lb.Index(fs.flowHash, len(cands))
	idx := (base + pkt.PSN.Mod(fs.nPaths)) % len(cands)
	return cands[idx], true
}

// OnDeliverToHost implements the Themis-D last-hop observation point: it
// records the PSN in the ring queue (§3.3) and runs the compensation state
// machine (§3.4). Returned packets are compensation NACKs the fabric routes
// back to the sender.
func (th *Themis) OnDeliverToHost(pkt *packet.Packet) []*packet.Packet {
	fs, ok := th.dstFlows[pkt.QP]
	if !ok && th.cfg.Relearn && !th.bypassed() {
		// State loss: rebuild Themis-D state from the live data packet. The
		// fresh ring starts empty, so classification restarts conservatively.
		th.relearn(pkt.QP, pkt.Src, pkt.Dst, pkt.SPort)
		fs, ok = th.dstFlows[pkt.QP]
	}
	if !ok {
		return nil
	}
	armed := fs.valid && !th.cfg.DisableCompensation
	if armed && pkt.PSN == fs.bepsn {
		// The blocked NACK's packet arrived after all: no loss. This edge
		// runs even while bypassed (§3.4 × §6) — the window is otherwise
		// unobserved, and an entry left armed across it would fire for a PSN
		// delivered long ago, or stay armed and pin its table entry forever.
		fs.valid, armed = false, false
		th.stats.CompensationCancelled++
	}
	if th.bypassed() {
		return nil
	}
	th.touch(fs)
	var out []*packet.Packet
	if armed && pkt.PSN.After(fs.bepsn) && pkt.PSN.Mod(fs.nPaths) == fs.bepsn.Mod(fs.nPaths) {
		// A later packet on the same path arrived: the BePSN packet is
		// confirmed lost. Generate the NACK the RNIC cannot (§3.4).
		fs.valid = false
		th.stats.Compensations++
		nack := th.cfg.Pool.Control(packet.Nack, fs.dst, fs.src, pkt.QP, pkt.SPort, fs.bepsn)
		// Trace the generated NACK, not the triggering data packet: the
		// event then carries PSN=BePSN and lands in the ledger entry of
		// the blocked NACK it stands in for.
		th.trace(trace.Compensate, nack)
		out = append(out, nack)
	}
	if fs.ring.Push(pkt.PSN.Trunc()) {
		// Incremental: the ring reports its own eviction, so the hot path
		// stays O(1) in the number of registered flows. (The counter is also
		// monotone across Reboot/eviction now — it no longer gets recomputed
		// from whatever rings happen to be resident.)
		th.stats.RingOverflows++
	}
	return out
}

// FilterHostControl implements Themis-D NACK validation (§3.3): identify the
// tPSN from the ring queue, apply Eq. 3, forward valid NACKs and block
// invalid ones (recording BePSN for compensation).
func (th *Themis) FilterHostControl(pkt *packet.Packet) bool {
	if pkt.Kind != packet.Nack {
		return true
	}
	fs, ok := th.dstFlows[pkt.QP]
	if !ok && th.cfg.Relearn && !th.bypassed() {
		// The NACK travels receiver -> sender, so the flow's data direction
		// is (pkt.Dst -> pkt.Src); control packets reuse the forward sport.
		th.relearn(pkt.QP, pkt.Dst, pkt.Src, pkt.SPort)
		fs, ok = th.dstFlows[pkt.QP]
	}
	if !ok {
		// Unknown QP mid-flow is the degradation mode shared by reboot,
		// eviction, and table-full rejection: forward the NACK unmodified —
		// a spurious retransmission is always cheaper than a suppressed
		// valid NACK. Counted so the churn invariants can prove the
		// conservative path actually ran (non-vacuity).
		if !th.bypassed() {
			th.stats.UnknownNacksForwarded++
		}
		return true
	}
	if th.bypassed() {
		return true
	}
	th.touch(fs)
	th.stats.NacksSeen++
	tpsn, found := fs.ring.ScanFor(pkt.PSN.Trunc())
	if !found {
		// No in-flight PSN after the ePSN: the trigger left the window.
		// Forward conservatively — a spurious retransmission is cheaper
		// than a lost valid NACK.
		th.stats.ScanMisses++
		th.stats.NacksForwarded++
		return true
	}
	// Eq. 3 via the truncated delta: paths match iff (tPSN-ePSN) ≡ 0 mod N.
	// The delta is exact because the in-flight window is < 128 PSNs.
	delta := seqDelta(tpsn, pkt.PSN.Trunc())
	if int(delta)%fs.nPaths == 0 {
		th.stats.NacksForwarded++
		th.trace(trace.NackForwarded, pkt)
		return true
	}
	// Invalid: block, arm compensation (§3.4) — unless the expected packet
	// already departed towards the NIC while this NACK was in flight (it
	// sits behind the trigger in the ring), in which case nothing was lost
	// and no compensation may ever fire.
	th.stats.NacksBlocked++
	th.trace(trace.NackBlocked, pkt)
	if fs.ring.Contains(pkt.PSN.Trunc()) {
		th.stats.CompensationCancelled++
		fs.valid = false
		return false
	}
	fs.bepsn = pkt.PSN
	fs.valid = true
	return false
}

// trace records a middleware event when tracing is configured.
func (th *Themis) trace(op trace.Op, pkt *packet.Packet) {
	if th.cfg.Tracer == nil || th.cfg.Clock == nil {
		return
	}
	th.cfg.Tracer.RecordPacket(th.cfg.Clock.Now(), op, th.swID, -1, pkt)
}

// LinkStateChanged implements the §6 failure response: when any of this
// ToR's fabric links is down, Themis disables itself and the switch reverts
// to its configured (ECMP) selector. Only the failure latch is driven here —
// an operator hold (SetDisabled) survives any sequence of link repairs.
//
// The fabric delivers a synthetic "down" edge for every already-down port
// when the pipeline is installed (fabric.SetTorPipeline), so downPorts is
// correct even on a switch that was degraded before Themis attached. The
// up-edge clamp guards against double-repair notifications ever driving the
// counter negative and wedging the latch logic.
func (th *Themis) LinkStateChanged(port int, up bool) {
	if up {
		if th.downPorts > 0 {
			th.downPorts--
		}
	} else {
		th.downPorts++
	}
	if th.cfg.FallbackOnFailure {
		th.failDisabled = th.downPorts > 0
	}
}

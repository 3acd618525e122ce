// Package fabric is the switch dataplane of the simulator. It turns a static
// topo.Topology into a running network on a sim.Engine: output-queued
// switches with a shared buffer, RED/ECN marking, per-port store-and-forward
// serialization, propagation delays, link failures and injected loss.
//
// ToR switches expose a TorPipeline hook — the deployment point of Themis
// (§3.1: both Themis-S and Themis-D live only on ToR switches). The hook can
// steer data packets entering the fabric (Themis-S packet spraying), observe
// data packets leaving towards a host (Themis-D PSN queue + NACK
// compensation) and filter control packets arriving from a host (Themis-D
// NACK blocking).
package fabric

import (
	"themis/internal/lb"
	"themis/internal/obs"
	"themis/internal/packet"
	"themis/internal/route"
	"themis/internal/sim"
	"themis/internal/topo"
	"themis/internal/trace"
)

// ECNConfig is RED-style marking applied to data packets at egress queues,
// as DCQCN requires.
type ECNConfig struct {
	Enabled   bool
	KminBytes int     // below: never mark
	KmaxBytes int     // above: always mark
	PMax      float64 // marking probability at Kmax
}

// DefaultECN returns the common DCQCN marking profile scaled to a link rate:
// Kmin ≈ 100 KB and Kmax ≈ 400 KB at 100 Gbps, scaled linearly.
func DefaultECN(linkBps int64) ECNConfig {
	scale := float64(linkBps) / 100e9
	return ECNConfig{
		Enabled:   true,
		KminBytes: int(100e3 * scale),
		KmaxBytes: int(400e3 * scale),
		PMax:      0.2,
	}
}

// TorPipeline is the programmable-ToR hook (the Themis deployment surface).
// All methods are invoked synchronously on the simulation goroutine.
type TorPipeline interface {
	// SelectUplink is consulted for data packets that enter the fabric at
	// this ToR from a locally attached host and need an uplink. cands is the
	// equal-cost port set (ascending). Return (port, true) to force a port,
	// or false to defer to the switch's configured selector (e.g. after the
	// pipeline has rewritten the packet's UDP source port).
	SelectUplink(pkt *packet.Packet, cands []int) (int, bool)
	// OnDeliverToHost observes a data packet at the moment it is enqueued on
	// the ToR→host port (the paper's "before they leave the ToR switch",
	// §3.3). Returned packets (e.g. compensation NACKs) are injected into
	// this switch and routed normally toward their destinations.
	OnDeliverToHost(pkt *packet.Packet) []*packet.Packet
	// FilterHostControl is called for every ACK/NACK arriving at this ToR
	// from an attached host. Returning false blocks (drops) the packet.
	FilterHostControl(pkt *packet.Packet) bool
	// LinkStateChanged notifies the pipeline that one of this ToR's fabric
	// links changed state (the §6 failure-tolerance hook).
	LinkStateChanged(port int, up bool)
}

// Config parameterizes the dataplane.
type Config struct {
	// BufferBytes is the shared packet buffer per switch; data packets that
	// would exceed it are dropped. Zero means unlimited.
	BufferBytes int
	// ECN is the marking profile for data packets.
	ECN ECNConfig
	// NewDataSelector constructs the per-switch selector for data packets.
	// A factory (not a shared instance) because some selectors (flowlet)
	// carry per-switch state. Defaults to ECMP.
	NewDataSelector func() lb.Selector
	// LossFunc, if set, is consulted at every switch egress enqueue of a
	// data packet — and of control packets too when ControlLossless is false;
	// returning true drops the packet (fault injection).
	LossFunc func(pkt *packet.Packet, sw, port int) bool
	// ControlLossless exempts ACK/NACK/CNP from buffer accounting and drops,
	// modeling their strict priority in RoCE deployments. Default true via
	// NewNetwork.
	ControlLossless bool
	// Tracer, if non-nil, records packet life-cycle events (see package
	// trace). Nil disables tracing at negligible cost.
	Tracer *trace.Tracer
	// PFC enables per-ingress Priority Flow Control for the data class.
	PFC PFCConfig
	// Pool, if non-nil, receives packets back when they reach a terminal:
	// delivered to a host (after the receive callback returns), dropped, or
	// blocked by a ToR pipeline. Producers (RNICs, Themis compensation) should
	// Get from the same pool. Nil keeps the historical allocate-and-GC
	// behaviour — required by tests that retain delivered packets.
	Pool *packet.Pool
	// Metrics, if non-nil, receives the distributed routing plane's
	// "route.msgs" and "route.episodes" gauges (pull-based: read only at
	// Snapshot time). The Counters are not re-exported: a trial's record
	// (workload.Outcome.Net) already carries them.
	Metrics *obs.Registry
	// Routing selects how candidate egress ports react to link events:
	// route.Oracle (default) is the historical instant global recompute;
	// route.Distributed gives every switch its own BGP-style RIB/FIB that
	// reconverges hop-by-hop with Routing.PerHopDelay per message, so
	// forwarding during the window uses honestly stale state.
	Routing route.Config
}

// Counters aggregates network-wide statistics.
type Counters struct {
	Delivered   uint64 // packets handed to host receivers
	DataDrops   uint64 // data packets dropped (buffer overflow or LossFunc)
	CtrlDrops   uint64 // control packets dropped (only if !ControlLossless)
	EcnMarks    uint64 // CE marks applied
	Blocked     uint64 // control packets blocked by a ToR pipeline
	Compensated uint64 // packets injected by ToR pipelines (compensation NACKs)
	LinkDrops   uint64 // packets dropped on failed links
	// LoopDrops counts packets whose TTL reached zero — forwarding loops,
	// expected only inside routing reconvergence windows.
	LoopDrops uint64
	// SteadyLoopDrops is the subset of LoopDrops that indict the routing
	// plane: the packet was injected under the current quiescent epoch, so
	// no reconvergence window can excuse the loop. Must stay zero.
	SteadyLoopDrops uint64
	// WatchdogFires counts PFC deadlock-watchdog activations; WatchdogDrops
	// the data packets those flushes discarded (see PFCConfig.WatchdogTimeout).
	WatchdogFires uint64
	WatchdogDrops uint64
}

// Network is the running dataplane.
type Network struct {
	topology *topo.Topology
	cfg      Config

	switches []*swInst
	hostRecv []func(*packet.Packet)
	hostUp   []*outQueue // host→ToR serializers, indexed by host

	// plane is the distributed control plane (nil in oracle mode).
	plane *route.Plane

	// Oracle-mode incremental reconvergence state: when any fabric link is
	// down or drained, per-destination candidate tables are computed lazily
	// on first use and invalidated in O(switches) on the next link event,
	// instead of paying a fabric-wide recompute on every SetLinkState edge.
	downLinks    int // fabric links currently down
	drainedLinks int // fabric links currently drained
	dstValid     []bool
	dstRoutes    [][][]int // [dstTor][sw] = candidate egress ports

	// group holds the per-shard engines and the mailboxes cross-shard links
	// post into; counters and pools are the per-shard blocks components
	// charge during an epoch. On one shard every slice has length 1 and
	// nothing is ever posted.
	group    *sim.ShardGroup
	counters []Counters
	pools    []*packet.Pool

	// seed is the trial seed every switch's RNG stream derives from (see
	// swInst.Rand).
	seed int64
}

// wire builds the dataplane: it creates every switch, egress queue and host
// uplink serializer and is the one place that assigns each its shard's
// engine, counter block and pool and its channel priorities.
//
// There is one set of tie-breaks, whatever the shard count: every link's
// deliveries — host-facing hops included — are stamped 2·chanID and the pause
// frames addressed to it 2·chanID+1, and a switch
// draws from a stream keyed by its ID under seed, so neither draws nor
// same-time order at a component depend on which engine scheduled what.
func wire(group *sim.ShardGroup, t *topo.Topology, part topo.Partition, pools []*packet.Pool, seed int64, cfg Config) *Network {
	if cfg.NewDataSelector == nil {
		cfg.NewDataSelector = func() lb.Selector { return lb.ECMP{} }
	}
	n := &Network{
		topology: t,
		cfg:      cfg,
		switches: make([]*swInst, t.NumSwitches()),
		hostRecv: make([]func(*packet.Packet), t.NumHosts()),
		hostUp:   make([]*outQueue, t.NumHosts()),
		group:    group,
		counters: make([]Counters, part.Shards),
		pools:    pools,
		seed:     seed,
	}
	if cfg.Routing.Mode == route.Distributed {
		n.plane = route.NewPlane(group.Shard(0), t, cfg.Routing)
		cfg.Metrics.GaugeFunc("route.msgs", func() float64 { return float64(n.plane.MessagesSent()) })
		cfg.Metrics.GaugeFunc("route.episodes", func() float64 { return float64(n.plane.Episodes()) })
	} else {
		n.dstValid = make([]bool, t.NumSwitches())
		n.dstRoutes = make([][][]int, t.NumSwitches())
	}

	// chanID enumeration order (switch ID, then port; hosts after all
	// switches) is a pure function of the topology, never of the partition —
	// the invariance of the stamped priorities depends on that.
	chanID := uint64(0)
	own := func(q *outQueue, shard int) {
		q.shard = shard
		q.eng = group.Shard(shard)
		q.ctr = &n.counters[shard]
		q.pool = pools[shard]
		chanID++
		q.pri, q.pausePri = chanID*2, chanID*2+1
		q.bind()
	}
	for _, sw := range t.Switches() {
		shard := part.SwitchShard[sw.ID]
		s := newSwInst(n, sw)
		s.shard = shard
		s.eng = group.Shard(shard)
		s.ctr = &n.counters[shard]
		s.pool = pools[shard]
		n.switches[sw.ID] = s
		for pi, q := range s.ports {
			own(q, shard)
			p := &sw.Ports[pi]
			if p.IsHostPort() {
				continue
			}
			if peerShard := part.SwitchShard[p.PeerSwitch]; peerShard != shard {
				q.post = func(pkt *packet.Packet, at sim.Time) {
					group.PostArg(shard, peerShard, at, q.pri, q.deliverFn, pkt)
				}
			}
		}
	}
	for h := range n.hostUp {
		a := t.HostAttach(packet.NodeID(h))
		sw, inPort := n.switches[a.Switch], a.Port
		q := &outQueue{
			net:     n,
			bw:      a.Bandwidth,
			delay:   a.Delay,
			deliver: func(p *packet.Packet) { sw.receive(p, inPort) },
		}
		own(q, part.HostShard[h])
		n.hostUp[h] = q
	}
	return n
}

// NewNetwork builds the dataplane for a topology on one engine: the one-shard
// case of NewShardedNetwork, its streams seeded from the engine's construction
// seed and cfg.Pool (nil: no recycling) as its one pool. Hosts start
// detached; packets to a detached host are delivered to a no-op sink.
func NewNetwork(engine *sim.Engine, t *topo.Topology, cfg Config) *Network {
	group := sim.NewShardGroup([]*sim.Engine{engine}, sim.Duration(sim.Forever))
	part := topo.Partition{Shards: 1, SwitchShard: make([]int, t.NumSwitches()), HostShard: make([]int, t.NumHosts())}
	return wire(group, t, part, []*packet.Pool{cfg.Pool}, engine.Seed(), cfg)
}

// Counters returns a snapshot of network-wide counters: the per-shard blocks
// summed in shard-index order.
func (n *Network) Counters() Counters {
	var c Counters
	for i := range n.counters {
		c.add(&n.counters[i])
	}
	return c
}

// add folds another counter block into c (all fields are sums).
func (c *Counters) add(o *Counters) {
	c.Delivered += o.Delivered
	c.DataDrops += o.DataDrops
	c.CtrlDrops += o.CtrlDrops
	c.EcnMarks += o.EcnMarks
	c.Blocked += o.Blocked
	c.Compensated += o.Compensated
	c.LinkDrops += o.LinkDrops
	c.LoopDrops += o.LoopDrops
	c.SteadyLoopDrops += o.SteadyLoopDrops
	c.WatchdogFires += o.WatchdogFires
	c.WatchdogDrops += o.WatchdogDrops
}

// AttachHost registers the receive callback of host h.
func (n *Network) AttachHost(h packet.NodeID, recv func(*packet.Packet)) {
	n.hostRecv[h] = recv
}

// SetTorPipeline installs a TorPipeline on switch sw (must host at least one
// host port to ever see pipeline events). The pipeline is immediately told
// about every fabric port that is already down: LinkStateChanged otherwise
// only reports edges, so a pipeline installed (or reinstalled after a switch
// reboot) on a degraded switch would believe all links are up and, under
// FallbackOnFailure, fail to disable itself.
func (n *Network) SetTorPipeline(sw int, p TorPipeline) {
	s := n.switches[sw]
	s.pipeline = p
	if p == nil {
		return
	}
	for port, up := range s.portUp {
		if !up && !s.sw.Ports[port].IsHostPort() {
			p.LinkStateChanged(port, false)
		}
	}
}

// SetLossFunc installs (or replaces) the loss-injection hook after
// construction; see Config.LossFunc.
func (n *Network) SetLossFunc(f func(pkt *packet.Packet, sw, port int) bool) {
	n.cfg.LossFunc = f
}

// Inject transmits pkt from host h over its access link. The packet is
// stamped with a hop limit and the current routing epoch.
func (n *Network) Inject(h packet.NodeID, pkt *packet.Packet) {
	up := n.hostUp[h]
	n.stampHop(pkt)
	n.cfg.Tracer.RecordPacket(up.eng.Now(), trace.HostTx, -1, -1, pkt)
	up.enqueue(pkt)
}

// stampHop gives a packet entering the fabric its hop limit (unless a test
// pre-set a smaller one) and the current routing epoch.
func (n *Network) stampHop(pkt *packet.Packet) {
	if pkt.TTL == 0 {
		pkt.TTL = packet.DefaultTTL
	}
	pkt.RouteEpoch = n.routeEpoch()
}

// HostUplinkBytes returns the queued bytes on host h's access link,
// giving transports visibility into local backlog (used by tests).
func (n *Network) HostUplinkBytes(h packet.NodeID) int { return n.hostUp[h].bytes }

// QueueBytes returns the egress queue depth of a switch port.
func (n *Network) QueueBytes(sw, port int) int {
	return n.switches[sw].ports[port].bytes
}

// PortTxStats returns the packets and bytes transmitted by a switch port.
func (n *Network) PortTxStats(sw, port int) (pkts, bytes uint64) {
	q := n.switches[sw].ports[port]
	return q.txPackets, q.txBytes
}

// SetLinkState brings the link at (sw, port) up or down. Both directions of
// the link change state, packets already queued on a downed port are dropped
// as they reach the head of the queue, ToR pipelines are notified, and the
// routing layer reacts: in oracle mode candidate sets everywhere immediately
// exclude paths through failed links; in distributed mode only the two
// endpoint switches react immediately and everyone else learns hop-by-hop.
// Repeated same-state calls are no-ops.
func (n *Network) SetLinkState(sw, port int, up bool) {
	n.mustBeOneShard("link state changes")
	s := n.switches[sw]
	p := &s.sw.Ports[port]
	if p.IsHostPort() {
		panic("fabric: SetLinkState on a host port")
	}
	if s.portUp[port] == up {
		return
	}
	s.setPortState(port, up)
	n.switches[p.PeerSwitch].setPortState(p.PeerPort, up)
	if up {
		n.downLinks--
	} else {
		n.downLinks++
	}
	if n.plane != nil {
		n.plane.SetLinkState(sw, port, up)
		return
	}
	n.invalidateOracle()
}

// SetLinkDrained marks the fabric link at (sw, port) as drained for
// maintenance (or restores it). A drained link stays physically up — packets
// already heading for it still cross — but the routing layer withdraws it
// from candidate sets, which is the whole point of drain-before-shutdown:
// by the time the operator calls SetLinkState(down), no route uses the link
// and the drop causes zero churn. Repeated same-state calls are no-ops.
func (n *Network) SetLinkDrained(sw, port int, drained bool) {
	n.mustBeOneShard("link drains")
	s := n.switches[sw]
	p := &s.sw.Ports[port]
	if p.IsHostPort() {
		panic("fabric: SetLinkDrained on a host port")
	}
	if s.portDrained[port] == drained {
		return
	}
	s.portDrained[port] = drained
	n.switches[p.PeerSwitch].portDrained[p.PeerPort] = drained
	if drained {
		n.drainedLinks++
	} else {
		n.drainedLinks--
	}
	if n.plane != nil {
		n.plane.SetDrained(sw, port, drained)
		return
	}
	n.invalidateOracle()
}

// mustBeOneShard guards the runtime mutations that reach across the whole
// fabric — both link ends and the shared oracle route cache — and would
// therefore race once switches run on different shards' workers.
func (n *Network) mustBeOneShard(what string) {
	if n.group.Shards() > 1 {
		panic("fabric: " + what + " are not supported on a network partitioned across shards")
	}
}

// DrainedLinks returns the number of fabric links currently drained.
func (n *Network) DrainedLinks() int { return n.drainedLinks }

// invalidateOracle drops the oracle-mode per-destination route cache in
// O(switches); entries refill lazily on the next forwarding decision that
// needs them (see candidatePorts).
func (n *Network) invalidateOracle() {
	for i := range n.dstValid {
		n.dstValid[i] = false
	}
}

// portUsable is the routing view of a link end: physically up and not
// drained.
func (n *Network) portUsable(sw, port int) bool {
	s := n.switches[sw]
	return s.portUp[port] && !s.portDrained[port]
}

// candidatePorts returns the (failure-aware) equal-cost egress set at sw for
// a dst attached elsewhere (receive delivers locally before asking).
func (n *Network) candidatePorts(sw int, dst packet.NodeID) []int {
	if n.plane != nil {
		return n.plane.Candidates(sw, n.topology.ToROf(dst))
	}
	if n.downLinks == 0 && n.drainedLinks == 0 {
		return n.topology.CandidatePorts(sw, dst)
	}
	dstTor := n.topology.ToROf(dst)
	if !n.dstValid[dstTor] {
		n.dstRoutes[dstTor] = n.topology.RoutesForDst(dstTor, n.portUsable)
		n.dstValid[dstTor] = true
	}
	return n.dstRoutes[dstTor][sw]
}

// routeEpoch returns the current convergence epoch (0 in oracle mode, which
// is permanently converged).
func (n *Network) routeEpoch() uint32 {
	if n.plane != nil {
		return n.plane.Epoch()
	}
	return 0
}

// routeQuiescent reports whether the routing layer has no messages in
// flight; oracle mode is always quiescent.
func (n *Network) routeQuiescent() bool {
	if n.plane != nil {
		return n.plane.Quiescent()
	}
	return true
}

// RouteConverged verifies the routing layer sits on the oracle fixed point:
// in distributed mode every switch FIB must equal topo.RoutesWithFilter over
// usable links with no messages outstanding; oracle mode is converged by
// construction. Nil means converged.
func (n *Network) RouteConverged() error {
	if n.plane == nil {
		return nil
	}
	return n.plane.CheckConverged()
}

// deliverToHost hands pkt to host h's receive callback. q is the ToR→host
// egress queue the packet arrived through; its engine, counter block and
// pool are the ones owned by the host's shard.
func (n *Network) deliverToHost(h packet.NodeID, pkt *packet.Packet, q *outQueue) {
	q.ctr.Delivered++
	n.cfg.Tracer.RecordPacket(q.eng.Now(), trace.Deliver, -1, -1, pkt)
	if recv := n.hostRecv[h]; recv != nil {
		recv(pkt)
	}
	// The packet's life ends here; the receive path must not retain it.
	// Recycling after recv returns means packets the handler injects in
	// response (ACKs, NACKs) never alias the one being delivered.
	q.pool.Put(pkt)
}

// ShardPool returns shard i's packet pool (nil on a NewNetwork dataplane
// built without Config.Pool). Components that inject
// packets (NICs, traffic sources) must allocate from the pool of the shard
// that owns them, so that Get/Put stay shard-local.
func (n *Network) ShardPool(i int) *packet.Pool { return n.pools[i] }

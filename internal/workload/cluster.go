// Package workload is the experiment harness: it assembles topology, fabric,
// NICs, Themis and collective schedules into the paper's experiments and
// collects the metrics each figure reports.
//
// The two experiment families are:
//
//   - RunMotivation — the §2.2 motivation study (Fig. 1): two 4-node ring
//     groups over a 100 Gbps leaf-spine with random packet spraying, showing
//     the spurious-retransmission ratio (1b), NACK-driven rate drops (1c)
//     and the throughput gap to an ideal transport (1d).
//
//   - RunCollective — the §5 evaluation (Fig. 5): 16 groups × 16 NICs on a
//     16×16 400 Gbps leaf-spine running ring Allreduce or Alltoall under
//     ECMP / adaptive routing / Themis across DCQCN (TI, TD) settings,
//     reporting the slowest group's communication completion time.
package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"

	"themis/internal/collective"
	"themis/internal/core"
	"themis/internal/fabric"
	"themis/internal/lb"
	"themis/internal/obs"
	"themis/internal/packet"
	"themis/internal/rnic"
	"themis/internal/route"
	"themis/internal/sim"
	"themis/internal/topo"
	"themis/internal/trace"
)

// ClusterConfig describes one simulated cluster. It is the one declaration of
// the fabric, LB, NIC, CC, routing and middleware knobs, and its JSON tags are
// their wire format: Config, which every runner takes, and exp.Scenario embed
// it beside Shape, the workload's knobs. Adding a knob is one tagged field
// here (or in core.Config, the Themis block) plus its lowering into the
// fabric, NIC or arm config below.
// The runtime hooks (Shards, Tracer, Metrics) are not serialized.
type ClusterConfig struct {
	Seed int64 `json:"seed"`

	// Shards is an execution knob, not an experiment arm: the number of
	// space-parallel engine shards RunCollective and RunSpray cut the racks
	// across. 0 cuts a fabric of blockedHosts hosts or more one shard per
	// rack, the finest cut there is, whose windows of one rack's events stay
	// in cache, and runs a smaller one, whose working set is in cache
	// already, on one engine — as it does a cluster that holds what shards
	// cannot share (ShardRefusal), which an explicit count above one makes
	// an error. A count above the rack count is clipped to it. How many
	// processors run the shards is Cores. The other runners build through
	// BuildCluster and run on one engine whatever it says: churn because its
	// closed loop is global, the rest by choice. A result is byte-identical
	// for every value (TestCollectiveShardInvariance, TestSprayShardInvariance,
	// exp's shard determinism regression), so like exp.Runner.Parallel it is
	// not serialized.
	Shards int `json:"-"`
	// Cores bounds the goroutines that run a cut cluster's shards
	// (sim.ShardGroup.SetCores): the processors the trial has to itself —
	// GOMAXPROCS for exp.Run, GOMAXPROCS/Parallel for an exp.Runner worker.
	// 0 means GOMAXPROCS. Not serialized, for Shards' reason.
	Cores int `json:"-"`

	// Topology: leaf-spine unless FatTreeK > 0 (Motivation pins the paper's
	// 4×4×2 fabric; FatTreeK is spray's).
	Leaves       int          `json:"leaves,omitempty"`
	Spines       int          `json:"spines,omitempty"`
	HostsPerLeaf int          `json:"hosts_per_leaf,omitempty"`
	FatTreeK     int          `json:"fat_tree_k,omitempty"`
	Bandwidth    int64        `json:"bandwidth,omitempty"`  // all links
	LinkDelay    sim.Duration `json:"link_delay,omitempty"` // per-hop propagation

	// Switch.
	BufferBytes int  `json:"buffer_bytes,omitempty"` // default 64 MB (the paper's switch buffer)
	DisablePFC  bool `json:"disable_pfc,omitempty"`  // PFC is on by default (RoCE fabrics run lossless)

	// Load balancing.
	LB LBMode `json:"lb,omitempty"`
	// RepsCache is the REPS entropy-ring capacity (default
	// lb.DefaultREPSCache). Used when LB == REPS.
	RepsCache int `json:"reps_cache,omitempty"`
	// PathBuckets is the entropy-bucket count of the congestion-aware arm:
	// the sender round-robins data packets over this many source ports and
	// DCQCN keeps one α per bucket (default 16). Used when
	// LB == CongestionAware.
	PathBuckets int `json:"path_buckets,omitempty"`

	// NIC / transport.
	Transport  rnic.Transport `json:"transport,omitempty"`
	BurstBytes int            `json:"burst_bytes,omitempty"` // default 16 KB pacer bursts
	RTO        sim.Duration   `json:"rto,omitempty"`
	RTOBackoff float64        `json:"rto_backoff,omitempty"` // RTO multiplier per consecutive timeout (<=1: fixed RTO)
	RTOMax     sim.Duration   `json:"rto_max,omitempty"`     // backoff cap (default 100x RTO when backing off)
	TI         sim.Duration   `json:"ti,omitempty"`          // DCQCN knobs (Fig. 5 sweep)
	TD         sim.Duration   `json:"td,omitempty"`

	// LossyControl subjects ACK/NACK/CNP to buffer drops and injected loss
	// (fabric.Config.ControlLossless = false) — the robustness configuration;
	// production RoCE fabrics keep the control class lossless.
	LossyControl bool `json:"lossy_control,omitempty"`

	// DistributedRouting replaces the instant global routing oracle with the
	// per-switch BGP-style control plane (internal/route): link events
	// propagate hop-by-hop with ConvergenceDelay per message, and forwarding
	// during the window uses each switch's possibly-stale FIB.
	DistributedRouting bool `json:"distributed_routing,omitempty"`
	// ConvergenceDelay is the per-hop control-message processing delay.
	// Zero converges synchronously (oracle-equivalent results).
	ConvergenceDelay sim.Duration `json:"convergence_delay,omitempty"`

	// DropEveryNData, if positive, drops every Nth data packet at switch
	// egress — the declarative form of the counter-based loss hook the loss
	// ablations use, expressible in a serialized scenario. It is a rule of the
	// cluster's composed loss hook (Cluster.Inject), so it holds on every
	// workload whatever faults are injected beside it; with LossyControl the
	// count and the drops take in control packets too, which then consult the
	// hook like data. A cluster cut across more than one shard rejects it.
	DropEveryNData int `json:"drop_every_n_data,omitempty"`

	// Themis is the middleware config (used when LB == Themis): its ablation
	// knobs are serialized, and its runtime hooks — Tracer, Metrics, Pool and
	// Clock — are the cluster's to set (Validate rejects a preset one).
	Themis core.Config `json:"themis"`

	// Tracer, if non-nil, records packet and middleware events for
	// debugging (see internal/trace).
	Tracer *trace.Tracer `json:"-"`

	// Metrics, if non-nil, is shared by every component of the cluster for
	// what Outcome does not carry: the routing plane's message counts, each
	// ToR's live flow-table occupancy and each NIC's message completion
	// latencies register on it (see internal/obs).
	Metrics *obs.Registry `json:"-"`
}

// Validate rejects a config no cluster is built from, naming the field: a
// negative numeric knob (see numericKnobs), an unknown LB arm or transport,
// or a Themis runtime hook set by the caller — the cluster wires Tracer and
// Metrics from its own fields, and Pool and Clock per shard. buildCluster
// calls it first.
func (c ClusterConfig) Validate() error {
	if err := nonNegative(reflect.ValueOf(&c).Elem(), numericKnobs); err != nil {
		return err
	}
	if _, err := c.LB.arm(); err != nil {
		return err
	}
	if _, err := rnic.ParseTransport(c.Transport.String()); err != nil {
		return fmt.Errorf("workload: Transport: %w", err)
	}
	t := c.Themis
	if t.Tracer != nil || t.Metrics != nil || t.Pool != nil || t.Clock != nil {
		return errors.New("workload: Themis.Tracer/Metrics/Pool/Clock are the cluster's to set; trace or meter it through ClusterConfig.Tracer/Metrics")
	}
	return nil
}

// numericKnobs is every numeric field of ClusterConfig, the Themis block's
// included, by dotted name and index: a knob added later is validated without
// being listed. Seed is left out (any value is a seed), and so is RTOBackoff
// (<= 1 means a fixed RTO). Built once, so Validate costs no field walk.
var numericKnobs = numericFields(reflect.TypeOf(ClusterConfig{}), "", nil)

type knob struct {
	name  string
	index []int
}

// nonNegative names the first of knobs, fields of v, that is negative.
func nonNegative(v reflect.Value, knobs []knob) error {
	for _, k := range knobs {
		if f := v.FieldByIndex(k.index); f.CanInt() && f.Int() < 0 || f.CanFloat() && f.Float() < 0 {
			return fmt.Errorf("workload: %s=%v is negative", k.name, f.Interface())
		}
	}
	return nil
}

func numericFields(t reflect.Type, prefix string, index []int) []knob {
	var out []knob
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, at := prefix+f.Name, append(index[:len(index):len(index)], i)
		switch f.Type.Kind() {
		case reflect.Struct:
			out = append(out, numericFields(f.Type, name+".", at)...)
		case reflect.Int, reflect.Int64, reflect.Float64:
			if f.IsExported() && name != "Seed" && name != "RTOBackoff" && name != "Pattern" {
				out = append(out, knob{name, at})
			}
		}
	}
	return out
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Bandwidth == 0 {
		c.Bandwidth = 400e9
	}
	if c.LinkDelay == 0 {
		c.LinkDelay = sim.Microsecond
	}
	if c.BufferBytes == 0 {
		c.BufferBytes = 64 << 20
	}
	if c.BurstBytes == 0 {
		c.BurstBytes = 16 << 10
	}
	if c.RepsCache == 0 {
		c.RepsCache = lb.DefaultREPSCache
	}
	if c.PathBuckets == 0 {
		c.PathBuckets = 16
	}
	return c
}

// topology builds the fabric graph: a leaf-spine unless FatTreeK > 0.
func (c *ClusterConfig) topology() (*topo.Topology, error) {
	link := topo.LinkSpec{Bandwidth: c.Bandwidth, Delay: c.LinkDelay}
	if c.FatTreeK > 0 {
		return topo.NewFatTree(topo.FatTreeConfig{K: c.FatTreeK, HostLink: link, FabricLink: link})
	}
	return topo.NewLeafSpine(topo.LeafSpineConfig{
		Leaves: c.Leaves, Spines: c.Spines, HostsPerLeaf: c.HostsPerLeaf,
		HostLink: link, FabricLink: link,
	})
}

// fabricConfig lowers the switch-side knobs (the network owns one packet pool
// per shard).
func (c *ClusterConfig) fabricConfig(a *arm) fabric.Config {
	fcfg := fabric.Config{
		BufferBytes:     c.BufferBytes,
		ControlLossless: !c.LossyControl,
		NewDataSelector: func() lb.Selector { return a.selector(c) },
		ECN:             fabric.DefaultECN(c.Bandwidth), // DCQCN needs the marks
		Tracer:          c.Tracer,
		Metrics:         c.Metrics,
	}
	if c.DistributedRouting {
		fcfg.Routing = route.Config{Mode: route.Distributed, PerHopDelay: c.ConvergenceDelay}
	}
	if !c.DisablePFC {
		fcfg.PFC = fabric.DefaultPFC(c.Bandwidth)
	}
	return fcfg
}

// nicConfig lowers the NIC, transport and congestion-control knobs, including
// the arm's sender-side wiring.
func (c *ClusterConfig) nicConfig(a *arm, pool *packet.Pool) rnic.Config {
	ncfg := rnic.Config{
		Transport:  c.Transport,
		LineRate:   c.Bandwidth,
		RTO:        c.RTO,
		RTOBackoff: c.RTOBackoff,
		RTOMax:     c.RTOMax,
		BurstBytes: c.BurstBytes,
		Pool:       pool,
		Metrics:    c.Metrics,
	}
	ncfg.CC.TI, ncfg.CC.TD = c.TI, c.TD // CC.LineRate defaults to LineRate
	if a.sender != nil {
		a.sender(c, &ncfg)
	}
	return ncfg
}

// Cluster is a fully wired simulation instance.
type Cluster struct {
	Config ClusterConfig
	// Engine is shard 0's engine — the cluster's only one unless it was cut
	// across several (host h's NIC runs on engines[hostShard[h]]).
	Engine *sim.Engine
	Topo   *topo.Topology
	Net    *fabric.Network
	NICs   []*rnic.NIC
	Themis map[int]*core.Themis // per-ToR middleware (LB == Themis only)

	// torIDs holds the Themis ToR switch IDs, ascending (topo.ToRs), so that
	// every cluster-wide middleware sweep visits instances in the same order
	// on every run — ranging over the Themis map would not.
	torIDs []int

	nextQP    packet.QPID
	nextSport uint16
	conns     map[[2]packet.NodeID]*Conn
	connList  []*Conn // creation order, for deterministic iteration

	// failedLinks tracks outstanding FailLink calls so that overlapping
	// failures repaired in any order only re-enable Themis once the fabric is
	// whole again.
	failedLinks map[[2]int]bool

	// lossRules are the rules of the composed fabric loss hook and lossRNG the
	// stream their probabilistic draws come from (see addLossRule).
	lossRules []lossRule
	lossRNG   *rand.Rand

	// engines holds one engine per shard, hostShard maps each host to its
	// shard and group is the epoch coordinator Run drives them through.
	engines   []*sim.Engine
	hostShard []int
	group     *sim.ShardGroup
}

// streamKeyShardEngine is the sim.StreamSeed key namespace for per-shard
// engine seeds. The fabric never draws from engine RNGs (switches use
// identity-keyed streams, NICs are deterministic) and the one component that
// does — churn's arrival process — runs on one shard, so beyond shard 0 these
// seeds only matter if a future component forgets that rule: distinct
// per-shard seeds make such a bug show up as shard-count-dependent output
// instead of silently passing.
func streamKeyShardEngine(shard int) uint64 { return 0xE5<<56 | uint64(shard) }

// shardRefusals is the one list of what a cluster cut across more than one
// shard cannot hold: state its shards would have to share. buildCluster
// refuses a count above one that meets an entry, naming the knob, and takes
// one shard instead at Shards 0. A metrics registry and every LB arm, Themis
// included, are not on it: they run at any count.
var shardRefusals = []struct {
	knob, why string
	holds     func(c *ClusterConfig, faults []Fault) bool
}{
	{"Tracer", "tracing: the trace ring is global mutable state",
		func(c *ClusterConfig, _ []Fault) bool { return c.Tracer != nil }},
	{"DropEveryNData", "a shared loss hook couples shards",
		func(c *ClusterConfig, _ []Fault) bool { return c.DropEveryNData > 0 }},
	{"DistributedRouting", "distributed routing: the plane is a global subsystem",
		func(c *ClusterConfig, _ []Fault) bool { return c.DistributedRouting }},
	{"a fault schedule", "its link-state changes reach across the fabric",
		func(_ *ClusterConfig, faults []Fault) bool { return len(faults) > 0 }},
}

// ShardRefusal returns the error a cluster of c cut across more than one
// shard is refused with — naming the first knob on the list whose state the
// shards would have to share — or nil if it holds none. faults is the run's
// fault schedule: every Cluster.Inject goes through the fabric's link state.
func (c ClusterConfig) ShardRefusal(faults []Fault) error {
	for _, r := range shardRefusals {
		if r.holds(&c, faults) {
			return fmt.Errorf("workload: %s is not supported on a cluster cut across shards (%s); run it on one shard", r.knob, r.why)
		}
	}
	return nil
}

// BuildCluster assembles a cluster on one engine, whatever cfg.Shards says:
// the one-shard case of the builder RunCollective and RunSpray cut across
// several.
func BuildCluster(cfg ClusterConfig) (*Cluster, error) {
	cfg.Shards = 1
	return buildCluster(cfg, nil)
}

// blockedHosts is the smallest fabric Shards 0 cuts one shard per rack. Below
// it a trial's working set fits in a core's cache, so per-rack windows buy no
// locality and cost a barrier per lookahead: swept at one core a trial,
// the smoke and spray grids (6 and 16 hosts) ran 5–9 % slower cut per rack
// than on one engine, and at two cores 5–13 % slower cut in two. From 32
// hosts up the cut wins on one core: 8×8×4 −11 %, 8×8×8 −17 to −21 %, the
// k=8 fat-tree (128) −31 %, the paper's 16×16×16 (256) −38 % (DESIGN.md
// "Cache-blocked epochs").
const blockedHosts = 32

// buildCluster is the one cluster builder: it validates cfg and cuts the
// racks across cfg.Shards engines (0 means one per rack from blockedHosts
// hosts up and one engine below, and a count above the rack count is clipped
// to it, as exp.Runner clips its workers to the grid) with identity-keyed
// seeds and a pool per shard, so a trial's results are byte-identical for
// every count. What shards would have to share (ShardRefusal, with the run's
// fault schedule) is refused only when there really is more than one, and
// sends a Shards 0 cluster to one shard.
func buildCluster(cfg ClusterConfig, faults []Fault) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	a := &arms[cfg.LB] // Validate looked it up
	t, err := cfg.topology()
	if err != nil {
		return nil, err
	}
	shards := len(t.ToRs())
	switch {
	case cfg.Shards > 0:
		shards = min(cfg.Shards, shards)
	case t.NumHosts() < blockedHosts:
		shards = 1
	}
	if err := cfg.ShardRefusal(faults); err != nil && shards > 1 {
		if cfg.Shards > 0 {
			return nil, err
		}
		shards = 1
	}
	part, err := topo.PartitionRacks(t, shards)
	if err != nil {
		return nil, err
	}
	la, err := topo.Lookahead(t, part)
	if err != nil {
		return nil, err
	}
	cl := &Cluster{
		Config:      cfg,
		Topo:        t,
		Themis:      make(map[int]*core.Themis),
		nextQP:      1,
		nextSport:   1000,
		conns:       make(map[[2]packet.NodeID]*Conn),
		failedLinks: make(map[[2]int]bool),
		engines:     make([]*sim.Engine, shards),
		hostShard:   part.HostShard,
	}
	for i := range cl.engines {
		cl.engines[i] = sim.NewEngine(sim.StreamSeed(cfg.Seed, streamKeyShardEngine(i)))
	}
	cl.group = sim.NewShardGroup(cl.engines, la)
	cl.group.SetCores(cfg.Cores)
	cl.Net, err = fabric.NewShardedNetwork(cl.group, t, part, cfg.Seed, cfg.fabricConfig(a))
	if err != nil {
		return nil, err
	}
	cl.Engine = cl.engines[0]
	if n := cfg.DropEveryNData; n > 0 {
		cl.addLossRule(lossRule{to: sim.Forever, sw: -1, port: -1, ctrl: true, dat: true, every: n})
	}

	// One NIC config per shard: a NIC allocates from its own shard's pool.
	// Per-sender entropy state lives with the sender and is a pure function
	// of its transport feedback, so the spraying arms stay shard-invariant.
	ncfgs := make([]rnic.Config, len(cl.engines))
	for i := range ncfgs {
		ncfgs[i] = cfg.nicConfig(a, cl.Net.ShardPool(i))
	}
	for h := 0; h < t.NumHosts(); h++ {
		id, shard := packet.NodeID(h), cl.hostShard[h]
		nic := rnic.New(cl.engines[shard], id, ncfgs[shard], func(p *packet.Packet) { cl.Net.Inject(id, p) })
		cl.Net.AttachHost(id, nic.HandlePacket)
		cl.NICs = append(cl.NICs, nic)
	}

	if a.pipeline {
		tcfg := cfg.Themis
		tcfg.Tracer, tcfg.Metrics = cfg.Tracer, cfg.Metrics
		if cfg.FatTreeK > 0 && tcfg.Mode == core.DirectSpray {
			tcfg.Mode = core.PathMapSpray
		}
		cl.torIDs = t.ToRs()
		for _, id := range cl.torIDs {
			// An instance lives on its ToR's shard: the rack partition puts the
			// ToR, its hosts and so every packet its pipeline touches there.
			// The lifecycle layer (idle eviction, last-touch LRU) needs virtual
			// timestamps even without tracing, so the engine is always the clock.
			shard := part.SwitchShard[id]
			tcfg.Pool, tcfg.Clock = cl.Net.ShardPool(shard), cl.engines[shard]
			th := core.New(t, id, tcfg)
			cl.Net.SetTorPipeline(id, th)
			cl.Themis[id] = th
		}
	}
	return cl, nil
}

// Conn returns (creating on first use) the reliable connection from src to
// dst — one QP plus Themis registration when the middleware is deployed.
func (cl *Cluster) Conn(src, dst packet.NodeID) *Conn {
	key := [2]packet.NodeID{src, dst}
	if cn, ok := cl.conns[key]; ok {
		return cn
	}
	cn := cl.OpenFlow(src, dst)
	cl.conns[key] = cn
	return cn
}

// OpenFlow creates a fresh (uncached) connection from src to dst: a new QP,
// NIC sender/receiver halves, and Themis registrations where the middleware
// is deployed. Unlike Conn it may be called repeatedly for the same host pair
// — the flow-churn workload opens and closes thousands of short-lived QPs.
// A core.ErrTableFull registration is tolerated: the flow simply runs
// unmanaged (ECMP + forwarded NACKs), which is the §4 degradation contract.
func (cl *Cluster) OpenFlow(src, dst packet.NodeID) *Conn {
	qp := cl.nextQP
	cl.nextQP++
	sport := cl.nextSport
	cl.nextSport++
	s := cl.NICs[src].OpenSender(qp, dst, sport)
	r := cl.NICs[dst].OpenReceiver(qp, src, sport)
	for _, id := range cl.torIDs {
		if err := cl.Themis[id].RegisterFlow(qp, src, dst, sport); err != nil && err != core.ErrTableFull {
			panic(err) // config error (e.g. direct spray on fat-tree): fail loudly
		}
	}
	cn := &Conn{Sender: s, Receiver: r, cluster: cl, src: src, dst: dst}
	r.OnDeliver = cn.onDeliver
	cl.connList = append(cl.connList, cn)
	return cn
}

// CloseFlow retires a connection opened by OpenFlow (or Conn): the Themis
// entries are unregistered on every ToR, and both NIC halves are closed so
// no timer or pacer event of the QP remains scheduled. Idempotent. The
// Conn's counters remain readable (AggregateSenderStats keeps counting it).
func (cl *Cluster) CloseFlow(cn *Conn) {
	if cn.closed {
		return
	}
	cn.closed = true
	qp := cn.Sender.QP()
	for _, id := range cl.torIDs {
		cl.Themis[id].UnregisterFlow(qp)
	}
	cl.NICs[cn.src].CloseSender(qp)
	cl.NICs[cn.dst].CloseReceiver(qp)
}

// Conns returns all connections created so far, in creation order.
func (cl *Cluster) Conns() []*Conn {
	out := make([]*Conn, len(cl.connList))
	copy(out, cl.connList)
	return out
}

// hostEngine returns the engine of host h's shard: the clock its NIC's
// callbacks read.
func (cl *Cluster) hostEngine(h packet.NodeID) *sim.Engine { return cl.engines[cl.hostShard[h]] }

// Mesh adapts a host list to a collective.Mesh over this cluster.
func (cl *Cluster) Mesh(hosts []packet.NodeID) collective.Mesh {
	return clusterMesh{cl: cl, hosts: hosts}
}

type clusterMesh struct {
	cl    *Cluster
	hosts []packet.NodeID
}

func (m clusterMesh) Conn(src, dst int) collective.Conn {
	return m.cl.Conn(m.hosts[src], m.hosts[dst])
}

// Run drives the simulation through the epoch coordinator until every
// shard's event queue drains or the horizon is reached, returning the final
// virtual time. On one shard that is a single epoch: Engine.Run.
func (cl *Cluster) Run(horizon sim.Duration) sim.Time {
	return cl.group.Run(sim.Time(horizon))
}

// FailLink takes the fabric link at (sw, port) down and simulates the §6
// monitoring-tool reaction (Pingmesh-style detection): every Themis instance
// disables itself, reverting the whole fabric to ECMP. Cluster-wide disable
// is required for correctness, not just at the adjacent ToR: PSN-based
// spraying is deterministic, so any source ToR left spraying would keep
// steering the same PSN residues into the dead path forever. Failures may
// overlap; Themis stays disabled until every one is repaired.
func (cl *Cluster) FailLink(sw, port int) {
	cl.Config.Tracer.RecordFault(cl.Engine.Now(), trace.FaultLinkDown, sw, port)
	cl.failedLinks[[2]int{sw, port}] = true
	cl.Net.SetLinkState(sw, port, false)
	for _, id := range cl.torIDs {
		cl.Themis[id].SetDisabled(true)
	}
}

// RepairLink restores the link and, once no failure remains outstanding,
// re-enables the middleware. Repairs may arrive in any order relative to the
// failures.
func (cl *Cluster) RepairLink(sw, port int) {
	cl.Config.Tracer.RecordFault(cl.Engine.Now(), trace.FaultLinkUp, sw, port)
	delete(cl.failedLinks, [2]int{sw, port})
	cl.Net.SetLinkState(sw, port, true)
	if len(cl.failedLinks) > 0 {
		return
	}
	for _, id := range cl.torIDs {
		cl.Themis[id].SetDisabled(false)
	}
}

// FailedLinks returns the number of outstanding link failures.
func (cl *Cluster) FailedLinks() int { return len(cl.failedLinks) }

// AggregateSenderStats sums sender-side stats over all connections.
func (cl *Cluster) AggregateSenderStats() rnic.SenderStats {
	var agg rnic.SenderStats
	for _, cn := range cl.connList {
		st := cn.Sender.Stats()
		agg.DataPackets += st.DataPackets
		agg.Retransmits += st.Retransmits
		agg.BytesSent += st.BytesSent
		agg.GoodputBytes += st.GoodputBytes
		agg.AcksRx += st.AcksRx
		agg.NacksRx += st.NacksRx
		agg.CnpsRx += st.CnpsRx
		agg.Timeouts += st.Timeouts
		agg.Completions += st.Completions
	}
	return agg
}

// ThemisStats sums middleware stats over all ToRs.
func (cl *Cluster) ThemisStats() core.Stats {
	var agg core.Stats
	for _, id := range cl.torIDs {
		st := cl.Themis[id].Stats()
		agg.Sprayed += st.Sprayed
		agg.NacksSeen += st.NacksSeen
		agg.NacksForwarded += st.NacksForwarded
		agg.NacksBlocked += st.NacksBlocked
		agg.Compensations += st.Compensations
		agg.CompensationCancelled += st.CompensationCancelled
		agg.ScanMisses += st.ScanMisses
		agg.RingOverflows += st.RingOverflows
		agg.Bypassed += st.Bypassed
		agg.Reboots += st.Reboots
		agg.Relearns += st.Relearns
		agg.Evictions += st.Evictions
		agg.IdleEvictions += st.IdleEvictions
		agg.TableFull += st.TableFull
		agg.Unregistered += st.Unregistered
		agg.UnknownNacksForwarded += st.UnknownNacksForwarded
	}
	return agg
}

// MaxTableBytes returns the largest current flow-table occupancy across ToRs
// and the (uniform) configured budget. Both are zero on clusters without the
// middleware.
func (cl *Cluster) MaxTableBytes() (maxBytes, budget int) {
	for _, id := range cl.torIDs {
		th := cl.Themis[id]
		if b := th.TableBytes(); b > maxBytes {
			maxBytes = b
		}
		budget = th.TableBudgetBytes()
	}
	return maxBytes, budget
}

// Conn adapts one QP pair to collective.Conn and tracks in-order delivery
// thresholds.
type Conn struct {
	Sender   *rnic.SenderQP
	Receiver *rnic.ReceiverQP

	cluster  *Cluster
	src, dst packet.NodeID
	closed   bool

	recvBytes int64
	notifies  []connNotify
}

// Src returns the sending host.
func (cn *Conn) Src() packet.NodeID { return cn.src }

// Dst returns the receiving host.
func (cn *Conn) Dst() packet.NodeID { return cn.dst }

// Close retires the connection (see Cluster.CloseFlow).
func (cn *Conn) Close() { cn.cluster.CloseFlow(cn) }

type connNotify struct {
	threshold int64
	fn        func()
}

// Send implements collective.Conn.
func (cn *Conn) Send(bytes int64, sentDone func()) {
	cn.Sender.SendMessage(bytes, sentDone)
}

// NotifyRecv implements collective.Conn.
func (cn *Conn) NotifyRecv(threshold int64, fn func()) {
	if cn.recvBytes >= threshold {
		fn()
		return
	}
	cn.notifies = append(cn.notifies, connNotify{threshold, fn})
}

// RecvBytes returns the in-order bytes delivered so far.
func (cn *Conn) RecvBytes() int64 { return cn.recvBytes }

func (cn *Conn) onDeliver(_ sim.Time, _ packet.PSN, payload int) {
	cn.recvBytes += int64(payload)
	for len(cn.notifies) > 0 && cn.notifies[0].threshold <= cn.recvBytes {
		fn := cn.notifies[0].fn
		cn.notifies = cn.notifies[1:]
		fn()
	}
}

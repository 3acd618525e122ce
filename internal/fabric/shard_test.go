package fabric

import (
	"strings"
	"testing"

	"themis/internal/lb"
	"themis/internal/obs"
	"themis/internal/packet"
	"themis/internal/route"
	"themis/internal/sim"
	"themis/internal/topo"
	"themis/internal/trace"
)

// shardRec is one delivery observation: arrival time and packet identity,
// copied out of the packet before the fabric recycles it.
type shardRec struct {
	at  sim.Time
	src packet.NodeID
	psn packet.PSN
}

// runShardedFabric drives the same cross-rack traffic pattern over a
// leaf-spine partitioned into the given number of shards and returns what
// every host observed plus the fabric counters.
func runShardedFabric(t *testing.T, shards int) ([][]shardRec, Counters, sim.Time) {
	t.Helper()
	tp := leafSpine(t, 4, 2, 2)
	part, err := topo.PartitionRacks(tp, shards)
	if err != nil {
		t.Fatal(err)
	}
	la, err := topo.Lookahead(tp, part)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*sim.Engine, shards)
	for i := range engines {
		engines[i] = sim.NewEngine(sim.StreamSeed(42, uint64(i)))
	}
	g := sim.NewShardGroup(engines, la)
	n, err := NewShardedNetwork(g, tp, part, 42, Config{
		ControlLossless: true,
		NewDataSelector: func() lb.Selector { return lb.RandomSpray{} },
		ECN:             DefaultECN(gbps100),
		PFC:             DefaultPFC(gbps100),
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([][]shardRec, tp.NumHosts())
	for h := 0; h < tp.NumHosts(); h++ {
		h := h
		eng := g.Shard(part.HostShard[h])
		n.AttachHost(packet.NodeID(h), func(p *packet.Packet) {
			recs[h] = append(recs[h], shardRec{at: eng.Now(), src: p.Src, psn: p.PSN})
		})
	}
	// Every host blasts a burst at the host two positions over (always the
	// next rack: 2 hosts per leaf), so all traffic crosses spines and the
	// RandomSpray per-switch RNG streams are exercised.
	hosts := tp.NumHosts()
	for i := 0; i < 25; i++ {
		for h := 0; h < hosts; h++ {
			src, dst := packet.NodeID(h), packet.NodeID((h+2)%hosts)
			n.Inject(src, &packet.Packet{Kind: packet.Data, Src: src, Dst: dst, QP: 1, SPort: uint16(1000 + h), DPort: 4791, PSN: packet.PSN(i), Payload: 1000})
		}
	}
	end := g.RunAll()
	return recs, n.Counters(), end
}

// oneShardNetwork is NewShardedNetwork over a single engine: what NewNetwork
// must be equivalent to.
func oneShardNetwork(t *testing.T, e *sim.Engine, tp *topo.Topology, seed int64, cfg Config) *Network {
	t.Helper()
	part, err := topo.PartitionRacks(tp, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := sim.NewShardGroup([]*sim.Engine{e}, sim.Duration(sim.Forever))
	n, err := NewShardedNetwork(g, tp, part, seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// Same-shard links ride the propagation pipe: however many packets are on a
// fabric link's wire, the link holds ONE pending engine event. Only a link
// whose peer lives on another shard posts per packet.
func TestSameShardLinkHoldsOnePropagationEvent(t *testing.T) {
	tp := leafSpine(t, 2, 1, 1)
	e := sim.NewEngine(1)
	n := NewNetwork(e, tp, Config{ControlLossless: true})
	var c collector
	n.AttachHost(1, c.recv(e))
	const total = 300
	for i := 0; i < total; i++ {
		n.Inject(0, newData(0, 1, packet.PSN(i), 1000))
	}
	// 5 us in, all four links of the path (1 us each, ~85 ns per packet) are
	// full: about eleven packets on each wire.
	e.Run(sim.Time(5 * usec))
	var uplink *outQueue
	for _, q := range n.switches[tp.ToROf(0)].ports {
		if !q.isHostPort {
			uplink = q
		}
	}
	if uplink.pri == 0 || uplink.post != nil {
		t.Fatalf("leaf uplink: pri=%d post set=%t, want a stamped same-shard link", uplink.pri, uplink.post != nil)
	}
	if got := uplink.pipe.len(); got < 5 {
		t.Fatalf("only %d packets in flight on the leaf uplink; the probe instant is wrong", got)
	}
	// One serializer completion and one pipe arrival per link on the path.
	if got := e.Pending(); got > 8 {
		t.Fatalf("%d pending events with %d packets on one wire: in-flight packets are scheduled one by one", got, uplink.pipe.len())
	}
	e.RunAll()
	if len(c.pkts) != total {
		t.Fatalf("delivered %d of %d", len(c.pkts), total)
	}
}

// A link whose peer switch lives on another shard, and only such a link,
// leaves the pipe for the epoch mailbox.
func TestPostOnlyOnCrossShardLinks(t *testing.T) {
	tp := leafSpine(t, 4, 2, 2)
	part, err := topo.PartitionRacks(tp, 2)
	if err != nil {
		t.Fatal(err)
	}
	la, err := topo.Lookahead(tp, part)
	if err != nil {
		t.Fatal(err)
	}
	g := sim.NewShardGroup([]*sim.Engine{sim.NewEngine(1), sim.NewEngine(2)}, la)
	n, err := NewShardedNetwork(g, tp, part, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cross := 0
	for _, s := range n.switches {
		for pi, q := range s.ports {
			p := &s.sw.Ports[pi]
			want := !p.IsHostPort() && part.SwitchShard[p.PeerSwitch] != s.shard
			if (q.post != nil) != want {
				t.Errorf("switch %d port %d: post set=%t, want %t", s.sw.ID, pi, q.post != nil, want)
			}
			if want {
				cross++
			}
		}
	}
	if cross == 0 {
		t.Fatal("partition has no cross-shard link; the test checks nothing")
	}
	for h, q := range n.hostUp {
		if q.post != nil {
			t.Errorf("host %d uplink posts; hosts live in their ToR's shard", h)
		}
	}
}

// The sharded-fabric determinism contract: every host observes the exact same
// delivery sequence — times, sources, PSNs — no matter how many shards the
// topology is cut into, and the summed counters agree too.
func TestShardedNetworkShardCountInvariance(t *testing.T) {
	ref, refCtr, refEnd := runShardedFabric(t, 1)
	for _, shards := range []int{2, 4} {
		got, ctr, end := runShardedFabric(t, shards)
		if end != refEnd {
			t.Fatalf("shards=%d: end %v, want %v", shards, end, refEnd)
		}
		if ctr != refCtr {
			t.Fatalf("shards=%d: counters %+v, want %+v", shards, ctr, refCtr)
		}
		for h := range ref {
			if len(got[h]) != len(ref[h]) {
				t.Fatalf("shards=%d host %d: %d deliveries, want %d", shards, h, len(got[h]), len(ref[h]))
			}
			for i := range ref[h] {
				if got[h][i] != ref[h][i] {
					t.Fatalf("shards=%d host %d delivery %d: %+v, want %+v", shards, h, i, got[h][i], ref[h][i])
				}
			}
		}
	}
}

// runContended blasts the far half of a k=4 fat-tree at hosts 0 and 1 under
// random spraying with RED marking on — two consumers of every switch's
// randomness, so a stream shared between switches or between the two uses
// shows — and returns every delivery in order plus the counters.
func runContended(t *testing.T, e *sim.Engine, build func(*topo.Topology, Config) *Network) ([]contendedRec, Counters) {
	t.Helper()
	link := topo.LinkSpec{Bandwidth: gbps100, Delay: usec}
	tp, err := topo.NewFatTree(topo.FatTreeConfig{K: 4, HostLink: link, FabricLink: link})
	if err != nil {
		t.Fatal(err)
	}
	n := build(tp, Config{
		ControlLossless: true,
		NewDataSelector: func() lb.Selector { return lb.RandomSpray{} },
		ECN:             ECNConfig{Enabled: true, KminBytes: 20e3, KmaxBytes: 400e3, PMax: 0.5},
	})
	var recs []contendedRec
	hosts := tp.NumHosts()
	for h := 0; h < hosts; h++ {
		h := packet.NodeID(h)
		n.AttachHost(h, func(p *packet.Packet) {
			recs = append(recs, contendedRec{e.Now(), h, p.QP, p.PSN, p.ECN})
		})
	}
	for i := 0; i < 60; i++ {
		for h := hosts / 2; h < hosts; h++ {
			src, dst := packet.NodeID(h), packet.NodeID(h%2)
			n.Inject(src, &packet.Packet{Kind: packet.Data, Src: src, Dst: dst, QP: packet.QPID(h), SPort: uint16(1000 + h), DPort: 4791, PSN: packet.PSN(i), Payload: 1000})
		}
	}
	e.RunAll()
	return recs, n.Counters()
}

type contendedRec struct {
	at   sim.Time
	host packet.NodeID
	qp   packet.QPID
	psn  packet.PSN
	ce   bool
}

// There is one scheme: NewNetwork on an engine seeded s is NewShardedNetwork
// on a one-engine group with seed s — the same streams and the same
// tie-breaks, so the same delivery sequence and the same counters.
func TestNewNetworkIsTheOneShardCase(t *testing.T) {
	const seed = 42
	e1 := sim.NewEngine(seed)
	got, gotCtr := runContended(t, e1, func(tp *topo.Topology, cfg Config) *Network {
		return NewNetwork(e1, tp, cfg)
	})
	e2 := sim.NewEngine(seed)
	want, wantCtr := runContended(t, e2, func(tp *topo.Topology, cfg Config) *Network {
		return oneShardNetwork(t, e2, tp, seed, cfg)
	})
	if wantCtr.EcnMarks == 0 || wantCtr.EcnMarks == wantCtr.Delivered {
		t.Fatalf("%d of %d packets marked: the RED profile's probabilistic band was never drawn from", wantCtr.EcnMarks, wantCtr.Delivered)
	}
	if gotCtr != wantCtr {
		t.Fatalf("NewNetwork counters %+v, NewShardedNetwork at one shard %+v", gotCtr, wantCtr)
	}
	if len(got) != len(want) {
		t.Fatalf("NewNetwork delivered %d packets, NewShardedNetwork at one shard %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d: NewNetwork %+v, NewShardedNetwork at one shard %+v", i, got[i], want[i])
		}
	}
}

// A switch's stream is built on its first draw, never at wiring time: seeding
// one math/rand source per switch more than doubled the setup of a fabric
// whose ECMP switches, below the ECN knee, never draw.
func TestSwitchStreamsAreBuiltOnFirstDraw(t *testing.T) {
	streams := func(sel lb.Selector) int {
		tp := leafSpine(t, 4, 4, 2)
		e := sim.NewEngine(1)
		n := NewNetwork(e, tp, Config{
			NewDataSelector: func() lb.Selector { return sel },
			ECN:             DefaultECN(gbps100),
		})
		for _, s := range n.switches {
			if s.rng != nil {
				t.Fatalf("switch %d has a stream before any packet moved", s.sw.ID)
			}
		}
		hosts := tp.NumHosts()
		for i := 0; i < 20; i++ {
			for h := 0; h < hosts; h++ {
				n.Inject(packet.NodeID(h), newData(packet.NodeID(h), packet.NodeID((h+2)%hosts), packet.PSN(i), 1000))
			}
		}
		e.RunAll()
		if got := n.Counters().Delivered; got != uint64(20*hosts) {
			t.Fatalf("delivered %d of %d", got, 20*hosts)
		}
		built := 0
		for _, s := range n.switches {
			if s.rng != nil {
				built++
			}
		}
		return built
	}
	if got := streams(lb.ECMP{}); got != 0 {
		t.Errorf("an ECMP run below the ECN knee built %d switch streams, want 0", got)
	}
	// Only the ToRs choose among uplinks; a spine has one port per rack.
	if got := streams(lb.RandomSpray{}); got != 4 {
		t.Errorf("a random-spray run built %d switch streams, want one per ToR (4)", got)
	}
}

// More than one shard refuses every feature that couples shards through
// global mutable state, with an error that names the knob rather than a race;
// one shard shares nothing and refuses none of them. A metrics registry is not
// such a feature: it is written at build time and read after the run.
func TestShardedNetworkRejectsGlobalFeatures(t *testing.T) {
	tp := leafSpine(t, 2, 2, 1)
	part, err := topo.PartitionRacks(tp, 2)
	if err != nil {
		t.Fatal(err)
	}
	la, err := topo.Lookahead(tp, part)
	if err != nil {
		t.Fatal(err)
	}
	build := func(cfg Config) error {
		g := sim.NewShardGroup([]*sim.Engine{sim.NewEngine(1), sim.NewEngine(2)}, la)
		_, err := NewShardedNetwork(g, tp, part, 1, cfg)
		return err
	}
	for want, cfg := range map[string]Config{
		"tracing":             {Tracer: trace.New(16)},
		"LossFunc":            {LossFunc: func(*packet.Packet, int, int) bool { return false }},
		"distributed routing": {Routing: route.Config{Mode: route.Distributed}},
		"Config.Pool":         {Pool: packet.NewPool()},
	} {
		if err := build(cfg); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: NewShardedNetwork returned %v", want, err)
		}
	}
	if err := build(Config{}); err != nil {
		t.Fatalf("plain config rejected: %v", err)
	}
	if err := build(Config{Metrics: obs.NewRegistry()}); err != nil {
		t.Fatalf("a registry is accepted at two shards: %v", err)
	}
	one, err := topo.PartitionRacks(tp, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := sim.NewShardGroup([]*sim.Engine{sim.NewEngine(1)}, sim.Duration(sim.Forever))
	pool := packet.NewPool()
	n, err := NewShardedNetwork(g, tp, one, 1, Config{Tracer: trace.New(16), Pool: pool})
	if err != nil || n.ShardPool(0) != pool {
		t.Fatalf("one shard: err %v, caller's pool adopted: %t", err, n != nil && n.ShardPool(0) == pool)
	}
	// Mismatched group size.
	g1 := sim.NewShardGroup([]*sim.Engine{sim.NewEngine(1)}, la)
	if _, err := NewShardedNetwork(g1, tp, part, 1, Config{}); err == nil {
		t.Fatal("shard-count mismatch accepted")
	}
}

// Runtime link-state changes reach across the whole fabric; on more than one
// shard they must fail loudly instead of racing the oracle recompute.
func TestShardedNetworkLinkStatePanics(t *testing.T) {
	tp := leafSpine(t, 2, 2, 1)
	part, _ := topo.PartitionRacks(tp, 2)
	la, _ := topo.Lookahead(tp, part)
	g := sim.NewShardGroup([]*sim.Engine{sim.NewEngine(1), sim.NewEngine(2)}, la)
	n, err := NewShardedNetwork(g, tp, part, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetLinkState on a sharded network did not panic")
		}
	}()
	n.SetLinkState(0, 2, false)
}

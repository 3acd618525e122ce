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

// shardRec is one delivery observation: arrival time, packet identity and ECN
// mark, copied out of the packet before the fabric recycles it.
type shardRec struct {
	at  sim.Time
	src packet.NodeID
	psn packet.PSN
	ce  bool
}

// runShardedFabric drives the same traffic — cross-rack bursts, an incast and
// a second incast injected after the first run — over a leaf-spine partitioned into the given number of shards and returns
// what every host observed, the fabric counters, the end time and the PFC
// pauses the switches sent.
func runShardedFabric(t *testing.T, shards int) ([][]shardRec, Counters, sim.Time, uint64) {
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
			recs[h] = append(recs[h], shardRec{at: eng.Now(), src: p.Src, psn: p.PSN, ce: p.ECN})
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
	// Incast: every other host sends host 0 more than its access link drains,
	// so its ToR pauses the spines feeding it — one of them across a shard
	// boundary once the racks are cut.
	for i := 0; i < 60; i++ {
		for h := 1; h < hosts; h++ {
			src := packet.NodeID(h)
			n.Inject(src, &packet.Packet{Kind: packet.Data, Src: src, Dst: 0, QP: 2, SPort: uint16(2000 + h), DPort: 4791, PSN: packet.PSN(i), Payload: 1000})
		}
	}
	g.RunAll()
	// A second incast, injected once the first run has drained: it starts at
	// each host engine's clock, which the group leaves at the run's end on
	// every shard, so its deliveries are the same at any shard count too.
	for h := 1; h < hosts; h++ {
		src := packet.NodeID(h)
		n.Inject(src, &packet.Packet{Kind: packet.Data, Src: src, Dst: 0, QP: 3, SPort: uint16(3000 + h), DPort: 4791, Payload: 1000})
	}
	end := g.RunAll()
	var pauses uint64
	for sw := 0; sw < tp.NumSwitches(); sw++ {
		p, _ := n.PFCStats(sw)
		pauses += p
	}
	return recs, n.Counters(), end, pauses
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
// fabric link's wire, the link holds ONE pending engine event.
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
	uplink := fabricUplink(n, 0)
	if uplink.pri == 0 || uplink.wire.hand != nil || uplink.wire.eng != e {
		t.Fatalf("leaf uplink: pri=%d handed=%t, want a stamped same-shard link", uplink.pri, uplink.wire.hand != nil)
	}
	if got := uplink.wire.len(); got < 5 {
		t.Fatalf("only %d packets in flight on the leaf uplink; the probe instant is wrong", got)
	}
	// One serializer completion and one pipe arrival per link on the path.
	if got := e.Pending(); got > 8 {
		t.Fatalf("%d pending events with %d packets on one wire: in-flight packets are scheduled one by one", got, uplink.wire.len())
	}
	e.RunAll()
	if len(c.pkts) != total {
		t.Fatalf("delivered %d of %d", len(c.pkts), total)
	}
}

// A cross-shard link holds one pending event as well: the sending shard hands
// each packet over through the epoch mailbox and the receiving worker pushes
// it onto the link's pipe, which lives on the receiving engine — so the
// receiving shard does not schedule the packets on the wire one by one.
func TestCrossShardLinkHoldsOnePropagationEvent(t *testing.T) {
	tp := leafSpine(t, 2, 1, 1) // leaf 0 and the spine on shard 0, leaf 1 on shard 1
	part, err := topo.PartitionRacks(tp, 2)
	if err != nil {
		t.Fatal(err)
	}
	la, err := topo.Lookahead(tp, part)
	if err != nil {
		t.Fatal(err)
	}
	engines := []*sim.Engine{sim.NewEngine(1), sim.NewEngine(2)}
	g := sim.NewShardGroup(engines, la)
	n, err := NewShardedNetwork(g, tp, part, 1, Config{ControlLossless: true})
	if err != nil {
		t.Fatal(err)
	}
	var c collector
	n.AttachHost(0, c.recv(engines[0]))
	const total = 300
	for i := 0; i < total; i++ {
		n.Inject(1, newData(1, 0, packet.PSN(i), 1000))
	}
	g.Run(sim.Time(5 * usec))
	uplink := fabricUplink(n, 1)
	if uplink.wire.hand == nil || uplink.peer != 0 || uplink.wire.eng != engines[0] {
		t.Fatalf("leaf 1 uplink: handed=%t peer=%d, want its pipe on shard 0", uplink.wire.hand != nil, uplink.peer)
	}
	if got := uplink.wire.len(); got < 5 {
		t.Fatalf("only %d packets in flight on the cross-shard uplink; the probe instant is wrong", got)
	}
	// Shard 0: the uplink's arrival, the spine's and the leaf's serializers
	// and their links' arrivals — not one event per packet on the wire.
	if got := engines[0].Pending(); got > 6 {
		t.Fatalf("%d pending events on the receiving shard with %d packets on the cross-shard wire", got, uplink.wire.len())
	}
	g.RunAll()
	if len(c.pkts) != total {
		t.Fatalf("delivered %d of %d", len(c.pkts), total)
	}
	if err := checkPipes(n); err != nil {
		t.Fatal(err)
	}
}

// A link whose peer switch lives on another shard, and only such a link,
// hands its packets to the peer's shard through the epoch mailbox: its pipe
// is the peer's.
func TestHandOnlyOnCrossShardLinks(t *testing.T) {
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
			if got := q.wire.hand != nil; got != want || (q.peer != s.shard) != want {
				t.Errorf("switch %d port %d: handed=%t peer=%d, want handed=%t", s.sw.ID, pi, got, q.peer, want)
			}
			if want {
				cross++
				if q.wire.eng != g.Shard(q.peer) {
					t.Errorf("switch %d port %d: the pipe is not on the peer's engine", s.sw.ID, pi)
				}
			}
		}
	}
	if cross == 0 {
		t.Fatal("partition has no cross-shard link; the test checks nothing")
	}
	for h, q := range n.hostUp {
		if q.wire.hand != nil {
			t.Errorf("host %d uplink hands off; hosts live in their ToR's shard", h)
		}
	}
}

// The sharded-fabric determinism contract: every host observes the exact same
// delivery sequence — times, sources, PSNs, ECN marks — no matter how many
// shards the topology is cut into, and the summed counters agree too. The
// incast pass sends PFC pause frames, so the check covers them.
func TestShardedNetworkShardCountInvariance(t *testing.T) {
	ref, refCtr, refEnd, refPauses := runShardedFabric(t, 1)
	if refPauses == 0 {
		t.Fatal("no PFC pause frame was sent: the incast pass checks nothing")
	}
	for _, shards := range []int{2, 4} {
		got, ctr, end, pauses := runShardedFabric(t, shards)
		if end != refEnd || pauses != refPauses {
			t.Fatalf("shards=%d: end %v and %d pauses, want %v and %d", shards, end, pauses, refEnd, refPauses)
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

// One loss hook serves every switch, so installing one on more than one shard
// panics, naming it; on one shard it installs (TestLossFuncInjection drops
// through it).
func TestShardedNetworkLossHookPanics(t *testing.T) {
	tp := leafSpine(t, 2, 2, 1)
	never := func(*packet.Packet, int, int) bool { return false }
	for shards := 1; shards <= 2; shards++ {
		part, _ := topo.PartitionRacks(tp, shards)
		la, _ := topo.Lookahead(tp, part)
		engines := make([]*sim.Engine, shards)
		for i := range engines {
			engines[i] = sim.NewEngine(int64(i + 1))
		}
		n, err := NewShardedNetwork(sim.NewShardGroup(engines, la), tp, part, 1, Config{})
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				p := recover()
				msg, _ := p.(string)
				if shards == 1 && p != nil {
					t.Errorf("one shard: SetLossFunc panicked: %v", p)
				}
				if shards > 1 && !strings.Contains(msg, "loss hooks") {
					t.Errorf("%d shards: SetLossFunc panic = %v, want one naming loss hooks", shards, p)
				}
			}()
			n.SetLossFunc(never)
		}()
	}
}

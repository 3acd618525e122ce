package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"themis/internal/cc"
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
	"themis/internal/workload"
)

// probe drives one layer's exported functions with a fixed synthetic input.
// prep runs untimed before every batch and returns the timed body — which
// performs exactly n operations — and a post-condition that fails the probe
// if the body silently measured nothing.
type probe struct {
	name string
	unit string // ns, us or ms per operation
	n    int    // operations per batch
	prep func(n int) (run func(), check func() error)
	// allocs and rate, if set, name further metrics of the same measurement:
	// heap allocations per operation, and operations per host second.
	allocs, rate string
}

// measure prepares and times batches of n operations. It returns the
// second-fastest batch's time per operation (the run's estimator, see
// cellRun.best), the fewest allocations per operation any batch made, and the
// first post-condition failure.
func measure(batches, n int, prep func(n int) (run func(), check func() error)) (nsPerOp, allocsPerOp float64, err error) {
	times := make([]time.Duration, batches)
	allocsPerOp = math.Inf(1)
	var ms runtime.MemStats
	for b := range times {
		run, check := prep(n)
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		t0 := time.Now()
		run()
		times[b] = time.Since(t0)
		runtime.ReadMemStats(&ms)
		allocsPerOp = min(allocsPerOp, float64(ms.Mallocs-mallocs)/float64(n))
		if err == nil {
			err = check()
		}
	}
	return float64(secondFastest(times)) / float64(n), allocsPerOp, err
}

// runProbes runs every layer probe and records its metric. -smoke shrinks the
// batches twentyfold.
func runProbes(l *ledger, smoke bool) {
	scale := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}
	for _, p := range probes() {
		n := p.n
		if smoke {
			n = max(n/20, 1)
		}
		l.attempted++
		ns, allocs, err := measure(5, n, p.prep)
		if err != nil {
			l.fail("probe %s: %v", p.name, err)
		}
		l.set(p.name, ns/scale[p.unit], p.unit)
		if p.allocs != "" {
			l.set(p.allocs, allocs, "count")
		}
		if p.rate != "" {
			l.set(p.rate, 1e9/ns, "1/s")
		}
	}
}

func probes() []probe {
	var ps []probe
	ps = append(ps, simProbes()...)
	ps = append(ps, lbProbes()...)
	ps = append(ps, fabricProbes()...)
	ps = append(ps, coreProbes()...)
	ps = append(ps, rnicProbes()...)
	ps = append(ps, ccProbes()...)
	ps = append(ps, buildProbes()...)
	ps = append(ps, obsProbes()...)
	return ps
}

func want(what string, got, wanted uint64) error {
	if got != wanted {
		return fmt.Errorf("%s = %d, want %d", what, got, wanted)
	}
	return nil
}

// --- sim ---

func simProbes() []probe {
	nop := func() {}
	// hold keeps the queue at a fixed depth: every executed event schedules
	// its successor at a pseudo-random future time until n have run — the
	// classic hold model for priority queues.
	hold := func(name string, depth int) probe {
		return probe{name: name, unit: "ns", n: 200_000, prep: func(n int) (func(), func() error) {
			e := sim.NewEngine(1)
			depth := min(depth, n)
			lcg := uint64(1)
			left := n
			var fire func()
			fire = func() {
				if left--; left < depth {
					return // the last `depth` events drain without successors
				}
				lcg = lcg*6364136223846793005 + 1442695040888963407
				e.Schedule(sim.Duration(1+lcg>>54)*sim.Nanosecond, fire)
			}
			for i := 0; i < depth; i++ {
				e.Schedule(sim.Duration(i+1)*sim.Nanosecond, fire)
			}
			return func() { e.RunAll() }, func() error {
				return want("events executed", e.Metrics().EventsExecuted, uint64(n))
			}
		}}
	}
	return []probe{
		{name: "sim.schedule_cancel_ns", unit: "ns", n: 400_000, prep: func(n int) (func(), func() error) {
			e := sim.NewEngine(1)
			return func() {
					for i := 0; i < n; i++ {
						e.Cancel(e.Schedule(100*sim.Nanosecond, nop))
					}
				}, func() error {
					return want("events cancelled", e.Metrics().EventsCancelled, uint64(n))
				}
		}},
		hold("sim.schedule_run_ns.d64", 64),
		hold("sim.schedule_run_ns.d16k", 16384),
		{name: "sim.timer_reset_ns", unit: "ns", n: 400_000, prep: func(n int) (func(), func() error) {
			e := sim.NewEngine(1)
			t := sim.NewTimer(e, nop)
			return func() {
					for i := 0; i < n; i++ {
						t.Reset(100 * sim.Nanosecond)
					}
				}, func() error {
					return want("re-arms cancelled", e.Metrics().EventsCancelled, uint64(n-1))
				}
		}},
		// One cross-shard post per epoch: posts are spaced a lookahead apart,
		// so each costs its mailbox drain plus one two-worker barrier.
		{name: "sim.shard_post_drain_ns", unit: "ns", n: 20_000, prep: func(n int) (func(), func() error) {
			const lookahead = sim.Microsecond
			g := sim.NewShardGroup([]*sim.Engine{sim.NewEngine(1), sim.NewEngine(2)}, lookahead)
			var ran [2]uint64 // per destination shard: each worker counts its own
			return func() {
					for i := 0; i < n; i++ {
						dst := 1 - i&1
						g.Post(i&1, dst, sim.Time(i+1)*sim.Time(lookahead), 0, func() { ran[dst]++ })
					}
					g.RunAll()
				}, func() error {
					return want("posted callbacks run", ran[0]+ran[1], uint64(n))
				}
		}},
		{name: "packet.pool_get_put_ns", unit: "ns", n: 1_000_000, prep: func(n int) (func(), func() error) {
			pool := packet.NewPool()
			return func() {
					for i := 0; i < n; i++ {
						p := pool.Get()
						p.PSN = packet.PSN(i)
						pool.Put(p)
					}
				}, func() error {
					allocs, reuses, _ := pool.Stats()
					return errors.Join(want("pool allocs", allocs, 1), want("pool reuses", reuses, uint64(n-1)))
				}
		}},
	}
}

// --- lb ---

// lbCtx is the stub switch state the selectors decide against: 16 uplinks
// (ports 16..31) with a fixed, uneven queue profile.
type lbCtx struct {
	now    sim.Time
	rng    *rand.Rand
	queues [32]int
}

func (c *lbCtx) Now() sim.Time           { return c.now }
func (c *lbCtx) QueueBytes(port int) int { return c.queues[port] }
func (c *lbCtx) Rand() *rand.Rand        { return c.rng }
func (c *lbCtx) Seed() uint32            { return 0x9e3779b9 }

func lbProbes() []probe {
	cands := make([]int, 16)
	for i := range cands {
		cands[i] = 16 + i
	}
	selectProbe := func(arm string, newSel func() lb.Selector) probe {
		return probe{name: "lb.select_ns." + arm, unit: "ns", n: 400_000, prep: func(n int) (func(), func() error) {
			ctx := &lbCtx{rng: rand.New(rand.NewSource(1))}
			for p := range ctx.queues {
				ctx.queues[p] = (p * 7919) % 65536
			}
			sel := newSel()
			pkt := &packet.Packet{Kind: packet.Data, Src: 1, Dst: 200, DPort: 4791, Payload: 1500}
			inSet := uint64(0)
			return func() {
					for i := 0; i < n; i++ {
						pkt.SPort = uint16(1000 + i&255) // 256 flows
						pkt.PSN = packet.PSN(i)
						ctx.now += sim.Time(10 * sim.Nanosecond)
						if port := sel.Select(pkt, cands, ctx); port >= 16 && port < 32 {
							inSet++
						}
					}
				}, func() error {
					return want("selections inside the candidate set", inSet, uint64(n))
				}
		}}
	}
	return []probe{
		{name: "lb.hash_ns", unit: "ns", n: 1_000_000, prep: func(n int) (func(), func() error) {
			var sum uint64 // a sum, not an XOR: CRC is linear, so XOR over a full sport cycle cancels
			return func() {
					k := packet.FlowKey{Src: 1, Dst: 200, DPort: 4791}
					for i := 0; i < n; i++ {
						k.SPort = uint16(i)
						sum += uint64(lb.Hash(k))
					}
				}, func() error {
					if sum == 0 {
						return errors.New("every hash was zero")
					}
					return nil
				}
		}},
		selectProbe("ecmp", func() lb.Selector { return lb.ECMP{} }),
		selectProbe("rps", func() lb.Selector { return lb.RandomSpray{} }),
		selectProbe("adaptive", func() lb.Selector { return lb.Adaptive{} }),
		selectProbe("flowlet", func() lb.Selector { return lb.NewFlowlet(50 * sim.Microsecond) }),
		selectProbe("psn_spray", func() lb.Selector { return lb.PSNSpray{} }),
		selectProbe("congestion", func() lb.Selector {
			return lb.NewCongestionAware(fabric.DefaultECN(400e9).KminBytes, 0, 0)
		}),
		{name: "lb.reps_pick_ack_ns", unit: "ns", n: 400_000, prep: func(n int) (func(), func() error) {
			r := lb.NewREPS(1000, lb.DefaultREPSCache)
			return func() {
					for i := 0; i < n; i++ {
						psn := packet.PSN(i)
						r.Pick(psn)
						r.OnAck(psn)
					}
				}, func() error {
					// The first pick explores; every later one recycles the
					// entropy the previous ACK returned.
					st := r.Stats()
					return errors.Join(want("entropy values explored", st.Explored, 1), want("entropy values recycled", st.Recycled, uint64(n-1)))
				}
		}},
	}
}

// --- fabric and route ---

var probeLink = topo.LinkSpec{Bandwidth: 100e9, Delay: sim.Microsecond}

func mustTopo(t *topo.Topology, err error) *topo.Topology {
	if err != nil {
		panic(err) // fixed, valid dimensions
	}
	return t
}

// forwardProbe injects n data packets from src to dst with 64 in flight and
// requires every one to be delivered.
func forwardProbe(name string, t *topo.Topology, cfg fabric.Config, src, dst packet.NodeID) probe {
	return probe{name: name, unit: "ns", n: 32_768, prep: func(n int) (func(), func() error) {
		e := sim.NewEngine(1)
		cfg := cfg
		cfg.ControlLossless = true
		cfg.Pool = packet.NewPool()
		net := fabric.NewNetwork(e, t, cfg)
		net.AttachHost(dst, func(*packet.Packet) {})
		return func() {
				for i := 0; i < n; i++ {
					p := cfg.Pool.Get()
					p.Kind, p.Src, p.Dst, p.QP = packet.Data, src, dst, 1
					p.SPort, p.DPort = 1000, 4791
					p.PSN, p.Payload = packet.PSN(i), 1000
					net.Inject(src, p)
					if i%64 == 63 {
						e.RunAll()
					}
				}
				e.RunAll()
			}, func() error {
				return want("packets delivered", net.Counters().Delivered, uint64(n))
			}
	}}
}

// flapProbe takes one edge uplink of a k=4 fat-tree down and up again, running
// the control plane to quiescence and forwarding one cross-pod packet after
// each edge so the oracle's lazy recompute is paid too.
func flapProbe(name string, routing route.Config) probe {
	return probe{name: name, unit: "us", n: 200, prep: func(n int) (func(), func() error) {
		t := mustTopo(topo.NewFatTree(topo.FatTreeConfig{K: 4, HostLink: probeLink, FabricLink: probeLink}))
		e := sim.NewEngine(1)
		pool := packet.NewPool()
		net := fabric.NewNetwork(e, t, fabric.Config{ControlLossless: true, Pool: pool, Routing: routing})
		dst := packet.NodeID(t.NumHosts() - 1)
		net.AttachHost(dst, func(*packet.Packet) {})
		uplink := 0
		for port := range t.Switch(0).Ports {
			if !t.Switch(0).Ports[port].IsHostPort() {
				uplink = port
				break
			}
		}
		edge := func(up bool, psn int) {
			net.SetLinkState(0, uplink, up)
			e.RunAll()
			p := pool.Get()
			p.Kind, p.Src, p.Dst, p.QP = packet.Data, 0, dst, 1
			p.SPort, p.DPort, p.PSN, p.Payload = 1000, 4791, packet.PSN(psn), 1000
			net.Inject(0, p)
			e.RunAll()
		}
		return func() {
				for i := 0; i < n; i++ {
					edge(false, 2*i)
					edge(true, 2*i+1)
				}
			}, func() error {
				if err := net.RouteConverged(); err != nil {
					return err
				}
				return want("packets delivered across flaps", net.Counters().Delivered, uint64(2*n))
			}
	}}
}

func fabricProbes() []probe {
	leafSpine := mustTopo(topo.NewLeafSpine(topo.LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 1, HostLink: probeLink, FabricLink: probeLink,
	}))
	fatTree := mustTopo(topo.NewFatTree(topo.FatTreeConfig{K: 4, HostLink: probeLink, FabricLink: probeLink}))
	asClustersRun := fabric.Config{
		BufferBytes: 64 << 20,
		ECN:         fabric.DefaultECN(probeLink.Bandwidth),
		PFC:         fabric.DefaultPFC(probeLink.Bandwidth),
	}
	bare := forwardProbe("fabric.forward_2hop_ns", leafSpine, fabric.Config{}, 0, 1)
	bare.allocs = "fabric.forward_2hop_allocs"
	bare.rate = "fabric.pkts_per_wall_s" // packets one core forwards per host second, 64 in flight
	return []probe{
		bare,
		forwardProbe("fabric.forward_2hop_pfc_ecn_ns", leafSpine, asClustersRun, 0, 1),
		forwardProbe("fabric.forward_4hop_ns", fatTree, fabric.Config{}, 0, packet.NodeID(fatTree.NumHosts()-1)),
		flapProbe("route.flap_reconverge_us.oracle", route.Config{}),
		flapProbe("route.flap_reconverge_us.distributed", route.Config{Mode: route.Distributed, PerHopDelay: 5 * sim.Microsecond}),
	}
}

// --- core ---

// coreTopo is a 2-leaf fabric with 16 spines: flows from host 0 (leaf 0) to
// host 2 (leaf 1) have the paper fabric's 16 equal-cost paths.
func coreTopo() *topo.Topology {
	return mustTopo(topo.NewLeafSpine(topo.LeafSpineConfig{
		Leaves: 2, Spines: 16, HostsPerLeaf: 2, HostLink: probeLink, FabricLink: probeLink,
	}))
}

// themisD returns the destination ToR's instance with flows registered QPs.
func themisD(t *topo.Topology, flows int) *core.Themis {
	th := core.New(t, 1, core.Config{})
	for qp := 1; qp <= flows; qp++ {
		if err := th.RegisterFlow(packet.QPID(qp), 0, 2, 1000); err != nil {
			panic(err) // unbounded table: registration cannot fail
		}
	}
	return th
}

func coreProbes() []probe {
	t := coreTopo()
	onDeliver := func(name string, flows int) probe {
		return probe{name: name, unit: "ns", n: 400_000, prep: func(n int) (func(), func() error) {
			th := themisD(t, flows)
			pkt := &packet.Packet{Kind: packet.Data, Src: 0, Dst: 2, QP: 1, SPort: 1000, DPort: 4791, Payload: 1500}
			emitted := 0
			return func() {
					for i := 0; i < n; i++ {
						pkt.PSN = packet.NewPSN(uint32(i))
						emitted += len(th.OnDeliverToHost(pkt))
					}
				}, func() error {
					entries, _, overflows := th.RingStats()
					if emitted != 0 || entries == 0 {
						return fmt.Errorf("ring holds %d PSNs, %d compensations emitted", entries, emitted)
					}
					// Every delivery is in the ring or was evicted from it.
					return want("ring entries + overflows", uint64(entries)+overflows, uint64(n))
				}
		}}
	}
	// filterNack offers one NACK to each of n flows whose ring holds a single
	// in-flight PSN trigger − ePSN = delta ahead of the NACK's ePSN: with 16
	// paths, delta 16 maps to the same path (valid, forwarded) and delta 1 to
	// another (invalid, blocked).
	filterNack := func(name string, delta int, blocked bool) probe {
		return probe{name: name, unit: "ns", n: 4096, prep: func(n int) (func(), func() error) {
			th := themisD(t, n)
			data := &packet.Packet{Kind: packet.Data, Src: 0, Dst: 2, SPort: 1000, DPort: 4791, Payload: 1500, PSN: packet.PSN(delta)}
			for qp := 1; qp <= n; qp++ {
				data.QP = packet.QPID(qp)
				th.OnDeliverToHost(data)
			}
			nack := &packet.Packet{Kind: packet.Nack, Src: 2, Dst: 0, SPort: 1000, DPort: 4791}
			passed := uint64(0)
			return func() {
					for qp := 1; qp <= n; qp++ {
						nack.QP = packet.QPID(qp)
						if th.FilterHostControl(nack) {
							passed++
						}
					}
				}, func() error {
					st := th.Stats()
					wantBlocked, wantPassed := uint64(0), uint64(n)
					if blocked {
						wantBlocked, wantPassed = uint64(n), 0
					}
					return errors.Join(
						want("NACKs seen", st.NacksSeen, uint64(n)),
						want("NACKs blocked", st.NacksBlocked, wantBlocked),
						want("NACKs passed", passed, wantPassed),
						want("blocked + forwarded", st.NacksBlocked+st.NacksForwarded, uint64(n)),
						want("scan misses", st.ScanMisses, 0),
					)
				}
		}}
	}
	return []probe{
		{name: "core.select_uplink_ns", unit: "ns", n: 400_000, prep: func(n int) (func(), func() error) {
			th := core.New(t, 0, core.Config{})
			if err := th.RegisterFlow(1, 0, 2, 1000); err != nil {
				panic(err)
			}
			cands := t.CandidatePorts(0, 2)
			pkt := &packet.Packet{Kind: packet.Data, Src: 0, Dst: 2, QP: 1, SPort: 1000, DPort: 4791, Payload: 1500}
			steered := uint64(0)
			return func() {
					for i := 0; i < n; i++ {
						pkt.PSN = packet.NewPSN(uint32(i))
						if _, ok := th.SelectUplink(pkt, cands); ok {
							steered++
						}
					}
				}, func() error {
					return errors.Join(want("packets steered", steered, uint64(n)), want("sprayed", th.Stats().Sprayed, uint64(n)))
				}
		}},
		onDeliver("core.on_deliver_ns.f16", 16),
		onDeliver("core.on_deliver_ns.f8192", 8192),
		filterNack("core.filter_nack_ns.blocked", 1, true),
		filterNack("core.filter_nack_ns.valid", 16, false),
		{name: "core.register_unregister_ns", unit: "ns", n: 40_000, prep: func(n int) (func(), func() error) {
			th := core.New(t, 1, core.Config{})
			return func() {
					for i := 1; i <= n; i++ {
						if err := th.RegisterFlow(packet.QPID(i), 0, 2, 1000); err != nil {
							panic(err)
						}
						th.UnregisterFlow(packet.QPID(i))
					}
				}, func() error {
					_, resident := th.FlowCounts()
					return errors.Join(want("flows unregistered", th.Stats().Unregistered, uint64(n)), want("flows resident", uint64(resident), 0))
				}
		}},
	}
}

// --- rnic ---

// rnicProbe loops two NICs back through their inject closures with no fabric
// between them: every injected packet reaches the peer's HandlePacket one
// engine event later. With swap set, fresh data packets are delivered in
// swapped adjacent pairs, so every other arrival is out of order.
func rnicProbe(name string, tr rnic.Transport, swap bool) probe {
	return probe{name: name, unit: "ns", n: 65_536, prep: func(n int) (func(), func() error) {
		e := sim.NewEngine(1)
		pool := packet.NewPool()
		cfg := rnic.Config{Transport: tr, LineRate: 100e9, DisableCC: true, Pool: pool}
		var nics [2]*rnic.NIC
		deliver := func(arg any) {
			p := arg.(*packet.Packet)
			nics[p.Dst].HandlePacket(p)
			pool.Put(p)
		}
		var held *packet.Packet
		inject := func(p *packet.Packet) {
			if swap && p.Kind == packet.Data && !p.Retransmit {
				if held == nil {
					held = p
					return
				}
				e.ScheduleArg(sim.Microsecond, deliver, p)
				p, held = held, nil
			}
			e.ScheduleArg(sim.Microsecond, deliver, p)
		}
		for id := range nics {
			nics[id] = rnic.New(e, packet.NodeID(id), cfg, inject)
		}
		s := nics[0].OpenSender(1, 1, 1000)
		r := nics[1].OpenReceiver(1, 0, 1000)
		return func() {
				s.SendMessage(int64(n)*packet.DefaultMTU, nil)
				e.RunAll()
			}, func() error {
				rs := r.Stats()
				err := errors.Join(
					want("messages completed", s.Stats().Completions, 1),
					want("bytes delivered in order", rs.BytesRecv, uint64(n)*packet.DefaultMTU),
				)
				if swap && rs.OutOfOrder == 0 {
					err = errors.Join(err, errors.New("no out-of-order arrival"))
				}
				if !swap && rs.OutOfOrder+rs.Duplicates != 0 {
					err = errors.Join(err, errors.New("in-order run saw reordering"))
				}
				return err
			}
	}}
}

func rnicProbes() []probe {
	return []probe{
		rnicProbe("rnic.inorder_pkt_ns", rnic.SelectiveRepeat, false),
		rnicProbe("rnic.ooo_pkt_ns", rnic.SelectiveRepeat, true),
		rnicProbe("rnic.gbn_ooo_pkt_ns", rnic.GoBackN, true),
	}
}

// --- cc ---

func ccProbes() []probe {
	// Cuts are gated to one per TD (4 us), so the clock advances 5 us before
	// every signal — by one no-op engine event, whose cost is part of the
	// figure — and every signal takes the full decrease path.
	signal := func(name string, fire func(*cc.DCQCN), cuts func(cc.Stats) uint64) probe {
		return probe{name: name, unit: "ns", n: 200_000, prep: func(n int) (func(), func() error) {
			e := sim.NewEngine(1)
			d := cc.New(e, cc.Config{LineRate: 400e9})
			stop := func() { e.Stop() }
			return func() {
					for i := 0; i < n; i++ {
						e.Schedule(5*sim.Microsecond, stop)
						e.RunAll()
						fire(d)
					}
				}, func() error {
					st := d.Stats()
					d.Stop()
					return errors.Join(want("signals seen", cuts(st), uint64(n)), want("rate decreases", st.Decreases, uint64(n)))
				}
		}}
	}
	return []probe{
		signal("cc.on_cnp_ns", (*cc.DCQCN).OnCNP, func(s cc.Stats) uint64 { return s.CNPs }),
		signal("cc.on_nack_ns", (*cc.DCQCN).OnNack, func(s cc.Stats) uint64 { return s.Nacks }),
		{name: "cc.on_bytes_sent_ns", unit: "ns", n: 1_000_000, prep: func(n int) (func(), func() error) {
			d := cc.New(sim.NewEngine(1), cc.Config{LineRate: 400e9})
			return func() {
					for i := 0; i < n; i++ {
						d.OnBytesSent(packet.DefaultMTU)
					}
				}, func() error {
					// One byte-counter increase per 10 MB sent.
					return want("byte-counter increases", d.Stats().IncreaseEvents, uint64(n)*packet.DefaultMTU/(10<<20))
				}
		}},
	}
}

// --- topo, workload ---

func buildProbes() []probe {
	paper := topo.LinkSpec{Bandwidth: 400e9, Delay: sim.Microsecond}
	themisCluster := func(leaves, spines, hosts int) (*workload.Cluster, error) {
		return workload.BuildCluster(workload.ClusterConfig{
			Seed: 1, Leaves: leaves, Spines: spines, HostsPerLeaf: hosts, LB: workload.Themis,
		})
	}
	return []probe{
		{name: "topo.build_ms.ls16x16x16", unit: "ms", n: 20, prep: func(n int) (func(), func() error) {
			hosts := 0
			return func() {
					for i := 0; i < n; i++ {
						hosts += mustTopo(topo.NewLeafSpine(topo.LeafSpineConfig{
							Leaves: 16, Spines: 16, HostsPerLeaf: 16, HostLink: paper, FabricLink: paper,
						})).NumHosts()
					}
				}, func() error {
					return want("hosts built", uint64(hosts), uint64(n)*256)
				}
		}},
		{name: "topo.build_ms.ft8", unit: "ms", n: 20, prep: func(n int) (func(), func() error) {
			hosts := 0
			return func() {
					for i := 0; i < n; i++ {
						hosts += mustTopo(topo.NewFatTree(topo.FatTreeConfig{K: 8, HostLink: paper, FabricLink: paper})).NumHosts()
					}
				}, func() error {
					return want("hosts built", uint64(hosts), uint64(n)*128)
				}
		}},
		{name: "workload.build_cluster_ms", unit: "ms", n: 10, prep: func(n int) (func(), func() error) {
			nics, tors := 0, 0
			var err error
			return func() {
					for i := 0; i < n && err == nil; i++ {
						var cl *workload.Cluster
						if cl, err = themisCluster(16, 16, 16); err == nil {
							nics, tors = nics+len(cl.NICs), tors+len(cl.Themis)
						}
					}
				}, func() error {
					return errors.Join(err, want("NICs built", uint64(nics), uint64(n)*256), want("Themis ToRs built", uint64(tors), uint64(n)*16))
				}
		}},
		{name: "workload.open_close_flow_us", unit: "us", n: 5_000, prep: func(n int) (func(), func() error) {
			cl, err := themisCluster(4, 4, 4)
			if err != nil {
				return func() {}, func() error { return err }
			}
			return func() {
					for i := 0; i < n; i++ {
						cl.CloseFlow(cl.OpenFlow(0, 5))
					}
				}, func() error {
					return errors.Join(
						want("flows unregistered per ToR role", cl.ThemisStats().Unregistered, 2*uint64(n)),
						want("connections opened", uint64(len(cl.Conns())), uint64(n)),
					)
				}
		}},
	}
}

// --- trace, obs ---

// countingWriter discards what it is given and counts it.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

func obsProbes() []probe {
	pkt := &packet.Packet{Kind: packet.Data, Src: 0, Dst: 2, QP: 1, SPort: 1000, DPort: 4791, Payload: 1500}
	return []probe{
		{name: "trace.record_packet_ns", unit: "ns", n: 1_000_000, prep: func(n int) (func(), func() error) {
			tr := trace.New(1 << 16)
			return func() {
					for i := 0; i < n; i++ {
						tr.RecordPacket(sim.Time(i), trace.HostTx, 3, 7, pkt)
					}
				}, func() error {
					return want("events recorded", tr.Total(), uint64(n))
				}
		}},
		{name: "obs.write_jsonl_ns_per_event", unit: "ns", n: 65_536, prep: func(n int) (func(), func() error) {
			tr := trace.New(n)
			for i := 0; i < n; i++ {
				tr.RecordPacket(sim.Time(i), trace.HostTx, 3, 7, pkt)
			}
			dump := obs.NewDump("probe", 1, tr, nil)
			var w countingWriter
			var err error
			return func() { err = obs.WriteJSONL(&w, dump) }, func() error {
				if err == nil && w.n < int64(n) {
					err = fmt.Errorf("%d bytes written for %d events", w.n, n)
				}
				return errors.Join(err, want("events dumped", uint64(len(dump.Events)), uint64(n)))
			}
		}},
	}
}

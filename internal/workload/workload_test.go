package workload

import (
	"testing"

	"themis/internal/collective"
	"themis/internal/packet"
	"themis/internal/rnic"
	"themis/internal/sim"
	"themis/internal/trace"
)

func TestLBModeString(t *testing.T) {
	names := map[LBMode]string{
		ECMP: "ecmp", RandomSpray: "rps", Adaptive: "adaptive",
		Flowlet: "flowlet", SprayNoThemis: "spray-nothemis", Themis: "themis",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d: got %q want %q", m, m.String(), want)
		}
	}
}

func TestBuildClusterLeafSpine(t *testing.T) {
	cl, err := BuildCluster(ClusterConfig{
		Seed: 1, Leaves: 2, Spines: 2, HostsPerLeaf: 2, Bandwidth: 100e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.NICs) != 4 {
		t.Fatalf("nics = %d", len(cl.NICs))
	}
	if len(cl.Themis) != 0 {
		t.Fatal("themis installed without LB=Themis")
	}
}

func TestBuildClusterThemisInstallsPipelines(t *testing.T) {
	cl, err := BuildCluster(ClusterConfig{
		Seed: 1, Leaves: 4, Spines: 4, HostsPerLeaf: 2, Bandwidth: 100e9, LB: Themis,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Themis) != 4 {
		t.Fatalf("themis instances = %d, want one per leaf", len(cl.Themis))
	}
}

func TestBuildClusterFatTree(t *testing.T) {
	cl, err := BuildCluster(ClusterConfig{Seed: 1, FatTreeK: 4, Bandwidth: 100e9, LB: Themis})
	if err != nil {
		t.Fatal(err)
	}
	if cl.Topo.NumHosts() != 16 {
		t.Fatalf("hosts = %d", cl.Topo.NumHosts())
	}
	// Cross-pod connection must register without error (PathMap mode is
	// forced automatically on fat-trees).
	cn := cl.Conn(0, 15)
	done := false
	cn.Send(100_000, func() { done = true })
	cl.Run(sim.Second)
	if !done {
		t.Fatal("fat-tree transfer incomplete")
	}
}

func TestConnReuse(t *testing.T) {
	cl, err := BuildCluster(ClusterConfig{Seed: 1, Leaves: 2, Spines: 2, HostsPerLeaf: 1, Bandwidth: 100e9})
	if err != nil {
		t.Fatal(err)
	}
	a := cl.Conn(0, 1)
	b := cl.Conn(0, 1)
	if a != b {
		t.Fatal("Conn not reused")
	}
	if c := cl.Conn(1, 0); c == a {
		t.Fatal("reverse direction shared a QP")
	}
	if len(cl.Conns()) != 2 {
		t.Fatalf("conns = %d", len(cl.Conns()))
	}
}

func TestConnNotifyRecvOrdering(t *testing.T) {
	cl, err := BuildCluster(ClusterConfig{Seed: 1, Leaves: 2, Spines: 2, HostsPerLeaf: 1, Bandwidth: 100e9})
	if err != nil {
		t.Fatal(err)
	}
	cn := cl.Conn(0, 1)
	var fired []int
	cn.NotifyRecv(1000, func() { fired = append(fired, 1) })
	cn.NotifyRecv(2000, func() { fired = append(fired, 2) })
	cn.Send(2500, nil)
	cl.Run(sim.Second)
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Fatalf("fired = %v", fired)
	}
	if cn.RecvBytes() != 2500 {
		t.Fatalf("recv bytes = %d", cn.RecvBytes())
	}
	// Already-crossed threshold fires immediately.
	now := false
	cn.NotifyRecv(100, func() { now = true })
	if !now {
		t.Fatal("past threshold did not fire immediately")
	}
}

func TestGroupHosts(t *testing.T) {
	hosts := GroupHosts(4, 16, 3)
	want := []packet.NodeID{3, 19, 35, 51}
	for i := range want {
		if hosts[i] != want[i] {
			t.Fatalf("hosts = %v", hosts)
		}
	}
}

func TestMotivationFlows(t *testing.T) {
	flows := MotivationFlows()
	if len(flows) != 8 {
		t.Fatalf("flows = %d", len(flows))
	}
	// Group 1 ring: 0->2->4->6->0.
	if flows[0] != [2]packet.NodeID{0, 2} || flows[3] != [2]packet.NodeID{6, 0} {
		t.Fatalf("group 1 flows = %v", flows[:4])
	}
	// Group 2 ring: 1->3->5->7->1.
	if flows[4] != [2]packet.NodeID{1, 3} || flows[7] != [2]packet.NodeID{7, 1} {
		t.Fatalf("group 2 flows = %v", flows[4:])
	}
	// Every flow is cross-rack (host h is on leaf h/2).
	for _, f := range flows {
		if f[0]/2 == f[1]/2 {
			t.Fatalf("flow %v is same-rack", f)
		}
	}
}

func TestRunMotivationSmall(t *testing.T) {
	res, err := RunMotivation(Config{ClusterConfig: ClusterConfig{Seed: 3}, Shape: Shape{MessageBytes: 2 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	if res.CCTMillis <= 0 {
		t.Fatal("no completion time")
	}
	if len(res.ThroughputGbps) != 8 {
		t.Fatalf("throughputs = %d", len(res.ThroughputGbps))
	}
	// NIC-SR + random spraying: the pathology must appear.
	if res.Sender.Retransmits == 0 {
		t.Fatal("no spurious retransmissions in the motivation scenario")
	}
	if res.RetransRatio <= 0 || res.RetransRatio >= 1 {
		t.Fatalf("retrans ratio = %f", res.RetransRatio)
	}
	if res.AvgRateGbps <= 0 || res.AvgRateGbps > 100 {
		t.Fatalf("avg rate = %f", res.AvgRateGbps)
	}
	if res.GoodputGbps <= 0 || res.GoodputGbps > 100 {
		t.Fatalf("avg throughput = %f", res.GoodputGbps)
	}
	if res.Series.Retrans.Len() == 0 || res.Series.RateGbps.Len() == 0 {
		t.Fatal("empty time series")
	}
}

func TestRunMotivationIdealBeatsNICSR(t *testing.T) {
	nicsr, err := RunMotivation(Config{ClusterConfig: ClusterConfig{Seed: 3}, Shape: Shape{MessageBytes: 2 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := RunMotivation(Config{
		ClusterConfig: ClusterConfig{Seed: 3, Transport: rnic.Ideal},
		Shape:         Shape{MessageBytes: 2 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ideal.Sender.Retransmits != 0 {
		t.Fatalf("ideal transport retransmitted %d", ideal.Sender.Retransmits)
	}
	if ideal.GoodputGbps <= nicsr.GoodputGbps {
		t.Fatalf("ideal %.1f <= nic-sr %.1f Gbps", ideal.GoodputGbps, nicsr.GoodputGbps)
	}
}

func smallCollective(pattern collective.Pattern, lb LBMode, seed int64) Config {
	return Config{
		ClusterConfig: ClusterConfig{Seed: seed, Leaves: 4, Spines: 4, HostsPerLeaf: 4, Bandwidth: 100e9, LB: lb},
		Shape:         Shape{Pattern: pattern, MessageBytes: 1 << 20, Groups: 4},
	}
}

func TestRunCollectiveAllreduceArms(t *testing.T) {
	for _, arm := range Fig5Arms() {
		res, err := RunCollective(smallCollective(collective.RingAllreduce, arm, 5))
		if err != nil {
			t.Fatalf("%v: %v", arm, err)
		}
		if res.TailCCT <= 0 {
			t.Fatalf("%v: no tail CCT", arm)
		}
		if len(res.GroupCCT) != 4 {
			t.Fatalf("%v: groups = %d", arm, len(res.GroupCCT))
		}
		for g, cct := range res.GroupCCT {
			if cct <= 0 || cct > res.TailCCT {
				t.Fatalf("%v: group %d CCT %v vs tail %v", arm, g, cct, res.TailCCT)
			}
		}
	}
}

func TestRunCollectiveAlltoall(t *testing.T) {
	res, err := RunCollective(smallCollective(collective.AllToAll, Themis, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.TailCCT <= 0 {
		t.Fatal("no tail CCT")
	}
	if res.Middleware.Sprayed == 0 {
		t.Fatal("themis sprayed nothing")
	}
}

func TestRunCollectiveThemisBeatsAdaptive(t *testing.T) {
	// The paper's headline comparison: Themis vs the direct combination of
	// commodity RNICs and adaptive routing (§5).
	themis, err := RunCollective(smallCollective(collective.RingAllreduce, Themis, 5))
	if err != nil {
		t.Fatal(err)
	}
	ar, err := RunCollective(smallCollective(collective.RingAllreduce, Adaptive, 5))
	if err != nil {
		t.Fatal(err)
	}
	if ar.Sender.NacksRx == 0 {
		t.Fatal("adaptive routing produced no sender NACKs — pathology missing")
	}
	if themis.Sender.NacksRx >= ar.Sender.NacksRx {
		t.Fatalf("themis nacks %d >= adaptive %d", themis.Sender.NacksRx, ar.Sender.NacksRx)
	}
	if themis.RetransRatio >= ar.RetransRatio {
		t.Fatalf("themis retrans ratio %.4f >= adaptive %.4f", themis.RetransRatio, ar.RetransRatio)
	}
	if themis.TailCCT >= ar.TailCCT {
		t.Fatalf("themis tail CCT %v >= adaptive %v", themis.TailCCT, ar.TailCCT)
	}
}

func TestRunCollectiveDeterministic(t *testing.T) {
	a, err := RunCollective(smallCollective(collective.RingAllreduce, Adaptive, 9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCollective(smallCollective(collective.RingAllreduce, Adaptive, 9))
	if err != nil {
		t.Fatal(err)
	}
	if a.TailCCT != b.TailCCT || a.Sender.Retransmits != b.Sender.Retransmits {
		t.Fatalf("nondeterministic: %v/%d vs %v/%d", a.TailCCT, a.Sender.Retransmits, b.TailCCT, b.Sender.Retransmits)
	}
}

func TestRunCollectiveTooManyGroups(t *testing.T) {
	cfg := smallCollective(collective.RingAllreduce, ECMP, 1)
	cfg.Groups = 10
	if _, err := RunCollective(cfg); err == nil {
		t.Fatal("expected error")
	}
}

func TestPaperDCQCNSettings(t *testing.T) {
	s := PaperDCQCNSettings()
	if len(s) != 5 {
		t.Fatalf("settings = %d", len(s))
	}
	if s[0].TI != 900*sim.Microsecond || s[0].TD != 4*sim.Microsecond {
		t.Fatalf("first setting = %+v", s[0])
	}
	if s[4].TI != 10*sim.Microsecond || s[4].TD != 200*sim.Microsecond {
		t.Fatalf("last setting = %+v", s[4])
	}
}

func TestFailAndRepairLink(t *testing.T) {
	cl, err := BuildCluster(ClusterConfig{
		Seed: 1, Leaves: 2, Spines: 4, HostsPerLeaf: 2, Bandwidth: 100e9, LB: Themis,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.FailLink(0, 2)
	for _, th := range cl.Themis {
		if !th.Disabled() {
			t.Fatal("FailLink must disable every Themis instance")
		}
	}
	done := false
	cl.Conn(0, 2).Send(500_000, func() { done = true })
	cl.Run(sim.Second)
	if !done {
		t.Fatal("transfer incomplete under failure")
	}
	cl.RepairLink(0, 2)
	for _, th := range cl.Themis {
		if th.Disabled() {
			t.Fatal("RepairLink must re-enable Themis")
		}
	}
}

func TestOverlappingFailuresRepairedOutOfOrder(t *testing.T) {
	cl, err := BuildCluster(ClusterConfig{
		Seed: 1, Leaves: 2, Spines: 4, HostsPerLeaf: 2, Bandwidth: 100e9, LB: Themis,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two overlapping failures on different leaves.
	cl.FailLink(0, 2)
	cl.FailLink(1, 3)
	if cl.FailedLinks() != 2 {
		t.Fatalf("outstanding failures = %d", cl.FailedLinks())
	}
	// Repair them in the opposite order of a LIFO assumption: the first
	// failure first. One link is still down, so Themis must stay disabled.
	cl.RepairLink(0, 2)
	if cl.FailedLinks() != 1 {
		t.Fatalf("outstanding failures = %d", cl.FailedLinks())
	}
	for _, th := range cl.Themis {
		if !th.Disabled() {
			t.Fatal("Themis re-enabled while a failure is outstanding")
		}
	}
	done := false
	cl.Conn(0, 2).Send(500_000, func() { done = true })
	cl.Run(sim.Second)
	if !done {
		t.Fatal("transfer incomplete under the remaining failure")
	}
	cl.RepairLink(1, 3)
	if cl.FailedLinks() != 0 {
		t.Fatalf("outstanding failures = %d", cl.FailedLinks())
	}
	for _, th := range cl.Themis {
		if th.Disabled() {
			t.Fatal("Themis not re-enabled after the last repair")
		}
	}
}

func TestLossyControlPlaneStillCompletes(t *testing.T) {
	cl, err := BuildCluster(ClusterConfig{
		Seed: 7, Leaves: 2, Spines: 4, HostsPerLeaf: 2, Bandwidth: 100e9,
		LB: Themis, LossyControl: true,
		RTO: 200 * sim.Microsecond, RTOBackoff: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Drop 1% of control packets (deterministic stride, engine-independent).
	ctrlSeen := 0
	cl.Net.SetLossFunc(func(pkt *packet.Packet, sw, port int) bool {
		if !pkt.Kind.IsControl() {
			return false
		}
		ctrlSeen++
		return ctrlSeen%100 == 0
	})
	remaining := 0
	for _, f := range [][2]packet.NodeID{{0, 2}, {1, 3}, {2, 0}, {3, 1}} {
		remaining++
		cl.Conn(f[0], f[1]).Send(1<<20, func() { remaining-- })
	}
	cl.Run(10 * sim.Second)
	cl.Engine.RunAll()
	if remaining != 0 {
		t.Fatalf("%d transfers incomplete under control-plane loss", remaining)
	}
	if cl.Net.Counters().CtrlDrops == 0 {
		t.Fatal("no control packets dropped — regime mis-tuned")
	}
	// Themis-D classification must stay consistent under lost NACKs: every
	// compensation corresponds to a previously blocked NACK.
	st := cl.ThemisStats()
	if st.Compensations > st.NacksBlocked {
		t.Fatalf("compensations %d > blocked NACKs %d", st.Compensations, st.NacksBlocked)
	}
	if st.NacksSeen != st.NacksForwarded+st.NacksBlocked {
		t.Fatalf("NACK classification leak: seen %d, fwd %d, blocked %d",
			st.NacksSeen, st.NacksForwarded, st.NacksBlocked)
	}
}

func TestClusterTracing(t *testing.T) {
	tr := trace.New(4096)
	cl, err := BuildCluster(ClusterConfig{
		Seed: 1, Leaves: 2, Spines: 4, HostsPerLeaf: 2, Bandwidth: 100e9,
		LB: Themis, Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := false
	cl.Conn(0, 2).Send(200_000, func() { done = true })
	cl.Run(sim.Second)
	if !done {
		t.Fatal("incomplete")
	}
	if tr.Total() == 0 {
		t.Fatal("no events traced")
	}
	injected := tr.ByOp(trace.HostTx)
	delivered := tr.ByOp(trace.Deliver)
	sprayed := tr.ByOp(trace.Spray)
	if len(injected) == 0 || len(delivered) == 0 || len(sprayed) == 0 {
		t.Fatalf("missing trace classes: inj=%d del=%d spray=%d", len(injected), len(delivered), len(sprayed))
	}
	// Events must be time-ordered.
	evs := tr.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].T < evs[i-1].T {
			t.Fatal("trace out of order")
		}
	}
}

func TestRunIncastLossless(t *testing.T) {
	res, err := RunIncast(Config{
		ClusterConfig: ClusterConfig{Seed: 2, LB: Themis},
		Shape:         Shape{Senders: 8, MessageBytes: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Net.DataDrops != 0 {
		t.Fatalf("PFC incast dropped %d", res.Net.DataDrops)
	}
	if res.CCTMillis <= 0 {
		t.Fatal("no CCT")
	}
	// 8 MB through a 100 Gbps bottleneck. The run is one big DCQCN
	// transient at the default (900,4) knobs — deep synchronized cuts with
	// slow recovery — so goodput sits well below line; the invariant worth
	// asserting is losslessness plus plausible bounds.
	if res.GoodputGbps <= 1 || res.GoodputGbps > 100 {
		t.Fatalf("goodput = %.1f Gbps", res.GoodputGbps)
	}
	if res.Sender.Timeouts != 0 {
		t.Fatalf("timeouts = %d", res.Sender.Timeouts)
	}
}

func TestRunIncastLossyVsLossless(t *testing.T) {
	// With a shallow buffer and a long feedback loop, only PFC prevents the
	// pre-CNP burst from overflowing.
	base := Config{
		ClusterConfig: ClusterConfig{Seed: 2, LB: Themis, BufferBytes: 4 << 20, LinkDelay: 5 * sim.Microsecond},
		Shape:         Shape{Senders: 12, MessageBytes: 1 << 20},
	}
	lossless, err := RunIncast(base)
	if err != nil {
		t.Fatal(err)
	}
	lossyCfg := base
	lossyCfg.DisablePFC = true
	lossy, err := RunIncast(lossyCfg)
	if err != nil {
		t.Fatal(err)
	}
	if lossless.Net.DataDrops != 0 {
		t.Fatalf("lossless dropped %d", lossless.Net.DataDrops)
	}
	if lossy.Net.DataDrops == 0 {
		t.Fatal("lossy fabric did not drop — regime mis-tuned")
	}
	if lossy.CCTMillis <= lossless.CCTMillis {
		t.Fatalf("lossy %v <= lossless %v ms", lossy.CCTMillis, lossless.CCTMillis)
	}
}

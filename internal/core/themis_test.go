package core

import (
	"testing"

	"themis/internal/lb"
	"themis/internal/packet"
	"themis/internal/sim"
	"themis/internal/topo"
)

func leafSpine(t testing.TB, leaves, spines, hosts int) *topo.Topology {
	t.Helper()
	tp, err := topo.NewLeafSpine(topo.LeafSpineConfig{
		Leaves: leaves, Spines: spines, HostsPerLeaf: hosts,
		HostLink:   topo.LinkSpec{Bandwidth: 100e9, Delay: sim.Microsecond},
		FabricLink: topo.LinkSpec{Bandwidth: 100e9, Delay: sim.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func dataPkt(qp packet.QPID, src, dst packet.NodeID, psn packet.PSN) *packet.Packet {
	return &packet.Packet{Kind: packet.Data, Src: src, Dst: dst, QP: qp, SPort: 1000, DPort: 4791, PSN: psn, Payload: 1000}
}

func nackPkt(qp packet.QPID, src, dst packet.NodeID, epsn packet.PSN) *packet.Packet {
	return &packet.Packet{Kind: packet.Nack, Src: src, Dst: dst, QP: qp, SPort: 1000, DPort: 4791, PSN: epsn}
}

// setup registers QP 1 from host 0 (leaf 0) to host dst on a 2x2x2
// leaf-spine and returns the source-side and destination-side instances.
func setup(t *testing.T, cfg Config) (*Themis, *Themis, *topo.Topology) {
	t.Helper()
	tp := leafSpine(t, 2, 2, 2)
	src, dst := New(tp, 0, cfg), New(tp, 1, cfg)
	if err := src.RegisterFlow(1, 0, 2, 1000); err != nil {
		t.Fatal(err)
	}
	if err := dst.RegisterFlow(1, 0, 2, 1000); err != nil {
		t.Fatal(err)
	}
	return src, dst, tp
}

func TestRegisterFlowRoles(t *testing.T) {
	src, dst, _ := setup(t, Config{})
	if len(src.srcFlows) != 1 || len(src.dstFlows) != 0 {
		t.Fatal("source ToR roles wrong")
	}
	if len(dst.srcFlows) != 0 || len(dst.dstFlows) != 1 {
		t.Fatal("destination ToR roles wrong")
	}
}

func TestRegisterFlowSameRackIgnored(t *testing.T) {
	tp := leafSpine(t, 2, 2, 2)
	th := New(tp, 0, Config{})
	if err := th.RegisterFlow(1, 0, 1, 1000); err != nil {
		t.Fatal(err)
	}
	if len(th.srcFlows)+len(th.dstFlows) != 0 {
		t.Fatal("same-rack flow registered")
	}
}

func TestRegisterFlowUnrelatedToRIgnored(t *testing.T) {
	tp := leafSpine(t, 3, 2, 2)
	th := New(tp, 2, Config{}) // neither src nor dst ToR
	if err := th.RegisterFlow(1, 0, 2, 1000); err != nil {
		t.Fatal(err)
	}
	if len(th.srcFlows)+len(th.dstFlows) != 0 {
		t.Fatal("unrelated ToR registered flow")
	}
}

func TestDirectSprayEq1(t *testing.T) {
	src, _, tp := setup(t, Config{})
	cands := tp.CandidatePorts(0, 2) // two uplinks
	key := packet.FlowKey{Src: 0, Dst: 2, SPort: 1000, DPort: 4791}
	hash := lb.Hash(key) ^ lb.SwitchSeed(0)
	for psn := packet.PSN(0); psn < 16; psn++ {
		p := dataPkt(1, 0, 2, psn)
		port, ok := src.SelectUplink(p, cands)
		if !ok {
			t.Fatal("Themis-S did not steer a registered flow")
		}
		want := cands[lb.SprayIndex(psn, hash, 2)]
		if port != want {
			t.Fatalf("psn %d: port %d want %d", psn, port, want)
		}
	}
	// Consecutive PSNs must alternate between the two uplinks.
	p0, _ := src.SelectUplink(dataPkt(1, 0, 2, 0), cands)
	p1, _ := src.SelectUplink(dataPkt(1, 0, 2, 1), cands)
	if p0 == p1 {
		t.Fatal("consecutive PSNs took the same path")
	}
	if src.Stats().Sprayed == 0 {
		t.Fatal("spray counter idle")
	}
}

func TestUnregisteredFlowNotSteered(t *testing.T) {
	src, _, tp := setup(t, Config{})
	cands := tp.CandidatePorts(0, 2)
	if _, ok := src.SelectUplink(dataPkt(99, 0, 2, 0), cands); ok {
		t.Fatal("unregistered QP was steered")
	}
}

func TestDirectSprayRequiresMatchingUplinks(t *testing.T) {
	// 4 spines but host pair with... leaf-spine always has N == uplinks, so
	// force the mismatch with a fat-tree cross-pod flow: N = (K/2)^2 = 4
	// but the edge switch has only K/2 = 2 uplinks.
	tp, err := topo.NewFatTree(topo.FatTreeConfig{
		K:          4,
		HostLink:   topo.LinkSpec{Bandwidth: 100e9, Delay: sim.Microsecond},
		FabricLink: topo.LinkSpec{Bandwidth: 100e9, Delay: sim.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	th := New(tp, tp.ToROf(0), Config{Mode: DirectSpray})
	if err := th.RegisterFlow(1, 0, 15, 1000); err == nil {
		t.Fatal("direct spray on a 3-tier fabric must be rejected")
	}
}

// Feed the destination ToR the Fig. 4b scenario and check blocking.
func TestNackValidationFig4b(t *testing.T) {
	_, dst, _ := setup(t, Config{}) // N = 2
	// Packets leave the ToR towards the NIC in order 0,1,3,2.
	for _, psn := range []packet.PSN{0, 1, 3, 2} {
		dst.OnDeliverToHost(dataPkt(1, 0, 2, psn))
	}
	// NACK(2): tPSN=3, 3 mod 2 != 2 mod 2 -> invalid -> blocked.
	if dst.FilterHostControl(nackPkt(1, 2, 0, 2)) {
		t.Fatal("invalid NACK forwarded")
	}
	st := dst.Stats()
	if st.NacksBlocked != 1 || st.NacksForwarded != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Later, 6 leaves towards the NIC (4 and 5 are lost), NACK(4) arrives:
	// tPSN=6, 6 mod 2 == 4 mod 2 -> valid -> forwarded.
	dst.OnDeliverToHost(dataPkt(1, 0, 2, 6))
	if !dst.FilterHostControl(nackPkt(1, 2, 0, 4)) {
		t.Fatal("valid NACK blocked")
	}
	st = dst.Stats()
	if st.NacksForwarded != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNackScanMissForwards(t *testing.T) {
	_, dst, _ := setup(t, Config{})
	// Ring is empty: conservative forward.
	if !dst.FilterHostControl(nackPkt(1, 2, 0, 0)) {
		t.Fatal("scan miss should forward")
	}
	if dst.Stats().ScanMisses != 1 {
		t.Fatal("scan miss not counted")
	}
}

func TestAcksAlwaysPass(t *testing.T) {
	_, dst, _ := setup(t, Config{})
	ack := &packet.Packet{Kind: packet.Ack, Src: 2, Dst: 0, QP: 1, PSN: 5}
	if !dst.FilterHostControl(ack) {
		t.Fatal("ACK filtered")
	}
	if dst.Stats().NacksSeen != 0 {
		t.Fatal("ACK counted as NACK")
	}
}

func TestNackForUnregisteredQPPasses(t *testing.T) {
	_, dst, _ := setup(t, Config{})
	if !dst.FilterHostControl(nackPkt(42, 2, 0, 0)) {
		t.Fatal("NACK for unknown QP blocked")
	}
}

func TestCompensationGeneratedFig4c(t *testing.T) {
	_, dst, _ := setup(t, Config{}) // N = 2
	// 0,1,3 leave towards the NIC; 2 is genuinely lost.
	for _, psn := range []packet.PSN{0, 1, 3} {
		dst.OnDeliverToHost(dataPkt(1, 0, 2, psn))
	}
	// NACK(2): tPSN=3 -> invalid -> blocked; BePSN=2, Valid=true.
	if dst.FilterHostControl(nackPkt(1, 2, 0, 2)) {
		t.Fatal("NACK should have been blocked")
	}
	// PSN 4 arrives: 4 mod 2 == 2 mod 2 and 4 > 2 -> the packet with
	// BePSN=2 is confirmed lost -> compensation NACK(2).
	out := dst.OnDeliverToHost(dataPkt(1, 0, 2, 4))
	if len(out) != 1 {
		t.Fatalf("compensations = %d", len(out))
	}
	n := out[0]
	if n.Kind != packet.Nack || n.PSN != 2 || n.Src != 2 || n.Dst != 0 || n.QP != 1 {
		t.Fatalf("compensation NACK = %+v", n)
	}
	// Valid flipped to false: no second compensation for the same BePSN.
	out = dst.OnDeliverToHost(dataPkt(1, 0, 2, 6))
	if len(out) != 0 {
		t.Fatal("duplicate compensation")
	}
	if dst.Stats().Compensations != 1 {
		t.Fatalf("stats = %+v", dst.Stats())
	}
}

func TestCompensationCancelledWhenBePSNArrives(t *testing.T) {
	_, dst, _ := setup(t, Config{})
	for _, psn := range []packet.PSN{0, 1, 3} {
		dst.OnDeliverToHost(dataPkt(1, 0, 2, psn))
	}
	if dst.FilterHostControl(nackPkt(1, 2, 0, 2)) {
		t.Fatal("NACK should have been blocked")
	}
	// The delayed packet 2 finally arrives: no loss after all.
	if out := dst.OnDeliverToHost(dataPkt(1, 0, 2, 2)); len(out) != 0 {
		t.Fatal("compensation for a packet that arrived")
	}
	// A later same-path packet must not compensate either.
	if out := dst.OnDeliverToHost(dataPkt(1, 0, 2, 4)); len(out) != 0 {
		t.Fatal("compensation after cancel")
	}
	if dst.Stats().CompensationCancelled != 1 {
		t.Fatalf("stats = %+v", dst.Stats())
	}
}

func TestDisableBlockingAblation(t *testing.T) {
	_, dst, _ := setup(t, Config{DisableBlocking: true})
	for _, psn := range []packet.PSN{0, 1, 3, 2} {
		dst.OnDeliverToHost(dataPkt(1, 0, 2, psn))
	}
	if !dst.FilterHostControl(nackPkt(1, 2, 0, 2)) {
		t.Fatal("blocking disabled but NACK blocked")
	}
}

func TestDisableCompensationAblation(t *testing.T) {
	_, dst, _ := setup(t, Config{DisableCompensation: true})
	for _, psn := range []packet.PSN{0, 1, 3} {
		dst.OnDeliverToHost(dataPkt(1, 0, 2, psn))
	}
	if dst.FilterHostControl(nackPkt(1, 2, 0, 2)) {
		t.Fatal("NACK should still be blocked")
	}
	if out := dst.OnDeliverToHost(dataPkt(1, 0, 2, 4)); len(out) != 0 {
		t.Fatal("compensation generated despite ablation")
	}
}

func TestFailureFallbackDisablesThemis(t *testing.T) {
	src, _, tp := setup(t, Config{FallbackOnFailure: true})
	cands := tp.CandidatePorts(0, 2)
	src.LinkStateChanged(2, false)
	if !src.Disabled() {
		t.Fatal("not disabled on link failure")
	}
	if _, ok := src.SelectUplink(dataPkt(1, 0, 2, 0), cands); ok {
		t.Fatal("steering while disabled")
	}
	if src.Stats().Bypassed == 0 {
		t.Fatal("bypass not counted")
	}
	src.LinkStateChanged(2, true)
	if src.Disabled() {
		t.Fatal("not re-enabled on recovery")
	}
	if _, ok := src.SelectUplink(dataPkt(1, 0, 2, 0), cands); !ok {
		t.Fatal("steering not restored")
	}
}

func TestSetDisabledBypassesFiltering(t *testing.T) {
	_, dst, _ := setup(t, Config{})
	for _, psn := range []packet.PSN{0, 1, 3, 2} {
		dst.OnDeliverToHost(dataPkt(1, 0, 2, psn))
	}
	dst.SetDisabled(true)
	if !dst.FilterHostControl(nackPkt(1, 2, 0, 2)) {
		t.Fatal("disabled Themis still blocked a NACK")
	}
}

// An armed compensation must not survive a bypass window in which its BePSN
// was delivered (§3.4 × §6): Themis-D does not watch deliveries while
// bypassed, so without the disarm the stale entry either compensates for a
// PSN delivered long ago or stays armed forever. Both bypass latches — the
// cluster hold (Cluster.FailLink's SetDisabled) and the FallbackOnFailure
// link latch — must behave the same.
func TestArmedCompensationDisarmedByDeliveryWhileBypassed(t *testing.T) {
	for _, tc := range []struct {
		name            string
		cfg             Config
		bypass, restore func(*Themis)
	}{
		{"SetDisabled", Config{},
			func(th *Themis) { th.SetDisabled(true) },
			func(th *Themis) { th.SetDisabled(false) }},
		{"LinkStateChanged", Config{FallbackOnFailure: true},
			func(th *Themis) { th.LinkStateChanged(2, false) },
			func(th *Themis) { th.LinkStateChanged(2, true) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, dst, _ := setup(t, tc.cfg)
			for _, psn := range []packet.PSN{0, 1, 3} {
				dst.OnDeliverToHost(dataPkt(1, 0, 2, psn))
			}
			if dst.FilterHostControl(nackPkt(1, 2, 0, 2)) {
				t.Fatal("NACK should have been blocked")
			}
			if dst.PendingCompensations() != 1 {
				t.Fatal("compensation not armed")
			}
			tc.bypass(dst)
			if !dst.Disabled() {
				t.Fatal("not bypassed")
			}
			// The delayed packet 2 arrives inside the window.
			if out := dst.OnDeliverToHost(dataPkt(1, 0, 2, 2)); len(out) != 0 {
				t.Fatal("compensation while bypassed")
			}
			tc.restore(dst)
			if dst.Disabled() {
				t.Fatal("still bypassed")
			}
			if n := dst.PendingCompensations(); n != 0 {
				t.Fatalf("%d compensations still armed after the BePSN was delivered in the bypass window", n)
			}
			if out := dst.OnDeliverToHost(dataPkt(1, 0, 2, 4)); len(out) != 0 {
				t.Fatal("compensation NACK for a PSN delivered during the bypass window")
			}
			if st := dst.Stats(); st.CompensationCancelled != 1 || st.Compensations != 0 {
				t.Fatalf("stats = %+v", st)
			}
		})
	}
}

func TestRingCapacityFromBDP(t *testing.T) {
	_, dst, _ := setup(t, Config{})
	fs := dst.dstFlows[1]
	// 100 Gbps, 2 us RTT -> BDP = 25000 B -> /1500 * 1.5 = 25 entries.
	if fs.ring.Cap() != 25 {
		t.Fatalf("ring capacity = %d, want 25", fs.ring.Cap())
	}
}

// Validation must hold for every N and any OOO pattern: a NACK is blocked
// iff its identified tPSN is not congruent to ePSN mod N.
func TestValidationCongruence(t *testing.T) {
	for _, spines := range []int{2, 4, 8} {
		tp := leafSpine(t, 2, spines, 2)
		dst := New(tp, 1, Config{})
		hostDst := packet.NodeID(2)
		if err := dst.RegisterFlow(1, 0, hostDst, 1000); err != nil {
			t.Fatal(err)
		}
		// Deliver psns 0..spines*3 skipping one per stride.
		for psn := packet.PSN(1); psn < packet.PSN(spines*3); psn++ {
			dst.OnDeliverToHost(dataPkt(1, 0, hostDst, psn))
		}
		// NACK for ePSN 0: tPSN = 1; valid iff 1 mod N == 0 (never for N>1).
		got := dst.FilterHostControl(nackPkt(1, hostDst, 0, 0))
		if got {
			t.Fatalf("N=%d: NACK(0) with tPSN=1 must be invalid", spines)
		}
	}
}

func TestSprayModeString(t *testing.T) {
	if DirectSpray.String() != "direct" || PathMapSpray.String() != "pathmap" {
		t.Fatal("mode names")
	}
}

func TestPathSubsetSpraysOnlyKUplinks(t *testing.T) {
	tp := leafSpine(t, 2, 8, 2) // N = 8
	src := New(tp, 0, Config{PathSubset: 2})
	if err := src.RegisterFlow(1, 0, 2, 1000); err != nil {
		t.Fatal(err)
	}
	cands := tp.CandidatePorts(0, 2)
	used := map[int]bool{}
	for psn := packet.PSN(0); psn < 64; psn++ {
		port, ok := src.SelectUplink(dataPkt(1, 0, 2, psn), cands)
		if !ok {
			t.Fatal("not steered")
		}
		used[port] = true
	}
	if len(used) != 2 {
		t.Fatalf("subset of 2 used %d uplinks", len(used))
	}
}

func TestPathSubsetFlowsCoverDifferentPaths(t *testing.T) {
	tp := leafSpine(t, 2, 8, 2)
	src := New(tp, 0, Config{PathSubset: 2})
	cands := tp.CandidatePorts(0, 2)
	used := map[int]bool{}
	for qp := packet.QPID(1); qp <= 32; qp++ {
		sport := uint16(1000 + qp)
		if err := src.RegisterFlow(qp, 0, 2, sport); err != nil {
			t.Fatal(err)
		}
		p := dataPkt(qp, 0, 2, 0)
		p.SPort = sport
		port, _ := src.SelectUplink(p, cands)
		used[port] = true
	}
	// With 32 flows and per-flow bases, (nearly) all 8 uplinks see traffic.
	if len(used) < 6 {
		t.Fatalf("flow bases cover only %d/8 uplinks", len(used))
	}
}

func TestPathSubsetValidationUsesSubsetModulus(t *testing.T) {
	tp := leafSpine(t, 2, 8, 2)
	dst := New(tp, 1, Config{PathSubset: 2}) // k = 2
	if err := dst.RegisterFlow(1, 0, 2, 1000); err != nil {
		t.Fatal(err)
	}
	// Departures 0,1,3 (2 lost); NACK(2) triggered by 3: 3-2=1, 1 mod 2 != 0
	// -> invalid -> blocked (with k=8 this would also be invalid; use a
	// same-parity case to discriminate: NACK(1) triggered by 3: delta 2,
	// 2 mod 2 == 0 -> valid under k=2 even though 2 mod 8 != 0).
	for _, psn := range []packet.PSN{0, 3} {
		dst.OnDeliverToHost(dataPkt(1, 0, 2, psn))
	}
	if !dst.FilterHostControl(nackPkt(1, 2, 0, 1)) {
		t.Fatal("NACK(1) with tPSN=3 must be VALID under subset k=2")
	}
}

func TestRebootClearsStateAndForwardsNacks(t *testing.T) {
	src, dst, tp := setup(t, Config{})
	cands := tp.CandidatePorts(0, 2)
	// Populate Themis-D state, then block an invalid NACK to arm compensation.
	for _, psn := range []packet.PSN{0, 1, 3} {
		dst.OnDeliverToHost(dataPkt(1, 0, 2, psn))
	}
	if dst.FilterHostControl(nackPkt(1, 2, 0, 2)) {
		t.Fatal("NACK should have been blocked")
	}
	if dst.PendingCompensations() != 1 {
		t.Fatal("compensation not armed")
	}
	dst.Reboot()
	if s, d := dst.FlowCounts(); s != 0 || d != 0 {
		t.Fatalf("flow counts after reboot = (%d,%d)", s, d)
	}
	if dst.Stats().Reboots != 1 {
		t.Fatal("reboot not counted")
	}
	if dst.PendingCompensations() != 0 {
		t.Fatal("compensation survived reboot")
	}
	// Post-reboot degradation: the same (now valid-or-not) NACK is unknown-QP
	// and must be forwarded unmodified, never blocked.
	if !dst.FilterHostControl(nackPkt(1, 2, 0, 2)) {
		t.Fatal("rebooted ToR blocked a NACK")
	}
	// A rebooted source ToR without Relearn defers to ECMP.
	src.Reboot()
	if _, ok := src.SelectUplink(dataPkt(1, 0, 2, 0), cands); ok {
		t.Fatal("rebooted ToR without Relearn still steered")
	}
}

func TestRelearnRebuildsSourceState(t *testing.T) {
	src, _, tp := setup(t, Config{Relearn: true})
	cands := tp.CandidatePorts(0, 2)
	want, _ := src.SelectUplink(dataPkt(1, 0, 2, 7), cands)
	src.Reboot()
	got, ok := src.SelectUplink(dataPkt(1, 0, 2, 7), cands)
	if !ok {
		t.Fatal("relearn did not rebuild Themis-S state")
	}
	if got != want {
		t.Fatalf("relearned spray differs: port %d want %d", got, want)
	}
	if src.Stats().Relearns != 1 {
		t.Fatalf("relearns = %d", src.Stats().Relearns)
	}
}

func TestRelearnRebuildsDestinationStateFromData(t *testing.T) {
	_, dst, _ := setup(t, Config{Relearn: true})
	for _, psn := range []packet.PSN{0, 1, 3, 2} {
		dst.OnDeliverToHost(dataPkt(1, 0, 2, psn))
	}
	dst.Reboot()
	// First data packet after the reboot re-registers the flow...
	dst.OnDeliverToHost(dataPkt(1, 0, 2, 4))
	if _, d := dst.FlowCounts(); d != 1 {
		t.Fatal("relearn did not rebuild Themis-D state")
	}
	// ...with a fresh ring: a NACK whose trigger departed pre-reboot has no
	// in-flight PSN after it in the rebuilt ring — a scan miss, forwarded
	// (conservative restart).
	if !dst.FilterHostControl(nackPkt(1, 2, 0, 5)) {
		t.Fatal("post-reboot NACK blocked despite empty ring history")
	}
	if dst.Stats().ScanMisses == 0 {
		t.Fatal("expected a scan miss on the rebuilt ring")
	}
}

func TestRelearnFromNackReversesDirection(t *testing.T) {
	_, dst, _ := setup(t, Config{Relearn: true})
	dst.Reboot()
	// A NACK travels receiver(2) -> sender(0); relearn must register the flow
	// in its data direction (0 -> 2) so this ToR resumes the Themis-D role.
	if !dst.FilterHostControl(nackPkt(1, 2, 0, 0)) {
		t.Fatal("first post-reboot NACK must be forwarded")
	}
	if _, d := dst.FlowCounts(); d != 1 {
		t.Fatal("NACK did not relearn the destination flow")
	}
	if dst.Stats().Relearns != 1 {
		t.Fatalf("relearns = %d", dst.Stats().Relearns)
	}
}

func TestRelearnDeclinedIsCachedNotRetried(t *testing.T) {
	tp := leafSpine(t, 2, 2, 2)
	th := New(tp, 0, Config{Relearn: true})
	cands := tp.CandidatePorts(0, 2)
	// Same-rack flow (hosts 0 and 1 both under ToR 0): relearn declines.
	p := dataPkt(7, 0, 1, 0)
	for i := 0; i < 3; i++ {
		if _, ok := th.SelectUplink(p, cands); ok {
			t.Fatal("same-rack flow steered")
		}
	}
	if th.Stats().Relearns != 0 {
		t.Fatal("declined relearn counted as success")
	}
	if _, cached := th.relearnIgnored[7]; !cached {
		t.Fatal("declined QP not cached")
	}
}

func TestRingStatsAndFlowCounts(t *testing.T) {
	src, dst, _ := setup(t, Config{})
	if s, d := src.FlowCounts(); s != 1 || d != 0 {
		t.Fatalf("src flow counts = (%d,%d)", s, d)
	}
	for psn := packet.PSN(0); psn < 10; psn++ {
		dst.OnDeliverToHost(dataPkt(1, 0, 2, psn))
	}
	entries, capacity, overflows := dst.RingStats()
	if entries != 10 || capacity != 25 || overflows != 0 {
		t.Fatalf("ring stats = (%d,%d,%d)", entries, capacity, overflows)
	}
	if entries > capacity {
		t.Fatal("ring leaked entries beyond capacity")
	}
}

func TestPathSubsetLargerThanNIgnored(t *testing.T) {
	tp := leafSpine(t, 2, 2, 2) // N = 2
	src := New(tp, 0, Config{PathSubset: 16})
	if err := src.RegisterFlow(1, 0, 2, 1000); err != nil {
		t.Fatal(err)
	}
	if got := src.srcFlows[1].nPaths; got != 2 {
		t.Fatalf("nPaths = %d, want full 2", got)
	}
}

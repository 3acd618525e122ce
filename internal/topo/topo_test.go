package topo

import (
	"testing"
	"testing/quick"

	"themis/internal/packet"
	"themis/internal/sim"
)

var testLink = LinkSpec{Bandwidth: 100e9, Delay: sim.Microsecond}

func mustLeafSpine(t *testing.T, leaves, spines, hosts int) *Topology {
	t.Helper()
	tp, err := NewLeafSpine(LeafSpineConfig{
		Leaves: leaves, Spines: spines, HostsPerLeaf: hosts,
		HostLink: testLink, FabricLink: testLink,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestBuilderSimplePair(t *testing.T) {
	b := NewBuilder()
	s0 := b.AddSwitch("s0", 0)
	s1 := b.AddSwitch("s1", 0)
	b.Connect(s0, s1, 100e9, sim.Microsecond)
	h0 := b.AddHost(s0, 100e9, sim.Microsecond)
	h1 := b.AddHost(s1, 100e9, sim.Microsecond)
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if tp.NumHosts() != 2 || tp.NumSwitches() != 2 {
		t.Fatalf("dims: %d hosts %d switches", tp.NumHosts(), tp.NumSwitches())
	}
	if tp.ToROf(h0) != s0 || tp.ToROf(h1) != s1 {
		t.Fatal("ToROf wrong")
	}
	// Route from s0 to h1 goes over the single inter-switch port.
	c := tp.CandidatePorts(s0, h1)
	if len(c) != 1 {
		t.Fatalf("candidates = %v", c)
	}
	if got := tp.Switch(s0).Ports[c[0]].PeerSwitch; got != s1 {
		t.Fatalf("candidate peers %d", got)
	}
	// Local delivery port.
	c = tp.CandidatePorts(s0, h0)
	if len(c) != 1 || tp.Switch(s0).Ports[c[0]].Host != h0 {
		t.Fatalf("local candidates = %v", c)
	}
	if tp.Distance(s0, s1) != 1 || tp.Distance(s0, s0) != 0 {
		t.Fatal("distance wrong")
	}
}

func TestBuildEmptyFails(t *testing.T) {
	if _, err := NewBuilder().Build(); err == nil {
		t.Fatal("expected error for empty topology")
	}
}

func TestBuildDisconnectedFails(t *testing.T) {
	b := NewBuilder()
	s0 := b.AddSwitch("s0", 0)
	s1 := b.AddSwitch("s1", 0)
	b.AddHost(s0, 100e9, sim.Microsecond)
	b.AddHost(s1, 100e9, sim.Microsecond)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for disconnected hosts")
	}
}

func TestLeafSpineShape(t *testing.T) {
	tp := mustLeafSpine(t, 4, 4, 2)
	if tp.NumHosts() != 8 {
		t.Fatalf("hosts = %d", tp.NumHosts())
	}
	if tp.NumSwitches() != 8 {
		t.Fatalf("switches = %d", tp.NumSwitches())
	}
	// Host h is on leaf h/2.
	for h := 0; h < 8; h++ {
		if tp.ToROf(packet.NodeID(h)) != h/2 {
			t.Fatalf("host %d on leaf %d", h, tp.ToROf(packet.NodeID(h)))
		}
	}
	// Cross-rack: 4 equal-cost uplinks, ports 2..5 (after 2 host ports).
	c := tp.CandidatePorts(0, packet.NodeID(7))
	if len(c) != 4 {
		t.Fatalf("uplink candidates = %v", c)
	}
	for i, p := range c {
		if p != 2+i {
			t.Fatalf("uplink ports = %v, want [2 3 4 5]", c)
		}
	}
	if n := tp.PathCount(0, 7); n != 4 {
		t.Fatalf("PathCount = %d, want 4", n)
	}
	if n := tp.PathCount(0, 1); n != 1 {
		t.Fatalf("same-rack PathCount = %d, want 1", n)
	}
	// Spine switches must each have one port per leaf and no host ports.
	for sw := 4; sw < 8; sw++ {
		s := tp.Switch(sw)
		if s.Tier != 1 {
			t.Fatalf("switch %d tier = %d", sw, s.Tier)
		}
		if len(s.Ports) != 4 {
			t.Fatalf("spine %d has %d ports", sw, len(s.Ports))
		}
		for _, p := range s.Ports {
			if p.IsHostPort() {
				t.Fatal("spine has host port")
			}
		}
	}
}

func TestLeafSpinePaper16x16(t *testing.T) {
	// The §5 evaluation topology: 16 leaves x 16 spines x 16 hosts.
	tp, err := NewLeafSpine(LeafSpineConfig{
		Leaves: 16, Spines: 16, HostsPerLeaf: 16,
		HostLink:   LinkSpec{Bandwidth: 400e9, Delay: sim.Microsecond},
		FabricLink: LinkSpec{Bandwidth: 400e9, Delay: sim.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tp.NumHosts() != 256 {
		t.Fatalf("hosts = %d, want 256", tp.NumHosts())
	}
	if n := tp.PathCount(0, 255); n != 16 {
		t.Fatalf("PathCount = %d, want 16", n)
	}
}

func TestLeafSpineInvalidConfig(t *testing.T) {
	if _, err := NewLeafSpine(LeafSpineConfig{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestLeafSpineValidate(t *testing.T) {
	tp := mustLeafSpine(t, 2, 2, 2)
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFatTreeShape(t *testing.T) {
	tp, err := NewFatTree(FatTreeConfig{K: 4, HostLink: testLink, FabricLink: testLink})
	if err != nil {
		t.Fatal(err)
	}
	// K=4: 16 hosts, 4 pods x (2 edge + 2 agg) + 4 core = 20 switches.
	if tp.NumHosts() != 16 {
		t.Fatalf("hosts = %d", tp.NumHosts())
	}
	if tp.NumSwitches() != 20 {
		t.Fatalf("switches = %d", tp.NumSwitches())
	}
	// Cross-pod path count = (K/2)^2 = 4.
	if n := tp.PathCount(0, 15); n != 4 {
		t.Fatalf("cross-pod PathCount = %d, want 4", n)
	}
	// Same-pod different-edge path count = K/2 = 2.
	if n := tp.PathCount(0, packet.NodeID(2)); n != 2 {
		t.Fatalf("same-pod PathCount = %d, want 2", n)
	}
	// Same-edge: 1.
	if n := tp.PathCount(0, 1); n != 1 {
		t.Fatalf("same-edge PathCount = %d, want 1", n)
	}
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFatTreeHostPlacement(t *testing.T) {
	tp, err := NewFatTree(FatTreeConfig{K: 4, HostLink: testLink, FabricLink: testLink})
	if err != nil {
		t.Fatal(err)
	}
	// Pod-major, edge-major: hosts 0,1 on edge0.0; 2,3 on edge0.1; 4,5 on edge1.0...
	if tp.ToROf(0) != tp.ToROf(1) {
		t.Fatal("hosts 0,1 should share an edge switch")
	}
	if tp.ToROf(1) == tp.ToROf(2) {
		t.Fatal("hosts 1,2 should be on different edge switches")
	}
	// Cross-pod distance edge->edge is 4 switch hops... edge-agg-core-agg-edge.
	d := tp.Distance(tp.ToROf(0), tp.ToROf(15))
	if d != 4 {
		t.Fatalf("cross-pod edge distance = %d, want 4", d)
	}
}

func TestFatTreeOddKFails(t *testing.T) {
	if _, err := NewFatTree(FatTreeConfig{K: 3, HostLink: testLink, FabricLink: testLink}); err == nil {
		t.Fatal("expected error for odd K")
	}
}

func TestFatTreeK8(t *testing.T) {
	tp, err := NewFatTree(FatTreeConfig{K: 8, HostLink: testLink, FabricLink: testLink})
	if err != nil {
		t.Fatal(err)
	}
	if tp.NumHosts() != 128 { // k^3/4
		t.Fatalf("hosts = %d, want 128", tp.NumHosts())
	}
	if n := tp.PathCount(0, 127); n != 16 { // (k/2)^2
		t.Fatalf("PathCount = %d, want 16", n)
	}
}

func TestCandidatePortsStable(t *testing.T) {
	tp := mustLeafSpine(t, 2, 4, 2)
	a := tp.CandidatePorts(0, 3)
	b := tp.CandidatePorts(0, 3)
	if &a[0] != &b[0] {
		t.Fatal("CandidatePorts should return the shared slice")
	}
	// Candidates sorted ascending.
	for i := 1; i < len(a); i++ {
		if a[i] <= a[i-1] {
			t.Fatalf("candidates not sorted: %v", a)
		}
	}
}

func TestSwitchHosts(t *testing.T) {
	tp := mustLeafSpine(t, 2, 2, 3)
	hs := tp.Switch(0).Hosts()
	if len(hs) != 3 || hs[0] != 0 || hs[1] != 1 || hs[2] != 2 {
		t.Fatalf("Hosts = %v", hs)
	}
}

func TestHostAttach(t *testing.T) {
	tp := mustLeafSpine(t, 2, 2, 2)
	a := tp.HostAttach(3)
	if a.Switch != 1 {
		t.Fatalf("attach switch = %d", a.Switch)
	}
	if a.Bandwidth != testLink.Bandwidth || a.Delay != testLink.Delay {
		t.Fatal("attach link spec wrong")
	}
	if tp.Switch(1).Ports[a.Port].Host != 3 {
		t.Fatal("attach port does not face the host")
	}
	if c := tp.CandidatePorts(1, 3); len(c) != 1 || cap(c) != 1 || c[0] != a.Port {
		t.Fatalf("local CandidatePorts = %v, want [%d]", c, a.Port)
	}
}

// Property: every candidate port leads to a switch strictly closer to the
// destination ToR (shortest-path consistency), for random fabric shapes.
func TestCandidatesShortestPathProperty(t *testing.T) {
	f := func(l, s, h uint8) bool {
		leaves := int(l%6) + 2
		spines := int(s%6) + 1
		hosts := int(h%3) + 1
		tp, err := NewLeafSpine(LeafSpineConfig{
			Leaves: leaves, Spines: spines, HostsPerLeaf: hosts,
			HostLink: testLink, FabricLink: testLink,
		})
		if err != nil {
			return false
		}
		for sw := 0; sw < tp.NumSwitches(); sw++ {
			for hID := 0; hID < tp.NumHosts(); hID++ {
				dst := packet.NodeID(hID)
				dstTor := tp.ToROf(dst)
				if sw == dstTor {
					continue
				}
				for _, p := range tp.CandidatePorts(sw, dst) {
					peer := tp.Switch(sw).Ports[p].PeerSwitch
					if tp.Distance(peer, dstTor) != tp.Distance(sw, dstTor)-1 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFatTreeRoutesShortestPathAllPairs(t *testing.T) {
	tp, err := NewFatTree(FatTreeConfig{K: 4, HostLink: testLink, FabricLink: testLink})
	if err != nil {
		t.Fatal(err)
	}
	for sw := 0; sw < tp.NumSwitches(); sw++ {
		for h := 0; h < tp.NumHosts(); h++ {
			dst := packet.NodeID(h)
			dstTor := tp.ToROf(dst)
			if sw == dstTor {
				continue
			}
			cands := tp.CandidatePorts(sw, dst)
			if len(cands) == 0 {
				t.Fatalf("switch %d has no route to host %d", sw, h)
			}
			for _, p := range cands {
				peer := tp.Switch(sw).Ports[p].PeerSwitch
				if tp.Distance(peer, dstTor) != tp.Distance(sw, dstTor)-1 {
					t.Fatalf("non-shortest candidate at switch %d to host %d", sw, h)
				}
			}
		}
	}
}

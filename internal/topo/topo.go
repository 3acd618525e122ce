// Package topo models the physical network: switches, hosts, and the links
// between them, together with the equal-cost routing tables that the fabric
// consults when forwarding. Builders for the paper's two topology families —
// 2-tier leaf-spine (evaluation, §5) and 3-tier fat-tree (memory analysis,
// §4) — are provided.
//
// The package is purely structural: it computes, for every switch and every
// destination, the set of equal-cost candidate egress ports (the ECMP
// next-hop set). Which candidate a packet actually takes is the load
// balancer's job (package lb) or Themis-S's (package core).
package topo

import (
	"fmt"

	"themis/internal/packet"
	"themis/internal/sim"
)

// Port describes one switch port and the link attached to it. Exactly one of
// PeerSwitch/Host is set (the other is -1).
type Port struct {
	Bandwidth  int64         // link rate in bits per second
	Delay      sim.Duration  // one-way propagation delay
	PeerSwitch int           // neighbor switch ID, or -1 if this is a host port
	PeerPort   int           // port index on the neighbor switch (-1 for hosts)
	Host       packet.NodeID // attached host, or -1
}

// IsHostPort reports whether the port faces a host.
func (p *Port) IsHostPort() bool { return p.Host >= 0 }

// Switch is one switch node in the topology.
type Switch struct {
	ID    int
	Name  string
	Ports []Port
	// Tier is builder-assigned (0 = ToR/leaf/edge, 1 = spine/agg, 2 = core).
	Tier int
}

// Hosts returns the hosts attached to this switch in port order.
func (s *Switch) Hosts() []packet.NodeID {
	var hs []packet.NodeID
	for _, p := range s.Ports {
		if p.IsHostPort() {
			hs = append(hs, p.Host)
		}
	}
	return hs
}

// FabricPorts returns the indices of the ports that face another switch,
// ascending.
func (s *Switch) FabricPorts() []int {
	var ports []int
	for pi := range s.Ports {
		if !s.Ports[pi].IsHostPort() {
			ports = append(ports, pi)
		}
	}
	return ports
}

// Attach records where a host plugs into the fabric.
type Attach struct {
	Switch    int // ToR switch ID
	Port      int // port index on that switch
	Bandwidth int64
	Delay     sim.Duration
}

// Topology is an immutable network graph with precomputed equal-cost routes.
// Build one with a Builder or one of the New* constructors.
type Topology struct {
	switches []*Switch
	attach   []Attach // indexed by host NodeID
	// hostPorts[h] = attach[h].Port: CandidatePorts answers a locally
	// attached destination with a one-element subslice of it.
	hostPorts []int

	// routes[sw][dstTor] = sorted candidate egress ports on sw that lie on a
	// shortest path towards dstTor. Empty for sw == dstTor.
	routes [][][]int
	// dist[sw][dstTor] = hop distance between switches.
	dist [][]int
}

// NumHosts returns the number of hosts.
func (t *Topology) NumHosts() int { return len(t.attach) }

// NumSwitches returns the number of switches.
func (t *Topology) NumSwitches() int { return len(t.switches) }

// Switch returns switch id.
func (t *Topology) Switch(id int) *Switch { return t.switches[id] }

// Switches returns all switches.
func (t *Topology) Switches() []*Switch { return t.switches }

// ToRs returns the IDs of the tier-0 switches hosts attach to — the ones
// that can host a Themis instance — ascending.
func (t *Topology) ToRs() []int {
	var tors []int
	for _, sw := range t.switches {
		if sw.Tier == 0 && len(sw.Hosts()) > 0 {
			tors = append(tors, sw.ID)
		}
	}
	return tors
}

// HostAttach returns the attachment point of host h.
func (t *Topology) HostAttach(h packet.NodeID) Attach { return t.attach[h] }

// ToROf returns the ToR switch ID of host h.
func (t *Topology) ToROf(h packet.NodeID) int { return t.attach[h].Switch }

// CandidatePorts returns the equal-cost egress ports at switch sw for
// reaching host dst. If dst is attached to sw, the single host port is
// returned. The slice is shared; callers must not modify it.
func (t *Topology) CandidatePorts(sw int, dst packet.NodeID) []int {
	tor := t.attach[dst].Switch
	if tor == sw {
		return t.hostPorts[dst : dst+1 : dst+1]
	}
	return t.routes[sw][tor]
}

// Distance returns the switch-hop distance between two switches.
func (t *Topology) Distance(a, b int) int { return t.dist[a][b] }

// PathCount returns the number of equal-cost paths between the ToRs of two
// hosts in different racks (the N of Eq. 1). Returns 1 for same-rack pairs.
func (t *Topology) PathCount(src, dst packet.NodeID) int {
	a, b := t.ToROf(src), t.ToROf(dst)
	if a == b {
		return 1
	}
	return t.countPaths(a, b)
}

func (t *Topology) countPaths(sw, dstTor int) int {
	if sw == dstTor {
		return 1
	}
	n := 0
	for _, p := range t.routes[sw][dstTor] {
		n += t.countPaths(t.switches[sw].Ports[p].PeerSwitch, dstTor)
	}
	return n
}

// RoutesWithFilter recomputes the equal-cost candidate table considering
// only links for which up(sw, port) is true — the routing-reconvergence view
// of the fabric after failures. The result is indexed routes[sw][dstTor]
// like the built-in table; entries are nil where no path exists.
func (t *Topology) RoutesWithFilter(up func(sw, port int) bool) [][][]int {
	n := len(t.switches)
	routes := make([][][]int, n)
	for sw := range routes {
		routes[sw] = make([][]int, n)
	}
	for dst := 0; dst < n; dst++ {
		perSw := t.RoutesForDst(dst, up)
		for sw := 0; sw < n; sw++ {
			routes[sw][dst] = perSw[sw]
		}
	}
	return routes
}

// RoutesForDst computes the failure-aware candidate sets towards one
// destination switch only: result[sw] is the sorted equal-cost egress port
// set at sw (nil where no path exists, empty semantics identical to the
// corresponding RoutesWithFilter column). Single-destination extraction is
// what makes incremental oracle-mode reconvergence cheap: a link flap
// invalidates cached columns in O(switches) and only the destinations
// actually forwarded to afterwards pay a BFS.
//
//lint:alloc-ok post-link-flap reconvergence recompute; steady state serves the cached column
func (t *Topology) RoutesForDst(dst int, up func(sw, port int) bool) [][]int {
	n := len(t.switches)
	out := make([][]int, n)
	// BFS from dst over up links only.
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[dst] = 0
	queue := []int{dst}
	for len(queue) > 0 {
		sw := queue[0]
		queue = queue[1:]
		for pi, p := range t.switches[sw].Ports {
			if p.IsHostPort() || !up(sw, pi) || !up(p.PeerSwitch, p.PeerPort) {
				continue
			}
			if dist[p.PeerSwitch] < 0 {
				dist[p.PeerSwitch] = dist[sw] + 1
				queue = append(queue, p.PeerSwitch)
			}
		}
	}
	for sw := 0; sw < n; sw++ {
		if sw == dst || dist[sw] < 0 {
			continue
		}
		var cands []int
		for pi, p := range t.switches[sw].Ports {
			if p.IsHostPort() || !up(sw, pi) || !up(p.PeerSwitch, p.PeerPort) {
				continue
			}
			if dist[p.PeerSwitch] == dist[sw]-1 {
				cands = append(cands, pi)
			}
		}
		out[sw] = cands
	}
	return out
}

// Validate checks structural invariants (bidirectional links, consistent
// attachment records) and returns the first violation found.
func (t *Topology) Validate() error {
	for _, s := range t.switches {
		for pi := range s.Ports {
			p := &s.Ports[pi]
			if p.IsHostPort() {
				a := t.attach[p.Host]
				if a.Switch != s.ID || a.Port != pi {
					return fmt.Errorf("topo: host %d attach record mismatch at switch %d port %d", p.Host, s.ID, pi)
				}
				continue
			}
			if p.PeerSwitch < 0 || p.PeerSwitch >= len(t.switches) {
				return fmt.Errorf("topo: switch %d port %d has invalid peer %d", s.ID, pi, p.PeerSwitch)
			}
			peer := t.switches[p.PeerSwitch]
			if p.PeerPort < 0 || p.PeerPort >= len(peer.Ports) {
				return fmt.Errorf("topo: switch %d port %d peer port out of range", s.ID, pi)
			}
			back := peer.Ports[p.PeerPort]
			if back.PeerSwitch != s.ID || back.PeerPort != pi {
				return fmt.Errorf("topo: link %d.%d <-> %d.%d not symmetric", s.ID, pi, p.PeerSwitch, p.PeerPort)
			}
			if back.Bandwidth != p.Bandwidth || back.Delay != p.Delay {
				return fmt.Errorf("topo: link %d.%d <-> %d.%d asymmetric properties", s.ID, pi, p.PeerSwitch, p.PeerPort)
			}
		}
	}
	for h, a := range t.attach {
		s := t.switches[a.Switch]
		if a.Port >= len(s.Ports) || s.Ports[a.Port].Host != packet.NodeID(h) {
			return fmt.Errorf("topo: host %d not found at recorded attach point", h)
		}
	}
	return nil
}

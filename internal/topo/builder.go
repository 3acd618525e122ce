package topo

import (
	"fmt"

	"themis/internal/packet"
	"themis/internal/sim"
)

// Builder assembles a Topology incrementally. Typical use:
//
//	b := topo.NewBuilder()
//	leaf := b.AddSwitch("leaf0", 0)
//	spine := b.AddSwitch("spine0", 1)
//	b.Connect(leaf, spine, 400e9, sim.Microsecond)
//	h := b.AddHost(leaf, 400e9, sim.Microsecond)
//	t, err := b.Build()
type Builder struct {
	switches []*Switch
	attach   []Attach
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{} }

// AddSwitch adds a switch at the given tier and returns its ID.
func (b *Builder) AddSwitch(name string, tier int) int {
	id := len(b.switches)
	b.switches = append(b.switches, &Switch{ID: id, Name: name, Tier: tier})
	return id
}

// AddHost attaches a new host to switch sw over a link with the given rate
// and delay, returning the host's NodeID.
func (b *Builder) AddHost(sw int, bw int64, delay sim.Duration) packet.NodeID {
	h := packet.NodeID(len(b.attach))
	s := b.switches[sw]
	port := len(s.Ports)
	s.Ports = append(s.Ports, Port{
		Bandwidth:  bw,
		Delay:      delay,
		PeerSwitch: -1,
		PeerPort:   -1,
		Host:       h,
	})
	b.attach = append(b.attach, Attach{Switch: sw, Port: port, Bandwidth: bw, Delay: delay})
	return h
}

// Connect links two switches with a bidirectional link and returns the port
// indices allocated on each side.
func (b *Builder) Connect(a, c int, bw int64, delay sim.Duration) (portA, portC int) {
	sa, sc := b.switches[a], b.switches[c]
	portA, portC = len(sa.Ports), len(sc.Ports)
	sa.Ports = append(sa.Ports, Port{Bandwidth: bw, Delay: delay, PeerSwitch: c, PeerPort: portC, Host: -1})
	sc.Ports = append(sc.Ports, Port{Bandwidth: bw, Delay: delay, PeerSwitch: a, PeerPort: portA, Host: -1})
	return portA, portC
}

// Build computes the equal-cost routing tables and validates the topology.
func (b *Builder) Build() (*Topology, error) {
	t := &Topology{switches: b.switches, attach: b.attach, hostPorts: make([]int, len(b.attach))}
	n := len(b.switches)
	if n == 0 {
		return nil, fmt.Errorf("topo: no switches")
	}
	for h := range b.attach {
		t.hostPorts[h] = b.attach[h].Port
	}
	t.dist = make([][]int, n)
	t.routes = make([][][]int, n)
	for sw := range t.routes {
		t.routes[sw] = make([][]int, n)
	}
	// BFS from every switch that hosts at least one host (a potential
	// destination ToR); derive candidate ports on every other switch.
	for dst := 0; dst < n; dst++ {
		dist := bfs(b.switches, dst)
		t.dist[dst] = dist // dist from dst to each sw == sw to dst (undirected)
		for sw := 0; sw < n; sw++ {
			if sw == dst {
				continue
			}
			if dist[sw] < 0 {
				continue // unreachable; left empty, Validate of routes below
			}
			var cands []int
			for pi, p := range b.switches[sw].Ports {
				if p.IsHostPort() {
					continue
				}
				if dist[p.PeerSwitch] == dist[sw]-1 {
					cands = append(cands, pi)
				}
			}
			t.routes[sw][dst] = cands
		}
	}
	// dist is symmetric for undirected graphs; store as dist[sw][dst].
	d := make([][]int, n)
	for sw := 0; sw < n; sw++ {
		d[sw] = make([]int, n)
		for dst := 0; dst < n; dst++ {
			d[sw][dst] = t.dist[dst][sw]
		}
	}
	t.dist = d
	if err := t.Validate(); err != nil {
		return nil, err
	}
	// Every host pair must be connected.
	for h := range b.attach {
		tor := b.attach[h].Switch
		for g := range b.attach {
			gtor := b.attach[g].Switch
			if tor != gtor && t.dist[tor][gtor] < 0 {
				return nil, fmt.Errorf("topo: hosts %d and %d are disconnected", h, g)
			}
		}
	}
	return t, nil
}

// bfs returns hop distances from src over the switch graph (-1 unreachable).
func bfs(switches []*Switch, src int) []int {
	dist := make([]int, len(switches))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		sw := queue[0]
		queue = queue[1:]
		for _, p := range switches[sw].Ports {
			if p.IsHostPort() {
				continue
			}
			if dist[p.PeerSwitch] < 0 {
				dist[p.PeerSwitch] = dist[sw] + 1
				queue = append(queue, p.PeerSwitch)
			}
		}
	}
	return dist
}

// Package route implements a per-switch distributed routing control plane
// modeled after BGP in the datacenter (RFC 7938). Every switch runs its own
// path-vector speaker: it owns a private ASN derived from its switch ID, it
// peers over every fabric link (all sessions are eBGP because every switch
// has a distinct ASN — the tier only determines *where* a switch sits in the
// CLOS, the numbering scheme is uniform), and it maintains a per-destination
// RIB of the routes its neighbors advertised plus the equal-cost FIB
// distilled from the RIB.
//
// The point of the package is honesty about reconvergence windows. The
// fabric's historical behavior — a link flips and a global oracle instantly
// hands every switch the new shortest-path table — hides exactly the regime
// the paper's in-network recovery must survive: between a failure and the
// arrival of the withdrawal messages, each switch forwards from its own
// stale FIB, producing transient blackholes, micro-loops, and ECMP-group
// shrink. Here, update/withdrawal messages propagate hop-by-hop through the
// deterministic event engine with a configurable per-hop processing delay
// (Config.PerHopDelay); during the window every switch answers Candidates
// from whatever its local FIB says.
//
// Protocol model, deliberately small but mechanically faithful:
//
//   - Route selection is shortest AS-path (hop count) with all equal-cost
//     next hops installed (BGP multipath, as RFC 7938 §5.2 prescribes for
//     CLOS fabrics). Ties never need breaking for selection; the
//     lowest-numbered candidate port's path is the representative path a
//     switch re-advertises.
//   - Loop suppression is AS-path based: an advertisement whose path already
//     contains the receiving switch is kept in the RIB but marked invalid,
//     exactly like a BGP speaker dropping a route whose AS_PATH contains its
//     own ASN.
//   - Sessions ride the fabric links. A link going down (or being drained
//     for maintenance) tears the session: both endpoints forget everything
//     learned over it and advertise the consequences. A session
//     (re-)establishing triggers a full-table exchange, like a BGP session
//     reset. Per-session generation counters discard in-flight messages
//     from a previous incarnation of the session.
//
// With PerHopDelay == 0 the plane degenerates to the oracle: every trigger
// drains the whole message cascade synchronously inside the triggering call,
// scheduling zero engine events, and the FIBs land on the same fixed point
// the oracle computes (CheckConverged asserts fib == topo.RoutesWithFilter
// content-wise). That fixed-point equality is not luck: at convergence a
// neighbor at BFS distance d-1 advertises a shortest path, and a shortest
// path from a distance-(d-1) node can never pass through a distance-d node,
// so path-invalidity never excludes an oracle candidate.
package route

import (
	"fmt"

	"themis/internal/sim"
	"themis/internal/topo"
)

// Mode selects how the fabric resolves candidate egress ports.
type Mode uint8

const (
	// Oracle is the historical behavior: a global recomputation of the
	// shortest-path table visible to every switch the instant a link flips.
	Oracle Mode = iota
	// Distributed gives every switch its own RIB/FIB converging via
	// hop-by-hop messages; forwarding during the window uses stale state.
	Distributed
)

// String returns the mode mnemonic.
func (m Mode) String() string {
	switch m {
	case Oracle:
		return "oracle"
	case Distributed:
		return "distributed"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Config parameterizes the control plane.
type Config struct {
	Mode Mode
	// PerHopDelay is the processing+propagation delay of one control-plane
	// message over one fabric link. Zero means synchronous convergence
	// (no engine events, oracle-equivalent results).
	PerHopDelay sim.Duration
}

// PrivateASNBase is the first private 16-bit ASN (RFC 6996); switch i is
// assigned PrivateASNBase+i, so AS paths and switch-ID paths are isomorphic
// and the implementation stores switch IDs.
const PrivateASNBase = 64512

// ribEntry is one neighbor-learned route towards one destination switch.
type ribEntry struct {
	present bool    // a route was learned over this session
	valid   bool    // AS path does not contain the local switch
	hops    int     // neighbor's advertised hop count to the destination
	path    []int32 // neighbor's AS path, neighbor first (shared, immutable)
}

// advert is one route announcement or withdrawal inside a message.
type advert struct {
	dst      int
	withdraw bool
	hops     int
	path     []int32
}

// msg is a batched control-plane message on one session.
type msg struct {
	to      int    // receiving switch
	port    int    // receiving switch's port (identifies the session)
	gen     uint32 // session generation at send time; stale ⇒ discarded
	adverts []advert
}

// node is the per-switch speaker state.
type node struct {
	id       int
	linkUp   []bool   // physical link state per port (host ports unused)
	drained  []bool   // maintenance drain per port
	portGen  []uint32 // session generation per port
	rib      [][]ribEntry
	fib      [][]int   // fib[dst] = sorted equal-cost egress ports
	bestLen  []int     // hop count of best route; -1 unreachable, 0 self
	bestPath [][]int32 // representative AS path, self first; nil unreachable
	advLen   []int     // last advertised length (-1 after withdrawal)
	advPath  [][]int32
	dirty    []bool
	dirtyAny bool
}

func (n *node) usable(port int) bool { return n.linkUp[port] && !n.drained[port] }

// Plane is the whole-fabric control plane: one speaker per switch plus the
// message transport between them.
type Plane struct {
	eng   *sim.Engine
	tp    *topo.Topology
	cfg   Config
	nodes []*node

	inflight  int    // messages scheduled on the engine, not yet delivered
	queue     []*msg // synchronous queue (PerHopDelay == 0)
	draining  bool
	quiescent bool
	epoch     uint32
	msgsSent  uint64
	episodes  uint64 // completed reconvergence episodes
}

// NewPlane builds the control plane in the converged all-links-up state:
// every FIB equals the oracle table and zero messages are outstanding.
func NewPlane(eng *sim.Engine, tp *topo.Topology, cfg Config) *Plane {
	p := &Plane{eng: eng, tp: tp, cfg: cfg, quiescent: true}
	ns := tp.NumSwitches()
	allUp := func(int, int) bool { return true }
	routes := tp.RoutesWithFilter(allUp)
	// Representative AS paths by lowest-candidate-port walk — the same
	// deterministic choice recompute makes, so the cold-start state is a
	// fixed point of the protocol.
	paths := make([][][]int32, ns)
	for src := 0; src < ns; src++ {
		paths[src] = make([][]int32, ns)
		for dst := 0; dst < ns; dst++ {
			paths[src][dst] = coldPath(tp, routes, src, dst)
		}
	}
	p.nodes = make([]*node, ns)
	for sw := 0; sw < ns; sw++ {
		np := len(tp.Switch(sw).Ports)
		nd := &node{
			id:       sw,
			linkUp:   make([]bool, np),
			drained:  make([]bool, np),
			portGen:  make([]uint32, np),
			rib:      make([][]ribEntry, ns),
			fib:      make([][]int, ns),
			bestLen:  make([]int, ns),
			bestPath: make([][]int32, ns),
			advLen:   make([]int, ns),
			advPath:  make([][]int32, ns),
			dirty:    make([]bool, ns),
		}
		for port := range nd.linkUp {
			nd.linkUp[port] = true
		}
		for dst := 0; dst < ns; dst++ {
			nd.rib[dst] = make([]ribEntry, np)
			nd.fib[dst] = routes[sw][dst]
			pl := paths[sw][dst]
			switch {
			case sw == dst:
				nd.bestLen[dst] = 0
			case pl == nil:
				nd.bestLen[dst] = -1
			default:
				nd.bestLen[dst] = len(pl) - 1
			}
			nd.bestPath[dst] = pl
			nd.advLen[dst] = nd.bestLen[dst]
			nd.advPath[dst] = pl
		}
		p.nodes[sw] = nd
	}
	// Seed every RIB with what each neighbor would have advertised at
	// convergence.
	for sw := 0; sw < ns; sw++ {
		nd := p.nodes[sw]
		for port, prt := range tp.Switch(sw).Ports {
			if prt.IsHostPort() {
				continue
			}
			peer := prt.PeerSwitch
			for dst := 0; dst < ns; dst++ {
				pl := paths[peer][dst]
				if pl == nil {
					continue
				}
				nd.rib[dst][port] = ribEntry{
					present: true,
					valid:   !pathContains(pl, sw),
					hops:    len(pl) - 1,
					path:    pl,
				}
			}
		}
	}
	return p
}

// coldPath walks the lowest-numbered candidate port from src towards dst and
// returns the switch-ID path (src first), or nil if dst is unreachable.
func coldPath(tp *topo.Topology, routes [][][]int, src, dst int) []int32 {
	path := []int32{int32(src)}
	cur := src
	for cur != dst {
		cands := routes[cur][dst]
		if len(cands) == 0 {
			return nil
		}
		cur = tp.Switch(cur).Ports[cands[0]].PeerSwitch
		path = append(path, int32(cur))
	}
	return path
}

func pathContains(path []int32, sw int) bool {
	for _, h := range path {
		if h == int32(sw) {
			return true
		}
	}
	return false
}

func pathEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ASN returns the private ASN assigned to switch sw.
func ASN(sw int) uint32 { return PrivateASNBase + uint32(sw) }

// Candidates returns switch sw's current FIB entry towards destination ToR
// dstTor: the equal-cost egress port set as this switch believes it to be
// right now, stale or not. The slice is owned by the plane; callers must not
// modify it. Nil means sw currently has no route (transient blackhole).
func (p *Plane) Candidates(sw, dstTor int) []int { return p.nodes[sw].fib[dstTor] }

// Quiescent reports whether no control-plane messages are outstanding.
func (p *Plane) Quiescent() bool { return p.quiescent }

// Epoch returns the convergence epoch: it increments every time the plane
// returns to quiescence after a reconvergence episode. The fabric stamps
// packets with the epoch at injection so that TTL-exhaustion drops can be
// attributed to the correct window.
func (p *Plane) Epoch() uint32 { return p.epoch }

// MessagesSent returns the lifetime count of control messages sent.
func (p *Plane) MessagesSent() uint64 { return p.msgsSent }

// Episodes returns the number of completed reconvergence episodes.
func (p *Plane) Episodes() uint64 { return p.episodes }

// SetLinkState informs the plane that the fabric link at (sw, port) changed
// physical state. Both endpoints observe the transition immediately (fast
// local failure detection); only the propagation of its consequences is
// delayed. Idempotent for repeated same-state calls.
func (p *Plane) SetLinkState(sw, port int, up bool) {
	prt := &p.tp.Switch(sw).Ports[port]
	if prt.IsHostPort() {
		panic("route: SetLinkState on host port")
	}
	nd := p.nodes[sw]
	if nd.linkUp[port] == up {
		return
	}
	wasUsable := nd.usable(port)
	nd.linkUp[port] = up
	p.nodes[prt.PeerSwitch].linkUp[prt.PeerPort] = up
	p.sessionTransition(sw, port, prt.PeerSwitch, prt.PeerPort, wasUsable)
}

// SetDrained marks the link at (sw, port) as drained for maintenance (or
// restores it). Draining withdraws the routes over the session exactly like
// a failure would — that is the operational point: traffic shifts away
// *before* the physical link is taken down, so the later SetLinkState(down)
// finds the session already unusable and causes zero routing churn.
func (p *Plane) SetDrained(sw, port int, drained bool) {
	prt := &p.tp.Switch(sw).Ports[port]
	if prt.IsHostPort() {
		panic("route: SetDrained on host port")
	}
	nd := p.nodes[sw]
	if nd.drained[port] == drained {
		return
	}
	wasUsable := nd.usable(port)
	nd.drained[port] = drained
	p.nodes[prt.PeerSwitch].drained[prt.PeerPort] = drained
	p.sessionTransition(sw, port, prt.PeerSwitch, prt.PeerPort, wasUsable)
}

// sessionTransition handles a usability edge on the session between
// (sw, port) and (peer, peerPort), after the owning flag already flipped.
func (p *Plane) sessionTransition(sw, port, peer, peerPort int, wasUsable bool) {
	a, b := p.nodes[sw], p.nodes[peer]
	nowUsable := a.usable(port)
	if nowUsable == wasUsable {
		// E.g. a drained link going physically down: routing already
		// shifted away, nothing to do.
		return
	}
	// Session reset: any message still in flight belongs to the previous
	// incarnation and must be discarded on delivery.
	a.portGen[port]++
	b.portGen[peerPort]++
	clearColumn(a, port)
	clearColumn(b, peerPort)
	if nowUsable {
		// Session established: full-table exchange, like a BGP reset.
		p.send(a, port, fullTable(a))
		p.send(b, peerPort, fullTable(b))
	}
	p.reconcile(a)
	p.reconcile(b)
	p.drainQueue()
	p.checkQuiescent()
}

// clearColumn forgets everything nd learned over one session and marks the
// affected destinations dirty.
func clearColumn(nd *node, port int) {
	for dst := range nd.rib {
		if !nd.rib[dst][port].present {
			continue
		}
		nd.rib[dst][port] = ribEntry{}
		if !nd.dirty[dst] {
			nd.dirty[dst] = true
			nd.dirtyAny = true
		}
	}
}

// fullTable builds the adverts a node sends on session establishment: every
// destination it currently has a route to, itself included.
func fullTable(nd *node) []advert {
	var out []advert
	for dst := range nd.bestLen {
		if nd.bestLen[dst] < 0 {
			continue
		}
		out = append(out, advert{dst: dst, hops: nd.bestLen[dst], path: nd.bestPath[dst]})
	}
	return out
}

// reconcile recomputes every dirty destination at nd and advertises the
// resulting best-route changes to all usable neighbors.
func (p *Plane) reconcile(nd *node) {
	if !nd.dirtyAny {
		return
	}
	nd.dirtyAny = false
	var adverts []advert
	for dst := 0; dst < len(nd.dirty); dst++ {
		if !nd.dirty[dst] {
			continue
		}
		nd.dirty[dst] = false
		if dst == nd.id {
			continue
		}
		recompute(nd, dst)
		if nd.bestLen[dst] == nd.advLen[dst] && pathEqual(nd.bestPath[dst], nd.advPath[dst]) {
			continue
		}
		nd.advLen[dst] = nd.bestLen[dst]
		nd.advPath[dst] = nd.bestPath[dst]
		adverts = append(adverts, advert{
			dst:      dst,
			withdraw: nd.bestLen[dst] < 0,
			hops:     nd.bestLen[dst],
			path:     nd.bestPath[dst],
		})
	}
	if len(adverts) == 0 {
		return
	}
	ports := p.tp.Switch(nd.id).Ports
	for port := range ports {
		if ports[port].IsHostPort() || !nd.usable(port) {
			continue
		}
		p.send(nd, port, adverts)
	}
}

// recompute rebuilds nd's FIB entry and best route for one destination from
// the RIB: minimum hop count over usable sessions with valid paths, all
// equal-cost ports installed, lowest port's path as representative.
func recompute(nd *node, dst int) {
	min := -1
	var cands []int
	col := nd.rib[dst]
	for port := range col {
		e := &col[port]
		if !e.present || !e.valid || !nd.usable(port) {
			continue
		}
		h := e.hops + 1
		if min < 0 || h < min {
			min = h
			cands = cands[:0]
		}
		if h == min {
			cands = append(cands, port)
		}
	}
	if min < 0 {
		nd.fib[dst] = nil
		nd.bestLen[dst] = -1
		nd.bestPath[dst] = nil
		return
	}
	nd.fib[dst] = cands
	nd.bestLen[dst] = min
	rep := col[cands[0]].path
	path := make([]int32, 0, len(rep)+1)
	path = append(path, int32(nd.id))
	path = append(path, rep...)
	nd.bestPath[dst] = path
}

// send queues one message on the session leaving (from, port). With a
// positive per-hop delay the delivery is an engine event; with delay zero it
// joins the synchronous queue drained to fixpoint by the triggering call.
func (p *Plane) send(from *node, port int, adverts []advert) {
	if len(adverts) == 0 {
		return
	}
	prt := &p.tp.Switch(from.id).Ports[port]
	to, toPort := prt.PeerSwitch, prt.PeerPort
	m := &msg{to: to, port: toPort, gen: p.nodes[to].portGen[toPort], adverts: adverts}
	p.msgsSent++
	p.quiescent = false
	if p.cfg.PerHopDelay > 0 {
		p.inflight++
		p.eng.Schedule(p.cfg.PerHopDelay, func() { p.deliver(m) })
		return
	}
	p.queue = append(p.queue, m)
}

// deliver is the engine callback for a delayed message.
func (p *Plane) deliver(m *msg) {
	p.inflight--
	if m.gen == p.nodes[m.to].portGen[m.port] {
		p.process(m)
	}
	p.drainQueue()
	p.checkQuiescent()
}

// process applies a message's adverts to the receiver's RIB and reconciles.
func (p *Plane) process(m *msg) {
	nd := p.nodes[m.to]
	for _, ad := range m.adverts {
		e := &nd.rib[ad.dst][m.port]
		if ad.withdraw {
			if !e.present {
				continue
			}
			*e = ribEntry{}
		} else {
			*e = ribEntry{
				present: true,
				valid:   !pathContains(ad.path, nd.id),
				hops:    ad.hops,
				path:    ad.path,
			}
		}
		if !nd.dirty[ad.dst] {
			nd.dirty[ad.dst] = true
			nd.dirtyAny = true
		}
	}
	p.reconcile(nd)
}

// drainQueue runs the synchronous (delay-zero) message cascade to fixpoint.
// Path-vector with shortest-path selection always terminates; the step cap
// turns a protocol bug into a deterministic panic instead of a hang.
func (p *Plane) drainQueue() {
	if p.draining || len(p.queue) == 0 {
		return
	}
	p.draining = true
	steps := 0
	for len(p.queue) > 0 {
		m := p.queue[0]
		p.queue = p.queue[1:]
		if m.gen == p.nodes[m.to].portGen[m.port] {
			p.process(m)
		}
		steps++
		if steps > 1<<22 {
			panic("route: synchronous convergence did not terminate")
		}
	}
	p.queue = nil
	p.draining = false
}

// checkQuiescent closes a reconvergence episode when nothing is outstanding.
func (p *Plane) checkQuiescent() {
	if p.quiescent || p.inflight > 0 || len(p.queue) > 0 {
		return
	}
	p.quiescent = true
	p.epoch++
	p.episodes++
}

// CheckConverged verifies the plane is quiescent and every switch's FIB
// equals the oracle fixed point (topo.RoutesWithFilter over usable links).
// It returns nil when converged and a description of the first divergence
// otherwise — the invariant that makes "distributed" honest rather than
// merely different.
func (p *Plane) CheckConverged() error {
	if p.inflight > 0 || len(p.queue) > 0 {
		return fmt.Errorf("route: %d control messages still outstanding", p.inflight+len(p.queue))
	}
	want := p.tp.RoutesWithFilter(func(sw, port int) bool { return p.nodes[sw].usable(port) })
	for sw := range p.nodes {
		for dst := range p.nodes {
			if sw == dst {
				continue
			}
			got := p.nodes[sw].fib[dst]
			if !intsEqual(got, want[sw][dst]) {
				return fmt.Errorf("route: switch %d fib[dst %d] = %v, oracle says %v", sw, dst, got, want[sw][dst])
			}
		}
	}
	return nil
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

package packet

// Pool is a free list of packets. Packet-level simulation of multi-terabyte
// transfers allocates hundreds of millions of packets; recycling them keeps
// GC pressure flat. The pool is not safe for concurrent use — the simulator
// is single-threaded by design, so parallel trials each own a pool.
//
// All methods are nil-safe: a nil *Pool degrades to plain allocation, so
// components take an optional pool and call it unconditionally.
type Pool struct {
	free []*Packet
	// Stats.
	allocs  uint64
	reuses  uint64
	returns uint64
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a zeroed packet, reusing a released one when available.
func (pl *Pool) Get() *Packet {
	if pl == nil {
		return &Packet{} //lint:alloc-ok nil-pool fallback used only by tests
	}
	n := len(pl.free)
	if n == 0 {
		pl.allocs++
		return &Packet{} //lint:alloc-ok pool miss: fresh packet, recycled via Put thereafter
	}
	p := pl.free[n-1]
	pl.free[n-1] = nil
	pl.free = pl.free[:n-1]
	pl.reuses++
	*p = Packet{}
	return p
}

// Control returns a header-only control packet (ACK/NACK/CNP) from src to dst
// on qp: psn is the AETH ePSN an ACK or NACK carries, zero for a CNP.
func (pl *Pool) Control(kind Kind, src, dst NodeID, qp QPID, sport uint16, psn PSN) *Packet {
	p := pl.Get()
	p.Kind = kind
	p.Src, p.Dst = src, dst
	p.QP = qp
	p.SPort, p.DPort = sport, RoCEv2Port
	p.PSN = psn
	return p
}

// Put releases a packet back to the pool. The caller must not retain the
// pointer afterwards.
func (pl *Pool) Put(p *Packet) {
	if pl == nil || p == nil {
		return
	}
	pl.returns++
	pl.free = append(pl.free, p) //lint:alloc-ok free-list growth is amortized; capacity is retained
}

// Stats reports (fresh allocations, reuses, returns).
func (pl *Pool) Stats() (allocs, reuses, returns uint64) {
	if pl == nil {
		return 0, 0, 0
	}
	return pl.allocs, pl.reuses, pl.returns
}

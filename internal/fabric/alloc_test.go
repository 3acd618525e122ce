package fabric

import (
	"testing"

	"themis/internal/packet"
	"themis/internal/sim"
)

// TestForwardPathZeroAllocWhenUnobserved proves that disabled observability
// really is free: with a nil tracer and a nil metrics registry, forwarding a
// pooled data packet across the fabric allocates nothing. Guards the
// zero-alloc hot path against instrumentation creep.
func TestForwardPathZeroAllocWhenUnobserved(t *testing.T) {
	tp := leafSpine(t, 2, 2, 1)
	e := sim.NewEngine(1)
	pool := packet.NewPool()
	n := NewNetwork(e, tp, Config{Pool: pool, ControlLossless: true})
	n.AttachHost(1, func(*packet.Packet) {}) // deliverToHost recycles into pool

	psn := packet.PSN(0)
	send := func() {
		p := pool.Get()
		p.Kind = packet.Data
		p.Src, p.Dst = 0, 1
		p.QP = 1
		p.SPort, p.DPort = 1000, 4791
		p.PSN = psn
		p.Payload = 1000
		psn = psn.Next()
		n.Inject(0, p)
		e.RunAll()
	}
	// Warm up: grow the engine heap, pool free list and queue slices to
	// steady state before measuring.
	for i := 0; i < 100; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
		t.Fatalf("forward path allocates %.1f/op with observability disabled", allocs)
	}
	poolBalanced(t, pool)
}

// poolBalanced fails t unless every packet the pool handed out has come back
// exactly once: a double Put or a leaked packet breaks the equality.
func poolBalanced(t *testing.T, pool *packet.Pool) {
	t.Helper()
	if allocs, reuses, returns := pool.Stats(); allocs+reuses != returns {
		t.Fatalf("pool handed out %d packets (%d allocs + %d reuses) but took back %d", allocs+reuses, allocs, reuses, returns)
	}
}

// TestBurstDeliveryZeroAlloc is the pipelined companion gate: a window of
// packets is kept in flight so every link's propagation pipe holds multiple
// residents and deliverBurst runs its steady-state re-arm/compaction path.
// Once the pipe backing arrays and the event free list are warm, draining a
// whole window must allocate nothing.
func TestBurstDeliveryZeroAlloc(t *testing.T) {
	tp := leafSpine(t, 2, 2, 1)
	e := sim.NewEngine(1)
	pool := packet.NewPool()
	n := NewNetwork(e, tp, Config{Pool: pool, ControlLossless: true})
	n.AttachHost(1, func(*packet.Packet) {}) // deliverToHost recycles into pool

	psn := packet.PSN(0)
	window := func() {
		for k := 0; k < 32; k++ {
			p := pool.Get()
			p.Kind = packet.Data
			p.Src, p.Dst = 0, 1
			p.QP = 1
			p.SPort, p.DPort = 1000, 4791
			p.PSN = psn
			p.Payload = 1000
			psn = psn.Next()
			n.Inject(0, p)
		}
		e.RunAll()
	}
	for i := 0; i < 20; i++ {
		window()
	}
	if allocs := testing.AllocsPerRun(50, window); allocs != 0 {
		t.Fatalf("burst delivery allocates %.1f per 32-packet window, want 0", allocs)
	}
	poolBalanced(t, pool)
}

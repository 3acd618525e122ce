package lb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"themis/internal/packet"
	"themis/internal/sim"
)

// fakeCtx implements Context for tests.
type fakeCtx struct {
	now    sim.Time
	queues map[int]int
	rng    *rand.Rand
	seed   uint32
}

func newFakeCtx() *fakeCtx {
	return &fakeCtx{queues: make(map[int]int), rng: rand.New(rand.NewSource(7))}
}

func (c *fakeCtx) Now() sim.Time        { return c.now }
func (c *fakeCtx) QueueBytes(p int) int { return c.queues[p] }
func (c *fakeCtx) Rand() *rand.Rand     { return c.rng }
func (c *fakeCtx) Seed() uint32         { return c.seed }

func dataPkt(src, dst packet.NodeID, sport uint16, psn packet.PSN) *packet.Packet {
	return &packet.Packet{Kind: packet.Data, Src: src, Dst: dst, SPort: sport, DPort: 4791, PSN: psn, Payload: 1000}
}

func TestHashDeterministic(t *testing.T) {
	k := packet.FlowKey{Src: 1, Dst: 2, SPort: 100, DPort: 4791}
	if Hash(k) != Hash(k) {
		t.Fatal("hash not deterministic")
	}
	k2 := k
	k2.SPort = 101
	if Hash(k) == Hash(k2) {
		t.Fatal("sport change should change hash")
	}
}

// CRC32 linearity: Hash(k ^ d) ^ Hash(k) depends only on d, not k. This is
// the property PathMap construction relies on (§3.2).
func TestHashXORLinearityInSport(t *testing.T) {
	delta := func(k packet.FlowKey, d uint16) uint32 {
		kd := k
		kd.SPort ^= d
		return Hash(kd) ^ Hash(k)
	}
	f := func(src, dst int32, sportA, sportB, d uint16) bool {
		ka := packet.FlowKey{Src: packet.NodeID(src), Dst: packet.NodeID(dst), SPort: sportA, DPort: 4791}
		kb := packet.FlowKey{Src: packet.NodeID(dst), Dst: packet.NodeID(src), SPort: sportB, DPort: 4791}
		return delta(ka, d) == delta(kb, d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIndexPowerOfTwoAndModulo(t *testing.T) {
	for _, n := range []int{1, 2, 4, 16, 256} {
		for _, h := range []uint32{0, 1, 12345, 1 << 31} {
			if got, want := Index(h, n), int(h)&(n-1); got != want {
				t.Fatalf("Index(%d,%d) = %d want %d", h, n, got, want)
			}
		}
	}
	if got := Index(10, 3); got != 1 {
		t.Fatalf("Index(10,3) = %d", got)
	}
}

func TestIndexPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Index(1, 0)
}

func TestECMPStickyPerFlow(t *testing.T) {
	cands := []int{2, 3, 4, 5}
	ctx := newFakeCtx()
	var sel ECMP
	first := sel.Select(dataPkt(1, 2, 100, 0), cands, ctx)
	for psn := packet.PSN(1); psn < 100; psn++ {
		if got := sel.Select(dataPkt(1, 2, 100, psn), cands, ctx); got != first {
			t.Fatal("ECMP moved a flow across paths")
		}
	}
	if sel.Name() != "ecmp" {
		t.Fatal("name")
	}
}

func TestECMPSpreadsFlows(t *testing.T) {
	cands := []int{0, 1, 2, 3, 4, 5, 6, 7}
	ctx := newFakeCtx()
	var sel ECMP
	seen := map[int]int{}
	for sport := uint16(0); sport < 512; sport++ {
		seen[sel.Select(dataPkt(1, 2, sport, 0), cands, ctx)]++
	}
	for _, c := range cands {
		if seen[c] == 0 {
			t.Fatalf("ECMP never used port %d: %v", c, seen)
		}
	}
}

func TestRandomSprayUniform(t *testing.T) {
	cands := []int{10, 11, 12, 13}
	ctx := newFakeCtx()
	var sel RandomSpray
	counts := map[int]int{}
	p := dataPkt(1, 2, 100, 0)
	for i := 0; i < 4000; i++ {
		counts[sel.Select(p, cands, ctx)]++
	}
	for _, c := range cands {
		if counts[c] < 800 || counts[c] > 1200 {
			t.Fatalf("random spray skewed: %v", counts)
		}
	}
}

func TestAdaptivePicksShortestQueue(t *testing.T) {
	cands := []int{0, 1, 2, 3}
	ctx := newFakeCtx()
	ctx.queues[0] = 500
	ctx.queues[1] = 100
	ctx.queues[2] = 900
	ctx.queues[3] = 100
	var sel Adaptive
	got := sel.Select(dataPkt(1, 2, 100, 0), cands, ctx)
	if ctx.queues[got] != 100 {
		t.Fatalf("adaptive picked port %d with queue %d", got, ctx.queues[got])
	}
}

func TestAdaptiveReturnsCandidate(t *testing.T) {
	f := func(src, dst int32, sport uint16, qa, qb, qc uint16) bool {
		cands := []int{5, 9, 11}
		ctx := newFakeCtx()
		ctx.queues[5], ctx.queues[9], ctx.queues[11] = int(qa), int(qb), int(qc)
		got := Adaptive{}.Select(dataPkt(packet.NodeID(src), packet.NodeID(dst), sport, 0), cands, ctx)
		if !contains(cands, got) {
			return false
		}
		min := int(qa)
		if int(qb) < min {
			min = int(qb)
		}
		if int(qc) < min {
			min = int(qc)
		}
		return ctx.queues[got] == min
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPSNSprayEq1(t *testing.T) {
	cands := []int{4, 5, 6, 7} // N = 4
	ctx := newFakeCtx()
	var sel PSNSpray
	p0 := dataPkt(1, 2, 100, 0)
	base := Index(Hash(p0.Key()), 4)
	for psn := packet.PSN(0); psn < 64; psn++ {
		p := dataPkt(1, 2, 100, psn)
		want := cands[(int(psn%4)+base)%4]
		if got := sel.Select(p, cands, ctx); got != want {
			t.Fatalf("psn %d: got %d want %d", psn, got, want)
		}
	}
}

func TestPSNSprayControlFallsBackToECMP(t *testing.T) {
	cands := []int{0, 1, 2, 3}
	ctx := newFakeCtx()
	var sel PSNSpray
	ack := &packet.Packet{Kind: packet.Ack, Src: 2, Dst: 1, SPort: 99, DPort: 4791, PSN: 5}
	want := ECMP{}.Select(ack, cands, ctx)
	for i := 0; i < 10; i++ {
		ack.PSN = packet.PSN(i)
		if got := sel.Select(ack, cands, ctx); got != want {
			t.Fatal("control packets must be ECMP-routed, independent of PSN")
		}
	}
}

// The core property behind Eq. 3: two PSNs map to the same path iff they are
// congruent mod N.
func TestSprayIndexCongruenceProperty(t *testing.T) {
	f := func(psnA, psnB, flowHash uint32, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		same := SprayIndex(packet.PSN(psnA), flowHash, n) == SprayIndex(packet.PSN(psnB), flowHash, n)
		return same == (psnA%uint32(n) == psnB%uint32(n))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Uniformity: over n consecutive PSNs every path is used exactly once.
func TestSprayIndexUniform(t *testing.T) {
	for n := 1; n <= 16; n++ {
		seen := make(map[int]int)
		for psn := 0; psn < n; psn++ {
			seen[SprayIndex(packet.PSN(psn), 0xdeadbeef, n)]++
		}
		if len(seen) != n {
			t.Fatalf("n=%d: used %d distinct paths", n, len(seen))
		}
	}
}

func TestFlowletSticksWithinGap(t *testing.T) {
	fl := NewFlowlet(10 * sim.Microsecond)
	cands := []int{0, 1, 2, 3}
	ctx := newFakeCtx()
	p := dataPkt(1, 2, 100, 0)
	first := fl.Select(p, cands, ctx)
	for i := 0; i < 50; i++ {
		ctx.now = ctx.now.Add(sim.Microsecond) // gaps below timeout
		if got := fl.Select(p, cands, ctx); got != first {
			t.Fatal("flowlet switched paths within gap")
		}
	}
	if fl.Entries() != 1 {
		t.Fatalf("entries = %d", fl.Entries())
	}
}

func TestFlowletSwitchesAfterGap(t *testing.T) {
	fl := NewFlowlet(10 * sim.Microsecond)
	cands := []int{0, 1}
	ctx := newFakeCtx()
	p := dataPkt(1, 2, 100, 0)
	first := fl.Select(p, cands, ctx)
	// Make the current path look congested and wait past the gap.
	ctx.queues[first] = 1 << 20
	ctx.now = ctx.now.Add(11 * sim.Microsecond)
	if got := fl.Select(p, cands, ctx); got == first {
		t.Fatal("flowlet failed to re-balance after gap")
	}
}

func TestFlowletRebalancesOnInvalidPort(t *testing.T) {
	fl := NewFlowlet(10 * sim.Microsecond)
	ctx := newFakeCtx()
	p := dataPkt(1, 2, 100, 0)
	first := fl.Select(p, []int{0, 1}, ctx)
	// Candidate set shrinks (link failure): cached port may disappear.
	remaining := []int{1 - first}
	ctx.now = ctx.now.Add(sim.Nanosecond)
	if got := fl.Select(p, remaining, ctx); got != remaining[0] {
		t.Fatal("flowlet returned a non-candidate port")
	}
}

func TestFlowletZeroGapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFlowlet(0)
}

func TestSelectorNames(t *testing.T) {
	names := map[string]Selector{
		"ecmp":      ECMP{},
		"rps":       RandomSpray{},
		"adaptive":  Adaptive{},
		"psn-spray": PSNSpray{},
		"flowlet":   NewFlowlet(sim.Microsecond),
	}
	for want, s := range names {
		if s.Name() != want {
			t.Errorf("Name() = %q want %q", s.Name(), want)
		}
	}
}

// gf32Mul is the per-switch seeding transform; ECMPIndex's correctness
// arguments need it to be GF(2)-linear and invertible.
func TestGF32MulDistributesOverXOR(t *testing.T) {
	f := func(a, b, c uint32) bool {
		return gf32Mul(a^b, c) == gf32Mul(a, c)^gf32Mul(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGF32MulNoZeroDivisors(t *testing.T) {
	f := func(a, b uint32) bool {
		if a == 0 || b == 0 {
			return gf32Mul(a, b) == 0
		}
		return gf32Mul(a, b) != 0 // field: nonzero * nonzero != 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGF32MulCommutes(t *testing.T) {
	f := func(a, b uint32) bool { return gf32Mul(a, b) == gf32Mul(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Different tiers must decide on genuinely different hash subspaces: for a
// decent fraction of flows, tier 0 and tier 1 pick different indices.
func TestTierSeedsDecorrelate(t *testing.T) {
	differ := 0
	const flows = 1024
	for i := 0; i < flows; i++ {
		k := packet.FlowKey{Src: 1, Dst: 2, SPort: uint16(i), DPort: 4791}
		if ECMPIndex(k, TierSeed(0), 4) != ECMPIndex(k, TierSeed(1), 4) {
			differ++
		}
	}
	// Perfect decorrelation gives ~75%; anything near zero means
	// polarization is back.
	if differ < flows/2 {
		t.Fatalf("tiers correlated: only %d/%d differ", differ, flows)
	}
}

// TestAdaptiveTieBreakFirstInRotation pins the deterministic tie-break: among
// equal shortest queues, Adaptive returns the first minimum encountered
// scanning from the flow's hash-derived rotation start — never a
// scan-order-dependent or RNG-dependent choice.
func TestAdaptiveTieBreakFirstInRotation(t *testing.T) {
	cands := []int{0, 1, 2, 3}
	cases := []struct {
		name   string
		queues map[int]int
	}{
		{"all-equal", map[int]int{0: 5, 1: 5, 2: 5, 3: 5}},
		{"two-way-tie", map[int]int{0: 9, 1: 3, 2: 3, 3: 9}},
		{"tie-wraps-rotation", map[int]int{0: 1, 1: 7, 2: 7, 3: 1}},
		{"unique-min", map[int]int{0: 4, 1: 2, 2: 8, 3: 6}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for sport := uint16(0); sport < 64; sport++ {
				ctx := newFakeCtx()
				for p, q := range tc.queues {
					ctx.queues[p] = q
				}
				p := dataPkt(1, 2, sport, 0)
				got := Adaptive{}.Select(p, cands, ctx)
				// Reference: walk the rotation from the hash start and take
				// the first strict minimum.
				start := ECMPIndex(p.Key(), ctx.Seed(), len(cands))
				want := cands[start]
				for i := 1; i < len(cands); i++ {
					c := cands[(start+i)%len(cands)]
					if ctx.queues[c] < ctx.queues[want] {
						want = c
					}
				}
				if got != want {
					t.Fatalf("sport %d: got %d want %d (start %d)", sport, got, want, start)
				}
			}
		})
	}
}

// TestAdaptiveTieBreakSpreadsFlows: because the rotation start is per-flow,
// an all-tied fabric still spreads different flows across all ports instead
// of polarizing onto the lowest-indexed candidate.
func TestAdaptiveTieBreakSpreadsFlows(t *testing.T) {
	cands := []int{0, 1, 2, 3}
	ctx := newFakeCtx()
	seen := map[int]int{}
	for sport := uint16(0); sport < 256; sport++ {
		seen[Adaptive{}.Select(dataPkt(1, 2, sport, 0), cands, ctx)]++
	}
	for _, c := range cands {
		if seen[c] == 0 {
			t.Fatalf("tied queues polarized away from port %d: %v", c, seen)
		}
	}
}

// TestRandomSpraySingleCandidateDrawsNoRNG is the regression for the
// degraded-fabric determinism bug: with one live candidate there is no choice
// to make, and drawing from the shared per-switch RNG anyway would perturb
// every later decision on that switch relative to a healthy run.
func TestRandomSpraySingleCandidateDrawsNoRNG(t *testing.T) {
	var sel RandomSpray
	p := dataPkt(1, 2, 100, 0)
	// Interleave single-candidate selections into one context but not the
	// other; the multi-candidate decision stream must stay identical.
	a, b := newFakeCtx(), newFakeCtx()
	multi := []int{3, 4, 5, 6}
	for i := 0; i < 64; i++ {
		if got := sel.Select(p, []int{9}, a); got != 9 {
			t.Fatalf("single candidate: got %d", got)
		}
		ga, gb := sel.Select(p, multi, a), sel.Select(p, multi, b)
		if ga != gb {
			t.Fatalf("decision %d diverged: %d vs %d — single-candidate select consumed RNG", i, ga, gb)
		}
	}
}

// untouchableCtx fails the test if a selector consults it at all.
type untouchableCtx struct{ t *testing.T }

func (c untouchableCtx) Now() sim.Time      { c.t.Error("Now consulted"); return 0 }
func (c untouchableCtx) QueueBytes(int) int { c.t.Error("QueueBytes consulted"); return 0 }
func (c untouchableCtx) Rand() *rand.Rand   { c.t.Error("Rand consulted"); return nil }
func (c untouchableCtx) Seed() uint32       { c.t.Error("Seed consulted"); return 0 }

// A decision with one candidate has no freedom: the stateless selectors
// return it without hashing, reading a queue or drawing — every spine→leaf
// and fat-tree down-hop is such a decision.
func TestStatelessSelectorsShortCircuitSingleCandidate(t *testing.T) {
	for _, sel := range []Selector{ECMP{}, Adaptive{}, PSNSpray{}, RandomSpray{}} {
		for _, p := range []*packet.Packet{
			dataPkt(1, 2, 100, 17),
			{Kind: packet.Ack, Src: 2, Dst: 1, QP: 1, SPort: 100, DPort: packet.RoCEv2Port, PSN: 17},
		} {
			if got := sel.Select(p, []int{9}, untouchableCtx{t}); got != 9 {
				t.Errorf("%s: single candidate 9, got %d", sel.Name(), got)
			}
		}
	}
}

// TestFlowletTableBounded is the flow-churn regression: one packet each from
// a long stream of distinct flows must not grow the table monotonically — the
// amortized sweep has to evict idle entries, keeping occupancy proportional
// to the flows active inside the idle window, not to total flows ever seen.
func TestFlowletTableBounded(t *testing.T) {
	gap := 10 * sim.Microsecond
	fl := NewFlowlet(gap)
	cands := []int{0, 1, 2, 3}
	ctx := newFakeCtx()
	const flows = 20000
	peak := 0
	for i := 0; i < flows; i++ {
		ctx.now = ctx.now.Add(sim.Microsecond)
		fl.Select(dataPkt(1, 2, uint16(i), packet.PSN(i)), cands, ctx)
		if n := fl.Entries(); n > peak {
			peak = n
		}
	}
	// Each flow is idle after its single packet; the idle window spans
	// flowletIdleFactor×gap = 160 µs = 160 new flows at this arrival rate.
	// The sweep retires up to 2 entries per select against 1 insertion, so
	// occupancy must stay within a small multiple of the window — far below
	// the 20000 keys offered.
	bound := 4 * flowletIdleFactor * int(gap/sim.Microsecond)
	if peak > bound {
		t.Fatalf("flowlet table peaked at %d entries (bound %d) over %d flows", peak, bound, flows)
	}
	// And long-idle state must eventually vanish entirely: advance far past
	// the window and let the sweep run on a single revisiting flow.
	ctx.now = ctx.now.Add(sim.Second)
	for i := 0; i < flows; i++ {
		fl.Select(dataPkt(1, 2, 7, 0), cands, ctx)
		ctx.now = ctx.now.Add(sim.Nanosecond)
	}
	if n := fl.Entries(); n != 1 {
		t.Fatalf("stale entries survived: %d", n)
	}
}

// TestFlowletSweepPreservesDecisions: eviction is invisible to routing — a
// flow revisited after eviction re-balances exactly like one whose entry
// survived past the gap, because both paths run the same stateless Adaptive
// choice.
func TestFlowletSweepPreservesDecisions(t *testing.T) {
	gap := 10 * sim.Microsecond
	cands := []int{0, 1, 2, 3}
	p := dataPkt(1, 2, 100, 0)

	// Arm A: entry evicted (idle far past the factor), then revisited.
	fa := NewFlowlet(gap)
	ca := newFakeCtx()
	fa.Select(p, cands, ca)
	ca.now = ca.now.Add(sim.Second)
	// Churn unrelated flows so the sweep hand passes the stale entry.
	for i := 0; i < 8; i++ {
		fa.Select(dataPkt(3, 4, uint16(i), 0), cands, ca)
	}
	gotA := fa.Select(p, cands, ca)

	// Arm B: entry still resident, gap expired.
	fb := NewFlowlet(gap)
	cb := newFakeCtx()
	fb.Select(p, cands, cb)
	cb.now = cb.now.Add(sim.Second)
	for i := 0; i < 8; i++ {
		fb.Select(dataPkt(3, 4, uint16(i), 0), cands, cb)
	}
	gotB := fb.Select(p, cands, cb)

	if gotA != gotB {
		t.Fatalf("eviction changed a routing decision: %d vs %d", gotA, gotB)
	}
}

// TestIndexNonPowerOfTwoInRange: for every n > 0 (not just powers of two)
// Index returns h mod n, in [0, n) — the modulo path must agree with the
// documented contract, not just the masked fast path.
func TestIndexNonPowerOfTwoInRange(t *testing.T) {
	f := func(h uint32, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		got := Index(h, n)
		return got == int(h%uint32(n)) && got >= 0 && got < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestGF32MulSeedOr1Invertible: seeding with seed|1 guarantees a nonzero
// multiplier, and multiplication by a nonzero field element is injective — so
// per-switch seeding permutes the hash space instead of collapsing it. This
// is the property that keeps ECMPIndex collision-free across hash inputs.
func TestGF32MulSeedOr1Invertible(t *testing.T) {
	f := func(h1, h2, seed uint32) bool {
		s := seed | 1
		if h1 == h2 {
			return gf32Mul(h1, s) == gf32Mul(h2, s)
		}
		return gf32Mul(h1, s) != gf32Mul(h2, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

package exp

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"themis/internal/collective"
	"themis/internal/obs"
	"themis/internal/rnic"
	"themis/internal/trace"
	"themis/internal/workload"
)

// testGrid exercises every workload family at miniature sizes.
func testGrid() []Scenario {
	grid := SmokeGrid(1, 2) // 2 collective cells + 1 chaos soak
	grid = append(grid, Scenario{
		Name:         "motivation-small",
		Workload:     Motivation,
		Seed:         3,
		Transport:    rnic.SelectiveRepeat,
		MessageBytes: 1 << 20,
	})
	grid = append(grid, Scenario{
		Name:         "incast-small",
		Workload:     Incast,
		Seed:         4,
		Senders:      4,
		MessageBytes: 512 << 10,
	})
	grid = append(grid, ChurnGrid(5, 1)...)
	// First four convergence cells: the three delay-0 spray arms plus one
	// slow-control-plane cell, so the determinism check covers the
	// distributed routing plane with and without in-flight route messages.
	grid = append(grid, ConvergenceGrid(6, 1)[:4]...)
	return grid
}

// The tentpole's determinism guarantee: the same grid produces byte-identical
// serialized reports at any parallelism level, because every trial owns its
// own engine, pool and RNG and results land at their scenario's index. This
// mirrors internal/chaos TestRunDeterminism one layer up.
func TestRunnerParallelDeterminism(t *testing.T) {
	grid := testGrid()
	seq := NewReport("determinism", Runner{Parallel: 1}.Run(grid))
	par := NewReport("determinism", Runner{Parallel: 8}.Run(grid))
	a, err := seq.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("parallel=1 and parallel=8 reports differ:\n--- seq ---\n%s\n--- par ---\n%s", a, b)
	}
	for i, tr := range seq.Trials {
		if tr.Err != "" {
			t.Fatalf("trial %d (%s) failed: %s", i, tr.Name, tr.Err)
		}
	}
}

// The shard-determinism guarantee, enforced the same way as worker-count
// determinism above: the serialized report is byte-identical for every shard
// count. The spray cells genuinely repartition the fat tree across engines,
// so they prove the mailbox drain order, per-channel priorities and
// partition-invariant RNG streams reproduce the single-shard schedule
// exactly. (No other workload is partitioned; Shards does not reach them.)
// The paper's arm rides along — appended here, not in SprayGrid, whose cells
// the frozen benchmark's soak runs — and every trial is metered, so the bytes
// compared include Trial.Metrics: per-ToR pipelines and the registry are
// partition-invariant too.
//
// {0, 1} is an identity since PR 19 — the cluster builder normalises 0 to 1,
// there being no second scheme for 0 to select — so the base run at 0 only
// guards that normalisation; {1, 2, 4} is the claim.
func TestShardCountDeterminism(t *testing.T) {
	grid := SprayGrid(8)
	for _, k := range []int{4, 8} {
		sc := grid[0]
		sc.Name, sc.LB, sc.FatTreeK = fmt.Sprintf("spray/themis/k%d/seed8", k), workload.Themis, k
		grid = append(grid, sc)
	}
	run := Runner{Parallel: 4, Obs: Obs{Metrics: true}}.Run
	withShards := func(n int) []Scenario {
		out := make([]Scenario, len(grid))
		for i, sc := range grid {
			sc.Shards = n
			out[i] = sc
		}
		return out
	}
	base := NewReport("shard-determinism", run(withShards(0)))
	want, err := base.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range base.Trials {
		if tr.Err != "" {
			t.Fatalf("trial %d (%s) failed: %s", i, tr.Name, tr.Err)
		}
		if tr.Metrics == nil || len(tr.Metrics.Histograms) == 0 {
			t.Fatalf("trial %d (%s) is not metered: %+v", i, tr.Name, tr.Metrics)
		}
	}
	if last := base.Trials[len(base.Trials)-1]; last.Middleware.NacksBlocked == 0 {
		t.Fatalf("%s blocked no NACK; Themis-D is not exercised", last.Name)
	}
	for _, shards := range []int{1, 2, 4} {
		rep := NewReport("shard-determinism", run(withShards(shards)))
		got, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("shards=%d report differs from shards=0:\n--- base ---\n%s\n--- got ---\n%s", shards, want, got)
		}
	}
}

func TestRunnerPreservesOrderAndReportsErrors(t *testing.T) {
	grid := []Scenario{
		{Name: "bad", Workload: Workload("nope"), Seed: 1},
		SmokeGrid(5)[0],
	}
	trials := Runner{Parallel: 4}.Run(grid)
	if len(trials) != 2 {
		t.Fatalf("got %d trials", len(trials))
	}
	if trials[0].Name != "bad" || trials[1].Name != grid[1].Name {
		t.Fatalf("order not preserved: %q, %q", trials[0].Name, trials[1].Name)
	}
	if !strings.Contains(trials[0].Err, "unknown workload") {
		t.Fatalf("bad workload Err = %q", trials[0].Err)
	}
	if trials[1].Err != "" {
		t.Fatalf("good trial failed: %s", trials[1].Err)
	}
	rep := NewReport("x", trials)
	if rep.Aggregate.Errors != 1 {
		t.Fatalf("Aggregate.Errors = %d, want 1", rep.Aggregate.Errors)
	}
	// The failed trial contributes nothing to the metric summaries.
	if rep.Aggregate.CCTMillis.Count != 1 {
		t.Fatalf("CCT summary count = %d, want 1", rep.Aggregate.CCTMillis.Count)
	}
}

// The registry carries what workload.Outcome does not, and nothing Outcome
// does: these are the exact instrument names of a metered trial. The frozen
// benchmark's route.* Lookups depend on the second list.
func TestMeteredTrialInstrumentNames(t *testing.T) {
	for _, c := range []struct {
		sc   Scenario
		want string
	}{
		{SmokeGrid(1)[0], "themis.flows themis.table_bytes rnic.message_complete_us"},
		{ConvergenceGrid(6, 1)[3], "route.episodes route.msgs themis.flows themis.table_bytes rnic.message_complete_us"},
	} {
		tr := RunObserved(c.sc, Obs{Metrics: true})
		if tr.Err != "" {
			t.Fatalf("%s: %s", tr.Name, tr.Err)
		}
		var names []string
		for _, g := range tr.Metrics.Gauges {
			names = append(names, g.Name)
		}
		for _, h := range tr.Metrics.Histograms {
			names = append(names, h.Name)
		}
		if got := strings.Join(names, " "); got != c.want {
			t.Errorf("%s registers %q, want %q", tr.Name, got, c.want)
		}
		if msgs, _ := tr.Metrics.Lookup("route.msgs"); c.sc.DistributedRouting && msgs == 0 {
			t.Errorf("%s: route.msgs = 0 on the distributed plane", tr.Name)
		}
	}
}

func TestTrialCarriesEngineMetrics(t *testing.T) {
	tr := Run(SmokeGrid(1)[0])
	if tr.Err != "" {
		t.Fatal(tr.Err)
	}
	if tr.CCTMillis <= 0 {
		t.Fatalf("CCT = %g", tr.CCTMillis)
	}
	if tr.Engine.EventsExecuted == 0 {
		t.Fatal("engine metrics not captured")
	}
	// The free list must be doing its job on a real workload: reuses should
	// dwarf fresh allocations.
	if tr.Engine.EventReuses < tr.Engine.EventAllocs {
		t.Fatalf("event reuses %d < allocs %d", tr.Engine.EventReuses, tr.Engine.EventAllocs)
	}
	if tr.Sender.DataPackets == 0 {
		t.Fatal("sender counters not captured")
	}
}

func TestLinkFailureScenarioCompletes(t *testing.T) {
	ring := trace.New(1 << 18)
	tr := RunObserved(LinkFailureScenario(7), Obs{Tracer: ring})
	if tr.Err != "" {
		t.Fatal(tr.Err)
	}
	if tr.Middleware.Bypassed == 0 {
		t.Fatal("link failure never engaged the ECMP fallback (no bypassed packets)")
	}
	// LinkFail goes through the cluster's one fault path, so the trace (and a
	// flight dump) shows the failure; its zero Repair means it never comes up.
	if down, up := len(ring.ByOp(trace.FaultLinkDown)), len(ring.ByOp(trace.FaultLinkUp)); down != 1 || up != 0 {
		t.Fatalf("fault-down/up events = %d/%d, want 1/0", down, up)
	}
}

func TestLossRecoveryGridCompensationEffect(t *testing.T) {
	trials := Runner{Parallel: 2}.Run(LossRecoveryGrid(7))
	for _, tr := range trials {
		if tr.Err != "" {
			t.Fatalf("%s: %s", tr.Name, tr.Err)
		}
	}
	// With compensation disabled, blocked-but-real losses must wait for the
	// RTO: strictly more timeouts than the compensating arm.
	if trials[1].Sender.Timeouts <= trials[0].Sender.Timeouts {
		t.Fatalf("timeouts: comp=on %d, comp=off %d — compensation had no effect",
			trials[0].Sender.Timeouts, trials[1].Sender.Timeouts)
	}
}

func TestGridShapes(t *testing.T) {
	if g := Fig5Grid(1, 3<<20, collective.RingAllreduce); len(g) != 15 {
		t.Fatalf("Fig5Grid = %d cells, want 15", len(g))
	}
	if g := Fig1Grid(10<<20, 1, 2); len(g) != 4 {
		t.Fatalf("Fig1Grid = %d cells, want 4", len(g))
	}
	if g := ChaosGrid(5, 3); len(g) != 3 || g[2].Seed != 7 {
		t.Fatalf("ChaosGrid = %+v", g)
	}
	// 3 delays × 3 arms per seed, every cell on the distributed plane.
	if g := ConvergenceGrid(5, 2); len(g) != 18 {
		t.Fatalf("ConvergenceGrid = %d cells, want 18", len(g))
	} else {
		for _, sc := range g {
			if !sc.DistributedRouting {
				t.Fatalf("%s: not distributed", sc.Name)
			}
		}
	}
	// Names must be unique within each grid — they key the artifact rows.
	// Every row of the grid table is covered, built the way `sweep -grid`
	// builds it (bytes 0 = the row's default size).
	var all [][]Scenario
	for _, name := range strings.Split(GridNames(), "|") {
		g, err := ParseGrid(name)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, g.Scenarios(7, 2, 0, collective.AllToAll))
	}
	if _, err := ParseGrid("fig6"); err == nil || !strings.Contains(err.Error(), GridNames()) {
		t.Fatalf("unknown grid error %v does not list the table", err)
	}
	if fig1, _ := ParseGrid("fig1"); fig1.Scenarios(1, 1, 0, 0)[0].MessageBytes != 100<<20 {
		t.Fatal("fig1's default size is the motivation study's 100 MB")
	}
	for i, grid := range all {
		if len(grid) == 0 {
			t.Fatalf("grid %d of %s is empty", i, GridNames())
		}
		seen := map[string]bool{}
		for _, sc := range grid {
			if sc.Name == "" || seen[sc.Name] {
				t.Fatalf("duplicate or empty scenario name %q", sc.Name)
			}
			seen[sc.Name] = true
		}
	}
}

// TestChurnGridTrials runs one churn seed through the harness and checks the
// lifecycle story end to end: the budgeted arms stay under the §4 budget and
// actually evict, the no-relearn arm exercises conservative NACK forwarding,
// and the unbounded baseline never evicts.
func TestChurnGridTrials(t *testing.T) {
	trials := Runner{Parallel: 3}.Run(ChurnGrid(11, 1))
	if len(trials) != 3 {
		t.Fatalf("trials = %d, want 3", len(trials))
	}
	for _, tr := range trials {
		if tr.Err != "" {
			t.Fatalf("%s failed: %s", tr.Name, tr.Err)
		}
		if len(tr.Violations) != 0 {
			t.Errorf("%s: violations %v", tr.Name, tr.Violations)
		}
	}
	relearn, ecmp, unbounded := trials[0], trials[1], trials[2]
	for _, tr := range []Trial{relearn, ecmp} {
		if tr.TableBudgetBytes == 0 {
			t.Fatalf("%s: budget not recorded", tr.Name)
		}
		if tr.TableBytesPeak > tr.TableBudgetBytes {
			t.Errorf("%s: peak %d B over budget %d B", tr.Name, tr.TableBytesPeak, tr.TableBudgetBytes)
		}
		if tr.Middleware.Evictions == 0 {
			t.Errorf("%s: budget never evicted", tr.Name)
		}
	}
	if ecmp.Middleware.UnknownNacksForwarded == 0 {
		t.Error("no-relearn arm never forwarded an evicted-QP NACK")
	}
	if unbounded.Middleware.Evictions != 0 || unbounded.Middleware.TableFull != 0 {
		t.Errorf("unbounded baseline evicted: %+v", unbounded.Middleware)
	}
}

// Delay-0 distributed routing is defined to be the oracle fixed point: every
// FIB cold-starts converged and route updates apply in zero engine events, so
// a trial's entire JSON record — engine event counts included — must be
// byte-identical to the oracle mode it generalizes. Chaos cells are skipped
// (their harness pins its own routing options) and convergence cells are
// skipped (they are always distributed); everything else runs both ways.
func TestOracleDistributedIdentity(t *testing.T) {
	var oracle, dist []Scenario
	for _, sc := range testGrid() {
		if sc.Workload == Chaos || sc.Workload == Convergence {
			continue
		}
		sc.Name = sc.Label() // pin before toggling so labels match
		sc.DistributedRouting = false
		sc.ConvergenceDelay = 0
		oracle = append(oracle, sc)
		sc.DistributedRouting = true
		dist = append(dist, sc)
	}
	a := NewReport("identity", Runner{Parallel: 4}.Run(oracle))
	b := NewReport("identity", Runner{Parallel: 4}.Run(dist))
	for i := range b.Trials {
		if b.Trials[i].Err != "" {
			t.Fatalf("%s: %s", b.Trials[i].Name, b.Trials[i].Err)
		}
		// Normalize the one intended difference; all behaviour must match.
		b.Trials[i].Scenario.DistributedRouting = false
	}
	aj, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("delay-0 distributed diverged from oracle:\n--- oracle ---\n%s\n--- distributed ---\n%s", aj, bj)
	}
}

// TestConvergenceGridTrials runs one convergence seed (all delays × arms)
// through the harness: no cell may error or violate an invariant, and the
// slow-control-plane cells must not be vacuous — at least one of them has to
// show fault-induced damage.
func TestConvergenceGridTrials(t *testing.T) {
	trials := Runner{Parallel: 4}.Run(ConvergenceGrid(3, 1))
	if len(trials) != 9 {
		t.Fatalf("trials = %d, want 9", len(trials))
	}
	damaged := false
	for _, tr := range trials {
		if tr.Err != "" {
			t.Fatalf("%s failed: %s", tr.Name, tr.Err)
		}
		if len(tr.Violations) != 0 {
			t.Errorf("%s: violations %v", tr.Name, tr.Violations)
		}
		if tr.CCTMillis <= 0 {
			t.Errorf("%s: CCT = %g", tr.Name, tr.CCTMillis)
		}
		if tr.Net.DataDrops+tr.Net.LinkDrops+tr.Net.LoopDrops > 0 || tr.Sender.Timeouts > 0 {
			damaged = true
		}
	}
	if !damaged {
		t.Fatal("no convergence cell showed any fault-induced damage")
	}
}

// TestWideSeedRegression pins the one finding the wide-seed soak (`make soak`)
// has produced: on reps/chaos/themis-relearn seed 123 a BePSN delivered while
// a link flap held Themis bypassed left its compensation armed after the run.
func TestWideSeedRegression(t *testing.T) {
	for _, tr := range (Runner{Parallel: 2}).Run(RepsGrid(123, 1)) {
		if tr.Err != "" || len(tr.Violations) > 0 {
			t.Errorf("%s: err %q violations %v", tr.Name, tr.Err, tr.Violations)
		}
	}
}

// TestEventsPerPacketBudget is the exact proxy for host cost: engine events
// per simulated packet on one small Fig. 5 cell per arm (64 KB ring Allreduce
// on the paper's 16×16×16 fabric, seed 1). A perf-only change must leave every
// number here unchanged; a change that removes events moves this gate.
//
// The budget, derived from the model:
//
//   - Forwarding: every packet the fabric delivers crossed 4 links
//     (host→ToR, ToR→spine, spine→ToR, ToR→host — ring neighbours sit in
//     different racks). A link crossing costs 2 events, the serializer's
//     txDone and the propagation pipe's burst delivery — or 1 when the txDone
//     is elided (fabric.outQueue.maybeStart): the completion had nothing to
//     release and nothing to start. At 2 each that is 8 per data packet, and
//     the same 8 for the ACK each one draws at AckEvery = 1 (or the NACK an
//     out-of-order arrival draws instead). A NACK Themis-D blocks dies at the
//     receiver's ToR after its first link: 2.
//   - The pacer: one event per burst (≤ 16 KB on the wire). A 4 KB ring chunk
//     is one burst, whose pacing slot fires once and finds nothing to send.
//   - Timers: a DCQCN rate cut starts the α and rate-increase timers, and a
//     retransmission opens an extra pacer burst. Neither exists on a cell
//     without NACKs reaching the sender (ecmp: in order; themis: all blocked).
//
// So with every completion paid, eager = 8·delivered + 2·blocked + messages
// exactly on ecmp and themis — 16⅓ events per data packet at 3 packets a
// message — and the adaptive arm's remainder over forwarding (pacer bursts plus
// DCQCN timers after 776 reordering NACKs) is pinned as measured. That
// identity is still asserted: it is what the fabric executed until PR 24 and
// what the cell would cost at 2 events a crossing.
//
// What is executed is eager − saved. A completion can be elided only where it
// releases nothing: on all 4 crossings of a control packet (this fabric's
// control class is lossless, so it holds no buffer and no PFC ingress bytes),
// on a blocked NACK's one crossing, and on a data packet's first crossing (a
// host uplink has no switch buffer behind it) — and there only for the last
// packet of a burst, the others have the next one waiting. Hence saved ≤
// 4·control delivered + blocked + bursts. It falls short of that bound where a
// packet finds the port busy or arrives during an elided transmission (the
// wake event that starts it stands in for the completion): pinned as measured,
// 87–88 % of the bound, which prices a data packet with its ACK at 12.55
// (ecmp) and 12.42 (themis) events instead of 16⅓. Cancellations are RTO
// re-arms: one per ACK that moves the ack point.
//
// Re-pinned in PR 19, when every cluster moved onto the channel priorities and
// per-switch streams of the partitioned dataplane (same-time arrivals at a
// switch run in channel order, not schedule order: adaptive 819 → 773 NACKs,
// themis 779 → 784 blocked), and twice in PR 24: when the two host-facing hops
// lost their priority-0 exception and every link delivery took its channel's
// stamp (adaptive 773 → 776 NACKs, 395 863 → 396 027 events; themis 784 → 719
// blocked, 371 504 → 371 910; ecmp unmoved), and when the completions were
// elided (no packet, NACK or cancellation count moved; executed 376 320 →
// 289 178, 396 027 → 306 568, 371 910 → 286 243).
func TestEventsPerPacketBudget(t *testing.T) {
	const messages = 256 * 30 // 256 ranks × 2·(16−1) ring steps
	for _, want := range []struct {
		lb                                     workload.LBMode
		data, executed, cancelled, rest, saved uint64
	}{
		{workload.ECMP, 23040, 289178, 23040, messages, 87142},
		{workload.Adaptive, 23816, 306568, 22264, 14971, 89459},
		{workload.Themis, 23040, 286243, 22309, messages, 85667},
	} {
		tr := Run(Fig5Cell(1, 64<<10, collective.RingAllreduce, workload.PaperDCQCNSettings()[0], want.lb))
		if tr.Err != "" {
			t.Fatalf("%v: %s", want.lb, tr.Err)
		}
		if tr.Sender.Completions != messages {
			t.Errorf("%v: %d messages completed, want %d", want.lb, tr.Sender.Completions, messages)
		}
		if tr.Sender.DataPackets != want.data || tr.Engine.EventsExecuted != want.executed ||
			tr.Engine.EventsCancelled != want.cancelled {
			t.Errorf("%v: data packets %d, events executed %d, cancelled %d; want %d, %d, %d", want.lb,
				tr.Sender.DataPackets, tr.Engine.EventsExecuted, tr.Engine.EventsCancelled,
				want.data, want.executed, want.cancelled)
		}
		eager := 8*tr.Net.Delivered + 2*tr.Net.Blocked + want.rest
		if saved := eager - tr.Engine.EventsExecuted; saved != want.saved {
			t.Errorf("%v: %d events under the eager count (8·%d delivered + 2·%d blocked + %d), want %d",
				want.lb, int64(saved), tr.Net.Delivered, tr.Net.Blocked, want.rest, want.saved)
		}
		control := tr.Net.Delivered - (tr.Sender.DataPackets - tr.Net.DataDrops)
		if bound := 4*control + tr.Net.Blocked + want.rest; want.saved > bound {
			t.Errorf("%v: %d completions elided, but only %d could be (4·%d control + %d blocked + %d bursts)",
				want.lb, want.saved, bound, control, tr.Net.Blocked, want.rest)
		}
		if perPkt := float64(tr.Engine.EventsExecuted) / float64(tr.Sender.DataPackets); want.lb != workload.Adaptive && perPkt > 13.25 {
			t.Errorf("%v: %.2f events per data packet, budget 13¼", want.lb, perPkt)
		}
	}
}

// TestWorkloadTable pins the one workload table behind Label, run,
// ParseWorkload and WorkloadNames.
func TestWorkloadTable(t *testing.T) {
	seen := map[Workload]bool{}
	for _, row := range workloads {
		if seen[row.name] {
			t.Errorf("workload %q listed twice", row.name)
		}
		seen[row.name] = true
		if w, err := ParseWorkload(string(row.name)); err != nil || w != row.name {
			t.Errorf("ParseWorkload(%q) = %q, %v", row.name, w, err)
		}
		if !strings.Contains("|"+WorkloadNames()+"|", "|"+string(row.name)+"|") {
			t.Errorf("WorkloadNames() = %q misses %q", WorkloadNames(), row.name)
		}
		label := Scenario{Workload: row.name, Seed: 9}.Label()
		if !strings.HasPrefix(label, string(row.name)+"/") || !strings.HasSuffix(label, "/seed9") {
			t.Errorf("%s: derived label %q", row.name, label)
		}
	}
	sc := Scenario{Workload: Collective, Seed: 9, LB: workload.Themis, Pattern: collective.AllToAll}
	if got := sc.Label(); got != "collective/alltoall/themis/ti0s-td0s/seed9" {
		t.Errorf("Label = %q", got)
	}
	sc.Name = "explicit"
	if sc.Label() != "explicit" {
		t.Error("explicit name not honoured")
	}

	// An unknown workload parses to an error and runs to a Trial.Err that
	// still carries its derived label.
	if _, err := ParseWorkload("nope"); err == nil || !strings.Contains(err.Error(), WorkloadNames()) {
		t.Errorf("ParseWorkload(nope) error = %v, want one listing the names", err)
	}
	tr := run(Scenario{Workload: "nope", Seed: 3}, nil, nil)
	if tr.Name != "nope/seed3" || !strings.Contains(tr.Err, "unknown workload") {
		t.Errorf("unknown workload: Name %q Err %q", tr.Name, tr.Err)
	}
}

// The aggregate's percentiles are taken across the trials, not copied from
// the first one.
func TestReportAggregatePercentiles(t *testing.T) {
	var trials []Trial
	for _, cct := range []float64{3, 1, 2} {
		trials = append(trials, Trial{Outcome: workload.Outcome{CCTMillis: cct}})
	}
	agg := NewReport("p", trials).Aggregate.CCTMillis
	if agg.Count != 3 || agg.Sum != 6 || agg.Min != 1 || agg.Max != 3 || agg.P50 != 2 || agg.P99 != 3 {
		t.Fatalf("aggregate of CCT 3, 1, 2 = %+v, want p50 2, p99 3", agg)
	}
}

func TestReportWriteFile(t *testing.T) {
	dir := t.TempDir()
	rep := NewReport("smoke", Runner{}.Run(SmokeGrid(1)[:1]))
	path, err := rep.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_smoke.json" {
		t.Fatalf("artifact name = %s", path)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := rep.JSON()
	if !bytes.Equal(b, want) {
		t.Fatal("file contents differ from JSON()")
	}
}

// TestRunObservedDumpsFlightOnPanic drives the failure path of the flight
// recorder end to end: a workload that panics mid-setup (SendMessage rejects
// the non-positive size) must come back as a Trial.Err — never a crashed
// grid — with the ring dumped to disk for `themis-sim inspect`.
func TestRunObservedDumpsFlightOnPanic(t *testing.T) {
	dir := t.TempDir()
	sc := Scenario{Name: "chaos-bad-size", Workload: Chaos, Seed: 3, MessageBytes: -1}
	tr := RunObserved(sc, Obs{FlightDir: dir})
	if !strings.Contains(tr.Err, "panic") {
		t.Fatalf("Err = %q, want a recovered panic", tr.Err)
	}
	if tr.FlightDump == "" {
		t.Fatal("no flight dump written for a panicking trial")
	}
	f, err := os.Open(tr.FlightDump)
	if err != nil {
		t.Fatalf("open dump: %v", err)
	}
	defer f.Close()
	d, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatalf("dump not parsable: %v", err)
	}
	if d.Label != tr.Name || d.Seed != sc.Seed {
		t.Fatalf("dump metadata = %q/%d, want %q/%d", d.Label, d.Seed, tr.Name, sc.Seed)
	}
	if len(d.Violations) == 0 || !strings.Contains(d.Violations[0], "panic") {
		t.Fatalf("dump violations = %v, want the recovered panic", d.Violations)
	}

	// An error that is reported (not panicked) takes the same exit: dumped.
	tr = RunObserved(Scenario{Name: "bad", Workload: Workload("nope"), Seed: 4}, Obs{FlightDir: dir})
	if tr.Err == "" || tr.FlightDump == "" {
		t.Fatalf("erroring trial: Err=%q FlightDump=%q, want both set", tr.Err, tr.FlightDump)
	}
}

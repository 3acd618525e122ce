package exp

import (
	"fmt"
	"strings"

	"themis/internal/collective"
	"themis/internal/core"
	"themis/internal/memmodel"
	"themis/internal/rnic"
	"themis/internal/sim"
	"themis/internal/workload"
)

// This file holds the scenario constructors for the paper's figures and the
// repo's ablations — the declarative form of what the benchmark suites and
// the CLI run. Each constructor returns a grid ready for Runner.Run.

// Fig1Arms returns the motivation study's transport arms in paper order:
// NIC-SR (the commodity transport, Fig. 1b/1c) and the Ideal oracle bound
// (Fig. 1d).
func Fig1Arms() []rnic.Transport {
	return []rnic.Transport{rnic.SelectiveRepeat, rnic.Ideal}
}

// Fig1Scenario is one §2.2 motivation cell: random packet spraying over the
// fixed 4×4×2 fabric with the given transport.
func Fig1Scenario(seed, bytes int64, tr rnic.Transport) Scenario {
	return Scenario{
		Name:         fmt.Sprintf("fig1/%v/seed%d", tr, seed),
		Workload:     Motivation,
		Seed:         seed,
		Transport:    tr,
		MessageBytes: bytes,
	}
}

// Fig1Grid returns the motivation grid: both transport arms for each seed.
func Fig1Grid(bytes int64, seeds ...int64) []Scenario {
	var grid []Scenario
	for _, seed := range seeds {
		for _, tr := range Fig1Arms() {
			grid = append(grid, Fig1Scenario(seed, bytes, tr))
		}
	}
	return grid
}

// Fig5Cell is one §5 evaluation cell: the given collective pattern under one
// (TI, TD) DCQCN setting and one load-balancing arm.
func Fig5Cell(seed, bytes int64, pattern collective.Pattern, set workload.DCQCNSetting, lb workload.LBMode) Scenario {
	return Scenario{
		Name: fmt.Sprintf("fig5/%v/ti%d-td%d/%v/seed%d",
			pattern, int64(set.TI/sim.Microsecond), int64(set.TD/sim.Microsecond), lb, seed),
		Workload:     Collective,
		Seed:         seed,
		Pattern:      pattern,
		LB:           lb,
		TI:           set.TI,
		TD:           set.TD,
		MessageBytes: bytes,
	}
}

// Fig5Grid returns the full Fig. 5 matrix for one pattern: the five paper
// DCQCN settings crossed with the three compared systems, in paper order.
func Fig5Grid(seed, bytes int64, pattern collective.Pattern) []Scenario {
	var grid []Scenario
	for _, set := range workload.PaperDCQCNSettings() {
		for _, lb := range workload.Fig5Arms() {
			grid = append(grid, Fig5Cell(seed, bytes, pattern, set, lb))
		}
	}
	return grid
}

// AblationCell is the small collective cell the ablation benchmarks share:
// a 1 MB ring Allreduce on a 4×4×4 fabric at 100 Gbps.
func AblationCell(seed int64, lb workload.LBMode) Scenario {
	return Scenario{
		Name:         fmt.Sprintf("ablation/%v/seed%d", lb, seed),
		Workload:     Collective,
		Seed:         seed,
		Pattern:      collective.RingAllreduce,
		LB:           lb,
		MessageBytes: 1 << 20,
		Leaves:       4,
		Spines:       4,
		HostsPerLeaf: 4,
		Bandwidth:    100e9,
	}
}

// QueueFactorGrid sweeps the Themis-D queue expansion factor F on an
// oversubscribed fabric (two spines: deeper in-flight windows).
func QueueFactorGrid(seed int64, factors []float64) []Scenario {
	var grid []Scenario
	for _, f := range factors {
		sc := AblationCell(seed, workload.Themis)
		sc.Name = fmt.Sprintf("queue-factor/f%g/seed%d", f, seed)
		sc.MessageBytes = 4 << 20
		sc.Spines = 2
		sc.Themis.QueueFactor = f
		grid = append(grid, sc)
	}
	return grid
}

// PathSubsetGrid sweeps the §6 path-subset restriction k over the default
// 16-spine fabric.
func PathSubsetGrid(seed int64, ks []int) []Scenario {
	var grid []Scenario
	for _, k := range ks {
		sc := Scenario{
			Name:         fmt.Sprintf("path-subset/k%d/seed%d", k, seed),
			Workload:     Collective,
			Seed:         seed,
			Pattern:      collective.RingAllreduce,
			LB:           workload.Themis,
			MessageBytes: 2 << 20,
		}
		sc.Themis.PathSubset = k
		grid = append(grid, sc)
	}
	return grid
}

// LossRecoveryGrid returns the §3.4 compensation ablation pair: a 2×4×2
// Themis fabric dropping every 500th data packet, with NACK compensation on
// and off. With compensation disabled, blocked-but-real losses wait for the
// sender's RTO — the trial's Sender.Timeouts counter shows the difference.
func LossRecoveryGrid(seed int64) []Scenario {
	var grid []Scenario
	for _, disable := range []bool{false, true} {
		sc := Scenario{
			Name:           fmt.Sprintf("loss-recovery/comp=%t/seed%d", !disable, seed),
			Workload:       Collective,
			Seed:           seed,
			Pattern:        collective.RingAllreduce,
			LB:             workload.Themis,
			MessageBytes:   1 << 20,
			Leaves:         2,
			Spines:         4,
			HostsPerLeaf:   2,
			Bandwidth:      100e9,
			RTO:            500 * sim.Microsecond,
			DropEveryNData: 500,
		}
		sc.Themis.DisableCompensation = disable
		grid = append(grid, sc)
	}
	return grid
}

// LinkFailureScenario is the §5.3 mid-run link failure: one collective group
// on a 4×4×4 fabric, leaf 0's first uplink (port 4, after the 4 host ports)
// going down at 20 µs with ECMP fallback armed.
func LinkFailureScenario(seed int64) Scenario {
	sc := AblationCell(seed, workload.Themis)
	sc.Name = fmt.Sprintf("link-failure/seed%d", seed)
	sc.Groups = 1
	sc.Themis.FallbackOnFailure = true
	sc.LinkFail = &workload.LinkFault{Switch: 0, Port: 4, At: 20 * sim.Microsecond}
	return sc
}

// ChaosGrid returns fault-injection soak scenarios for seeds
// [first, first+count).
func ChaosGrid(first int64, count int) []Scenario {
	grid := make([]Scenario, count)
	for i := range grid {
		grid[i] = Scenario{Workload: Chaos, Seed: first + int64(i)}
		grid[i].Name = grid[i].Label()
	}
	return grid
}

// ConvergenceDelays are the per-hop control-plane delays the convergence grid
// sweeps: 0 (the oracle fixed point — distributed mode must match it
// byte-for-byte), a fast modern control plane, and a deliberately slow one
// where reconvergence windows dominate.
func ConvergenceDelays() []sim.Duration {
	return []sim.Duration{0, 5 * sim.Microsecond, 50 * sim.Microsecond}
}

// ConvergenceGrid returns the routing-reconvergence sweep for seeds
// [first, first+count): per seed, each per-hop delay crossed with three spray
// arms — Themis with relearn (re-pins sprayed flows after topology change),
// plain ECMP, and flowlet switching — all on the distributed per-switch
// control plane, with the seeded routing-stressor fault schedule (flap
// storms, pod-uplink loss, maintenance drains).
func ConvergenceGrid(first int64, count int) []Scenario {
	var grid []Scenario
	for i := 0; i < count; i++ {
		seed := first + int64(i)
		for _, d := range ConvergenceDelays() {
			for _, arm := range repsArms[2:] { // the three established baselines
				sc := Scenario{
					Name: fmt.Sprintf("convergence/%s/d%dus/seed%d",
						arm.name, int64(d/sim.Microsecond), seed),
					Workload:           Convergence,
					Seed:               seed,
					LB:                 arm.lb,
					DistributedRouting: true,
					ConvergenceDelay:   d,
					Themis:             arm.knobs,
				}
				grid = append(grid, sc)
			}
		}
	}
	return grid
}

// churnQPs is the offered QP count of the churn grid; the budgeted arms get
// SRAM for a tenth of it.
const churnQPs = 120

// churnBudgetBytes derives the §4 table budget for the churn grid's fabric
// (100 Gbps last hop, 1 us links → 2 us last-hop RTT): entries × M_QP.
func churnBudgetBytes(entries int) int {
	return core.TableBudget(memmodel.Params{
		Bandwidth: 100e9,
		RTTLast:   2 * sim.Microsecond,
		MTU:       1500,
		Factor:    1.5,
	}, entries)
}

// ChurnGrid returns the flow-lifecycle sweep for seeds [first, first+count):
// per seed, a budgeted arm with relearn (eviction costs one relearn round
// trip), a budgeted arm without (evicted flows permanently degrade to ECMP
// with conservative NACK forwarding), and the unbounded baseline. Both
// budgeted arms get SRAM for a tenth of the offered QPs, and every arm runs
// the seeded fault mix (ToR reboots + a link flap) over bursty senders.
func ChurnGrid(first int64, count int) []Scenario {
	budget := churnBudgetBytes(churnQPs / 10)
	arms := []struct {
		name   string
		knobs  ThemisKnobs
		budget int
	}{
		{"budgeted-relearn", ThemisKnobs{Relearn: true, FallbackOnFailure: true}, budget},
		{"budgeted-ecmp", ThemisKnobs{FallbackOnFailure: true}, budget},
		{"unbounded", ThemisKnobs{Relearn: true, FallbackOnFailure: true}, 0},
	}
	var grid []Scenario
	for i := 0; i < count; i++ {
		seed := first + int64(i)
		for _, arm := range arms {
			sc := Scenario{
				Name:         fmt.Sprintf("churn/%s/seed%d", arm.name, seed),
				Workload:     Churn,
				Seed:         seed,
				LB:           workload.Themis,
				QPs:          churnQPs,
				Concurrency:  24,
				MessageBytes: 64 << 10,
				BurstBytes:   9000,
				LossyControl: true,
				Faults:       true,
				Themis:       arm.knobs,
			}
			sc.Themis.TableBudgetBytes = arm.budget
			grid = append(grid, sc)
		}
	}
	return grid
}

// sprayArm is one compared system of the REPS and convergence grids.
type sprayArm struct {
	name  string
	lb    workload.LBMode
	knobs ThemisKnobs
}

// repsArms is the spraying-arm comparison set the REPS grid sweeps: the two
// feedback-driven arms (REPS entropy cache, congestion-aware bias) against the
// established baselines — Themis with relearn, plain ECMP and flowlet
// switching — which are also the convergence grid's three arms. Themis knobs
// only matter on the churn cells; the chaos and convergence harness pins its
// own hardened middleware config.
var repsArms = []sprayArm{
	{"reps", workload.REPS, ThemisKnobs{}},
	{"congestion", workload.CongestionAware, ThemisKnobs{}},
	{"themis-relearn", workload.Themis, ThemisKnobs{Relearn: true, FallbackOnFailure: true}},
	{"ecmp", workload.ECMP, ThemisKnobs{}},
	{"flowlet", workload.Flowlet, ThemisKnobs{}},
}

// RepsGrid returns the REPS evaluation sweep for seeds [first, first+count):
// per seed, every spraying arm (see repsArms) crossed with three stress
// workloads — the seeded chaos fault soak, a light flow-churn run with the
// seeded fault mix, and the routing-reconvergence soak on the distributed
// control plane at a fast per-hop delay. Chaos cells set LBArmed because the
// chaos workload's LB arm is opt-in (see Scenario.LBArmed); cells are kept
// light (smaller transfers, fewer churn QPs than ChurnGrid) so the grid stays
// a bench-smoke citizen.
func RepsGrid(first int64, count int) []Scenario {
	var grid []Scenario
	for i := 0; i < count; i++ {
		seed := first + int64(i)
		for _, arm := range repsArms {
			grid = append(grid,
				Scenario{
					Name:         fmt.Sprintf("reps/chaos/%s/seed%d", arm.name, seed),
					Workload:     Chaos,
					Seed:         seed,
					LB:           arm.lb,
					LBArmed:      true,
					MessageBytes: 512 << 10,
				},
				Scenario{
					Name:         fmt.Sprintf("reps/churn/%s/seed%d", arm.name, seed),
					Workload:     Churn,
					Seed:         seed,
					LB:           arm.lb,
					QPs:          48,
					Concurrency:  12,
					MessageBytes: 64 << 10,
					LossyControl: true,
					Faults:       true,
					Themis:       arm.knobs,
				},
				Scenario{
					Name:               fmt.Sprintf("reps/convergence/%s/seed%d", arm.name, seed),
					Workload:           Convergence,
					Seed:               seed,
					LB:                 arm.lb,
					MessageBytes:       512 << 10,
					DistributedRouting: true,
					ConvergenceDelay:   5 * sim.Microsecond,
					Themis:             arm.knobs,
				})
		}
	}
	return grid
}

// SmokeGrid is the miniature CI sweep: one fast collective cell per seed on a
// 3×3×2 fabric plus one chaos soak seed — a few hundred milliseconds of wall
// clock in total, enough to exercise every layer of the harness.
func SmokeGrid(seeds ...int64) []Scenario {
	var grid []Scenario
	for _, seed := range seeds {
		grid = append(grid, Scenario{
			Name:         fmt.Sprintf("smoke/themis/seed%d", seed),
			Workload:     Collective,
			Seed:         seed,
			Pattern:      collective.RingAllreduce,
			LB:           workload.Themis,
			MessageBytes: 256 << 10,
			Leaves:       3,
			Spines:       3,
			HostsPerLeaf: 2,
			Bandwidth:    100e9,
		})
	}
	if len(seeds) > 0 {
		grid = append(grid, ChaosGrid(seeds[0], 1)...)
	}
	return grid
}

// SprayGrid returns the space-parallel workload cells: a fat-tree permutation
// under ECMP, random packet spraying, the REPS entropy cache and the
// congestion-aware biased sprayer for each seed. The cells are small (k=4,
// 64 KB messages) because the grid exists for the shard-determinism regression
// and CLI smoke runs, not for scale — BenchmarkShardScaling covers the large
// configuration. Keeping the feedback-driven arms in this grid is deliberate:
// TestShardCountDeterminism runs it at several shard counts, so any entropy
// state that stopped being a pure function of per-sender feedback would show
// up as a byte diff here.
func SprayGrid(seeds ...int64) []Scenario {
	var grid []Scenario
	for _, seed := range seeds {
		for _, lb := range []workload.LBMode{
			workload.ECMP,
			workload.RandomSpray,
			workload.REPS,
			workload.CongestionAware,
		} {
			grid = append(grid, Scenario{
				Name:         fmt.Sprintf("spray/%v/seed%d", lb, seed),
				Workload:     Spray,
				Seed:         seed,
				LB:           lb,
				FatTreeK:     4,
				MessageBytes: 64 << 10,
			})
		}
	}
	return grid
}

// Grid is one row of the grid table: a named scenario grid `themis-sim sweep
// -grid` can build.
type Grid struct {
	name string
	// bytes is the default message size for grids that take one (0: the grid
	// fixes its own sizes).
	bytes int64
	build func(gridArgs) []Scenario
}

// gridArgs is what a sweep can vary: seeds [seed, seed+seeds) — single-seed
// grids use seed only — the message size and the collective pattern.
type gridArgs struct {
	seed    int64
	seeds   int
	bytes   int64
	pattern collective.Pattern
}

// list returns the seeds [seed, seed+seeds).
func (a gridArgs) list() []int64 {
	list := make([]int64, a.seeds)
	for i := range list {
		list[i] = a.seed + int64(i)
	}
	return list
}

// grids is the grid table, behind ParseGrid and GridNames. Adding a grid is
// its constructor above and one row here.
var grids = []Grid{
	{"fig5", 300 << 20, func(a gridArgs) []Scenario { return Fig5Grid(a.seed, a.bytes, a.pattern) }},
	{"fig1", 100 << 20, func(a gridArgs) []Scenario { return Fig1Grid(a.bytes, a.list()...) }},
	{"smoke", 0, func(a gridArgs) []Scenario { return SmokeGrid(a.list()...) }},
	{"chaos", 0, func(a gridArgs) []Scenario { return ChaosGrid(a.seed, a.seeds) }},
	{"churn", 0, func(a gridArgs) []Scenario { return ChurnGrid(a.seed, a.seeds) }},
	{"convergence", 0, func(a gridArgs) []Scenario { return ConvergenceGrid(a.seed, a.seeds) }},
	{"spray", 0, func(a gridArgs) []Scenario { return SprayGrid(a.list()...) }},
	{"reps", 0, func(a gridArgs) []Scenario { return RepsGrid(a.seed, a.seeds) }},
	{"queue-factor", 0, func(a gridArgs) []Scenario { return QueueFactorGrid(a.seed, []float64{0.05, 0.2, 0.5, 1.5, 3.0}) }},
	{"path-subset", 0, func(a gridArgs) []Scenario { return PathSubsetGrid(a.seed, []int{1, 2, 4, 8, 16}) }},
	{"loss-recovery", 0, func(a gridArgs) []Scenario { return LossRecoveryGrid(a.seed) }},
}

// Scenarios builds the grid; bytes 0 takes the grid's default size.
func (g Grid) Scenarios(seed int64, seeds int, bytes int64, pattern collective.Pattern) []Scenario {
	if bytes == 0 {
		bytes = g.bytes
	}
	return g.build(gridArgs{seed, seeds, bytes, pattern})
}

// GridNames returns the grid names joined by "|", for flag help and errors.
func GridNames() string {
	names := make([]string, len(grids))
	for i := range grids {
		names[i] = grids[i].name
	}
	return strings.Join(names, "|")
}

// ParseGrid looks a grid up by name.
func ParseGrid(name string) (Grid, error) {
	for _, g := range grids {
		if g.name == name {
			return g, nil
		}
	}
	return Grid{}, fmt.Errorf("unknown grid %q (%s)", name, GridNames())
}

package main

import (
	"fmt"
	"math"

	"themis/internal/chaos"
	"themis/internal/collective"
	"themis/internal/exp"
	"themis/internal/fabric"
	"themis/internal/packet"
	"themis/internal/rnic"
	"themis/internal/sim"
	"themis/internal/topo"
	"themis/internal/workload"
)

// The paper's evaluation fabric (§5): 16 leaves × 16 spines × 16 hosts per
// leaf at 400 Gbps, 16 groups of 16 ranks, DCQCN at the first Fig. 5 column.
const (
	paperLeaves = 16
	paperGroups = 16
)

// paperDCQCN is that column: (TI, TD) = (900 us, 4 us).
var paperDCQCN = workload.PaperDCQCNSettings()[0]

// Message sizes. The paper runs 300 MB collectives; these are scaled to fit
// four repetitions in nominalSeconds on the reference container.
const (
	allreduceBytes = 1 << 20
	alltoallBytes  = 2 << 20
	fig1Bytes      = 100 << 20 // the paper's Fig. 1 size, unscaled
	soakSeeds      = 16
	smokeShrink    = 16 // -smoke divides message sizes by this
)

// cell is one unit of timed work: a single paper scenario, or one grid of
// fault_soak. Per-cell time is the estimator's input (second-fastest of the
// repetitions), so a cell is also the granularity at which noise is rejected.
type cell struct {
	name string
	grid []exp.Scenario
	// wantBytes/wantCompletions are the payload-conservation expectation,
	// computed here from the pattern, group count and message size — never
	// read back from the run. Zero means the cell is not checked (fault_soak:
	// churned and fault-injected flows have no closed form).
	wantBytes, wantCompletions uint64
}

// workloadDef is one BENCHMARK.json workload.
type workloadDef struct {
	name string
	// cells returns the timed work for a scenario seed; shrink > 1 is -smoke.
	cells func(seed int64, shrink int64) []cell
	// setupOnce constructs the workload's largest cluster up to, not
	// including, the first event; setupBuilds constructions make one block.
	setupOnce   func(seed int64) error
	setupBuilds int
	// paperGap is the distance of the headline simulated result from the
	// paper (nil: no paper reference, the model is unvalidated there).
	paperGap func(trials map[string]exp.Trial) (gap float64, note string)
	// verify, if set, is an extra correctness check of the timed run; root is
	// the checkout root.
	verify func(l *ledger, root string)
}

var workloads = []workloadDef{
	{
		name: "allreduce_fig5a",
		cells: func(seed, shrink int64) []cell {
			return fig5Cells(seed, allreduceBytes/shrink, collective.RingAllreduce, workload.Fig5Arms()...)
		},
		setupOnce:   func(seed int64) error { return setupPaperFabric(seed, collective.RingAllreduce) },
		setupBuilds: 40,
		paperGap:    fig5Gap(0.156, 0.753, "1 MB vs the paper's 300 MB"),
	},
	{
		name: "alltoall_fig5b",
		cells: func(seed, shrink int64) []cell {
			return fig5Cells(seed, alltoallBytes/shrink, collective.AllToAll,
				workload.Adaptive, workload.Themis)
		},
		setupOnce:   func(seed int64) error { return setupPaperFabric(seed, collective.AllToAll) },
		setupBuilds: 10,
		paperGap:    fig5Gap(0.115, 0.407, "2 MB vs the paper's 300 MB"),
	},
	{
		name: "motivation_fig1",
		cells: func(seed, shrink int64) []cell {
			bytes := int64(fig1Bytes) / shrink
			var cells []cell
			for _, tr := range []rnic.Transport{rnic.SelectiveRepeat, rnic.Ideal, rnic.GoBackN} {
				cells = append(cells, cell{
					name:            tr.String(),
					grid:            []exp.Scenario{exp.Fig1Scenario(seed, bytes, tr)},
					wantBytes:       uint64(len(workload.MotivationFlows())) * uint64(bytes),
					wantCompletions: uint64(len(workload.MotivationFlows())),
				})
			}
			return cells
		},
		setupOnce:   setupFig1,
		setupBuilds: 2000,
		paperGap: func(trials map[string]exp.Trial) (float64, string) {
			const paper = 0.7135 // Fig. 1d: NIC-SR reaches 71.35 % of the ideal transport's goodput
			ratio := trials["nic-sr"].GoodputGbps / trials["ideal"].GoodputGbps
			return math.Abs(ratio-paper) / paper,
				fmt.Sprintf("goodput(nic-sr)/goodput(ideal) = %.4f vs paper %.4f at the same 100 MB", ratio, paper)
		},
	},
	{
		name: "fault_soak",
		cells: func(seed, shrink int64) []cell {
			n := soakSeeds
			if shrink > 1 {
				n = 1
			}
			return soakCells(seed, n)
		},
		setupOnce:   setupSoak,
		setupBuilds: 300,
		verify:      checkArtifacts,
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// fig5Cells returns one cell per load-balancing arm of a Fig. 5 column on the
// paper fabric, with the conservation expectation of the pattern.
func fig5Cells(seed, bytes int64, pattern collective.Pattern, arms ...workload.LBMode) []cell {
	g := uint64(paperLeaves) // group size: one rank per rack
	chunk := (uint64(bytes) + g - 1) / g
	sends := paperGroups * g * (g - 1) // Alltoall: one chunk per ordered pair
	if pattern == collective.RingAllreduce {
		sends = paperGroups * g * 2 * (g - 1) // 2(g-1) ring steps per rank
	}
	var cells []cell
	for _, lb := range arms {
		cells = append(cells, cell{
			name:            lb.String(),
			grid:            []exp.Scenario{exp.Fig5Cell(seed, bytes, pattern, paperDCQCN, lb)},
			wantBytes:       sends * chunk,
			wantCompletions: sends,
		})
	}
	return cells
}

// fig5Gap scores 1 − CCT(themis)/CCT(adaptive) against the paper's reported
// band: 0 inside it, else the distance to the nearest edge over that edge.
func fig5Gap(lo, hi float64, scale string) func(map[string]exp.Trial) (float64, string) {
	return func(trials map[string]exp.Trial) (float64, string) {
		red := 1 - trials["themis"].CCTMillis/trials["adaptive"].CCTMillis
		gap := 0.0
		switch {
		case red < lo:
			gap = (lo - red) / lo
		case red > hi:
			gap = (red - hi) / hi
		}
		return gap, fmt.Sprintf("CCT reduction themis vs adaptive = %.4f, paper band [%.3f, %.3f], %s", red, lo, hi, scale)
	}
}

// soakCells returns the five bench-smoke grids over seeds [first, first+n).
// The spray grid runs on two shards, as the shard-invariance contract says it
// may: its trial bytes must not change.
func soakCells(first int64, n int) []cell {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = first + int64(i)
	}
	spray := exp.SprayGrid(seeds...)
	for i := range spray {
		spray[i].Shards = 2
	}
	return []cell{
		{name: "smoke", grid: exp.SmokeGrid(seeds...)},
		{name: "churn", grid: exp.ChurnGrid(first, n)},
		{name: "convergence", grid: exp.ConvergenceGrid(first, n)},
		{name: "spray", grid: spray},
		{name: "reps", grid: exp.RepsGrid(first, n)},
	}
}

// setupPaperFabric builds the paper fabric with the full Themis middleware
// and opens every connection the pattern uses.
func setupPaperFabric(seed int64, pattern collective.Pattern) error {
	cl, err := workload.BuildCluster(workload.ClusterConfig{
		Seed: seed, Leaves: paperLeaves, Spines: 16, HostsPerLeaf: paperGroups,
		LB: workload.Themis, TI: paperDCQCN.TI, TD: paperDCQCN.TD,
	})
	if err != nil {
		return err
	}
	for g := 0; g < paperGroups; g++ {
		hosts := workload.GroupHosts(paperLeaves, paperGroups, g)
		for i, src := range hosts {
			if pattern == collective.RingAllreduce {
				cl.Conn(src, hosts[(i+1)%len(hosts)])
				continue
			}
			for off := 1; off < len(hosts); off++ {
				cl.Conn(src, hosts[(i+off)%len(hosts)])
			}
		}
	}
	return nil
}

// setupFig1 builds the §2.2 motivation fabric and its eight ring flows.
func setupFig1(seed int64) error {
	cl, err := workload.BuildCluster(workload.ClusterConfig{
		Seed: seed, Leaves: 4, Spines: 4, HostsPerLeaf: 2, Bandwidth: 100e9,
		LB: workload.RandomSpray, TI: 55 * sim.Microsecond, TD: 50 * sim.Microsecond,
	})
	if err != nil {
		return err
	}
	for _, f := range workload.MotivationFlows() {
		cl.Conn(f[0], f[1])
	}
	return nil
}

// setupSoak builds what a fault_soak trial builds before its first event:
// the hardened chaos cluster with its cross-rack ring, and the k=4 fat-tree
// dataplane partitioned over two shards.
func setupSoak(seed int64) error {
	cl, err := chaos.BuildCluster(chaos.Scenario{Seed: seed}, chaos.Options{})
	if err != nil {
		return err
	}
	n := cl.Topo.NumHosts()
	for i := 0; i < n; i++ {
		cl.Conn(packet.NodeID(i), packet.NodeID((i+cl.Config.HostsPerLeaf)%n))
	}
	return buildShardedFatTree(seed)
}

// buildShardedFatTree assembles the spray grid's dataplane — a k=4 fat-tree
// over two shards with one NIC per host — using the same exported
// constructors workload.RunSpray does.
func buildShardedFatTree(seed int64) error {
	const shards = 2
	link := topo.LinkSpec{Bandwidth: 100e9, Delay: sim.Microsecond}
	t, err := topo.NewFatTree(topo.FatTreeConfig{K: 4, HostLink: link, FabricLink: link})
	if err != nil {
		return err
	}
	part, err := topo.PartitionRacks(t, shards)
	if err != nil {
		return err
	}
	la, err := topo.Lookahead(t, part)
	if err != nil {
		return err
	}
	engines := make([]*sim.Engine, shards)
	for i := range engines {
		engines[i] = sim.NewEngine(sim.StreamSeed(seed, uint64(i)))
	}
	group := sim.NewShardGroup(engines, la)
	net, err := fabric.NewShardedNetwork(group, t, part, seed, fabric.Config{
		BufferBytes:     64 << 20,
		ControlLossless: true,
		ECN:             fabric.DefaultECN(link.Bandwidth),
		PFC:             fabric.DefaultPFC(link.Bandwidth),
	})
	if err != nil {
		return err
	}
	for h := 0; h < t.NumHosts(); h++ {
		id := packet.NodeID(h)
		shard := part.HostShard[h]
		nic := rnic.New(group.Shard(shard), id, rnic.Config{
			LineRate: link.Bandwidth, BurstBytes: 16 << 10, Pool: net.ShardPool(shard),
		}, func(p *packet.Packet) { net.Inject(id, p) })
		net.AttachHost(id, nic.HandlePacket)
	}
	return nil
}

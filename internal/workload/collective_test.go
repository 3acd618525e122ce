package workload

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"themis/internal/collective"
	"themis/internal/core"
	"themis/internal/obs"
	"themis/internal/packet"
	"themis/internal/sim"
	"themis/internal/trace"
)

// The collective determinism contract, spray's (TestSprayShardInvariance) one
// workload over: the whole record — outcome, per-group and tail CCT, the
// metrics snapshot — is the same bytes at every shard count, for both
// patterns and the three Fig. 5 arms. Every rank finishes on its own host's
// shard and nothing stops the run early, so there is nothing for a partition
// to change. A count above the rack count is clipped to it (9 → 4). The
// adaptive arm must draw reordering NACKs and Themis must block some, or the
// claim would not reach the transport and the middleware.
func TestCollectiveShardInvariance(t *testing.T) {
	run := func(p collective.Pattern, lb LBMode, shards int) ([]byte, CollectiveResult) {
		cfg := smallCollective(p, lb, 3)
		cfg.MessageBytes, cfg.Shards = 256<<10, shards
		reg := obs.NewRegistry()
		cfg.Metrics = reg
		res, err := RunCollective(cfg)
		if err != nil {
			t.Fatalf("%v %v shards=%d: %v", p, lb, shards, err)
		}
		b, err := json.Marshal(struct {
			Outcome
			GroupCCT []sim.Time
			TailCCT  sim.Time
			Metrics  *obs.Snapshot
		}{res.Outcome, res.GroupCCT, res.TailCCT, reg.Snapshot()})
		if err != nil {
			t.Fatal(err)
		}
		return b, res
	}
	for _, p := range []collective.Pattern{collective.RingAllreduce, collective.AllToAll} {
		for _, lb := range Fig5Arms() {
			want, ref := run(p, lb, 1)
			switch {
			case lb == Adaptive && ref.Sender.NacksRx == 0:
				t.Errorf("%v %v: no NACK reached a sender", p, lb)
			case lb == Themis && ref.Middleware.NacksBlocked == 0:
				t.Errorf("%v %v: Themis-D blocked nothing", p, lb)
			}
			for _, shards := range []int{2, 4, 9} {
				if got, _ := run(p, lb, shards); !bytes.Equal(got, want) {
					t.Errorf("%v %v: shards=%d differs from one shard:\n got  %s\n want %s", p, lb, shards, got, want)
				}
			}
		}
	}
}

// Shards 0 is the finest cut there is, one shard per rack, from blockedHosts
// hosts up — 16 on the paper fabric, 32 on spray's k=8 fat-tree — and one
// shard for a smaller fabric (spray's default k=4, 16 hosts; 4×4×8 at 32
// hosts is cut) or a cluster holding what shards cannot share; an explicit
// count is taken as given, clipped to the racks, and BuildCluster is one
// engine whatever it says.
func TestShardsZeroCutsOnePerRack(t *testing.T) {
	paper := ClusterConfig{Seed: 1, Leaves: 16, Spines: 16, HostsPerLeaf: 16}
	spray := Config{ClusterConfig: ClusterConfig{Seed: 1}}
	spray.resolveSpray()
	spray8 := Config{ClusterConfig: ClusterConfig{Seed: 1, FatTreeK: 8}}
	spray8.resolveSpray()
	edge := ClusterConfig{Seed: 1, Leaves: 4, Spines: 4, HostsPerLeaf: blockedHosts / 4}
	small := edge
	small.HostsPerLeaf--
	for _, c := range []struct {
		name   string
		cfg    ClusterConfig
		faults []Fault
		want   int
	}{
		{"paper fabric", paper, nil, 16},
		{"spray k=4", spray.ClusterConfig, nil, 1},
		{"spray k=8", spray8.ClusterConfig, nil, 32},
		{"4x4x8", edge, nil, 4},
		{"4x4x7", small, nil, 1},
		{"explicit 8 on spray k=4", func() ClusterConfig { c := spray.ClusterConfig; c.Shards = 8; return c }(), nil, 8},
		{"explicit 2", func() ClusterConfig { c := paper; c.Shards = 2; return c }(), nil, 2},
		{"explicit 40", func() ClusterConfig { c := paper; c.Shards = 40; return c }(), nil, 16},
		{"DropEveryNData", func() ClusterConfig { c := paper; c.DropEveryNData = 50; return c }(), nil, 1},
		{"a fault schedule", paper, []Fault{{Kind: LinkFlap, Sw: 0, Port: 16, At: sim.Microsecond}}, 1},
	} {
		cl, err := buildCluster(c.cfg, c.faults)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := cl.group.Shards(); got != c.want {
			t.Errorf("%s: %d shards, want %d", c.name, got, c.want)
		}
	}
	if cl, err := BuildCluster(paper); err != nil || cl.group.Shards() != 1 {
		t.Fatalf("BuildCluster: err %v, want one engine", err)
	}
}

// The coordinator's work and span are exact counts of a cut run: work is
// every event the advance phases executed — the merged EventsExecuted — and
// span sums each epoch's busiest shard, so on two shards it lies between half
// the work (a perfect split) and all of it (one shard idle).
func TestShardGroupWorkAndSpan(t *testing.T) {
	cfg := smallCollective(collective.RingAllreduce, Themis, 3)
	cfg.Shards = 2
	cfg.resolveCollective()
	cl, err := buildCluster(cfg.ClusterConfig, nil)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < cfg.Groups; g++ {
		hosts := GroupHosts(cfg.Leaves, cfg.HostsPerLeaf, g)
		collective.RunRanks(cfg.Pattern, cl.Mesh(hosts), len(hosts), cfg.MessageBytes, func(int) {})
	}
	cl.Run(sim.Duration(sim.Forever))
	if cl.group.Shards() != 2 {
		t.Fatalf("%d shards, want 2", cl.group.Shards())
	}
	ep := cl.group.Epochs()
	work, span := ep.Work, ep.Span
	if executed := cl.group.Metrics().EventsExecuted; work != executed {
		t.Fatalf("work = %d, want the merged EventsExecuted %d", work, executed)
	}
	if work == 0 || span < work/2 || span > work {
		t.Fatalf("span = %d outside [work/2, work] = [%d, %d]", span, work/2, work)
	}
	t.Logf("work %d, span %d: work/span %.3f", work, span, float64(work)/float64(span))
}

// A collective runs one rank per leaf, so one leaf leaves each group nothing
// to exchange: that is an error, not a cell that "completes" with no events.
// A negative shard count is an error naming the knob, not one shard.
func TestCollectiveRejectsDegenerateShapes(t *testing.T) {
	cfg := smallCollective(collective.RingAllreduce, Themis, 1)
	cfg.Leaves = 1
	if _, err := RunCollective(cfg); err == nil || !strings.Contains(err.Error(), "Leaves") {
		t.Fatalf("one leaf: err %v, want one naming Leaves", err)
	}
	cfg = smallCollective(collective.RingAllreduce, Themis, 1)
	cfg.Shards = -3
	if _, err := RunCollective(cfg); err == nil || !strings.Contains(err.Error(), "Shards") {
		t.Fatalf("Shards -3: err %v, want one naming Shards", err)
	}
}

// The middleware's runtime hooks are the cluster's: a tracer set only on the
// Themis block passed the shard refusals (which read ClusterConfig.Tracer) and
// raced across shards, so every preset hook is an error naming the cluster's
// own field — at any shard count, before anything is built.
func TestThemisHooksAreTheCluster(t *testing.T) {
	for name, th := range map[string]core.Config{
		"Tracer":  {Tracer: trace.New(16)},
		"Metrics": {Metrics: obs.NewRegistry()},
		"Pool":    {Pool: packet.NewPool()},
		"Clock":   {Clock: sim.NewEngine(1)},
	} {
		cfg := smallCollective(collective.RingAllreduce, Themis, 1)
		cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf, cfg.Groups, cfg.MessageBytes = 2, 2, 2, 2, 256<<10
		cfg.Shards, cfg.Themis = 2, th
		if _, err := RunCollective(cfg); err == nil || !strings.Contains(err.Error(), "ClusterConfig.Tracer") {
			t.Errorf("Themis.%s preset: err %v, want one naming ClusterConfig.Tracer/Metrics", name, err)
		}
	}
}

// A link failure reaches across the fabric (both link ends, every Themis
// instance), so a collective with one runs on one shard; asking for more is
// an error that names the knob, not a panic from the fabric.
func TestCollectiveLinkFailNeedsOneShard(t *testing.T) {
	cfg := smallCollective(collective.RingAllreduce, Themis, 3)
	cfg.MessageBytes, cfg.Groups = 256<<10, 1
	cfg.Themis.FallbackOnFailure = true
	cfg.LinkFail = []Fault{{Kind: LinkFlap, Sw: 0, Port: 4, At: 20 * sim.Microsecond}}
	cfg.Shards = 2
	if _, err := RunCollective(cfg); err == nil || !strings.Contains(err.Error(), "fault schedule") {
		t.Fatalf("a link failure at 2 shards: err %v, want one naming the fault schedule", err)
	}
	cfg.Shards = 1
	res, err := RunCollective(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Middleware.Bypassed == 0 {
		t.Fatal("the failure never engaged the ECMP fallback")
	}
}

package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"themis/internal/obs"
	"themis/internal/packet"
	"themis/internal/sim"
)

// The spray determinism contract: the entire result — completion times,
// counters, executed-event totals — is identical for every shard count. The
// Outcome's Engine block carries only EventsExecuted and EventsCancelled; the
// allocator counters (free-list locality, per-shard queue depth) are
// properties of how the event set is cut, and live on MergedEngine.
func TestSprayShardInvariance(t *testing.T) {
	for _, lbm := range []LBMode{ECMP, RandomSpray} {
		base := SprayConfig{
			ClusterConfig: ClusterConfig{Seed: 7, FatTreeK: 4, LB: lbm},
			MessageBytes:  64 << 10,
		}
		base.Shards = 1
		ref, err := RunSpray(base)
		if err != nil {
			t.Fatalf("%v shards=1: %v", lbm, err)
		}
		if ref.CCT == 0 || ref.Net.Delivered == 0 {
			t.Fatalf("%v: degenerate reference run: %+v", lbm, ref)
		}
		for _, shards := range []int{2, 4, 8} {
			cfg := base
			cfg.Shards = shards
			got, err := RunSpray(cfg)
			if err != nil {
				t.Fatalf("%v shards=%d: %v", lbm, shards, err)
			}
			if got.CCT != ref.CCT || got.End != ref.End {
				t.Fatalf("%v shards=%d: CCT/End %v/%v, want %v/%v", lbm, shards, got.CCT, got.End, ref.CCT, ref.End)
			}
			for h := range ref.Complete {
				if got.Complete[h] != ref.Complete[h] {
					t.Fatalf("%v shards=%d: host %d completed at %v, want %v", lbm, shards, h, got.Complete[h], ref.Complete[h])
				}
			}
			if got.Sender != ref.Sender {
				t.Fatalf("%v shards=%d: sender stats %+v, want %+v", lbm, shards, got.Sender, ref.Sender)
			}
			if got.Net != ref.Net {
				t.Fatalf("%v shards=%d: net counters %+v, want %+v", lbm, shards, got.Net, ref.Net)
			}
			if got.Engine != ref.Engine || got.Engine.EventsExecuted != got.MergedEngine.EventsExecuted {
				t.Fatalf("%v shards=%d: engine metrics %+v, want %+v", lbm, shards, got.Engine, ref.Engine)
			}
		}
	}
}

// RunSpray builds through the shared cluster builder (buildCluster, OpenFlow)
// instead of wiring engines, NICs and QPs itself. The numbers below are what
// the private wiring it replaced produced (commit d9bd665, k=4, seed 7,
// 64 KB): per-host completion times in picoseconds, sender and delivery
// counters. They must hold at every shard count, for a switch-RNG arm and a
// sender-feedback arm.
//
// Re-pinned once, in PR 24, when the host-facing hops took their channel's
// delivery stamp like every other link: same-instant arrivals at a ToR from
// two of its hosts now run in channel order. rps: host 7 finishes 960 ps
// later (19561920 → 19562880); reps: hosts 0–11 trade places pairwise, one
// 64-byte serialization apart (18254720 ↔ 18249600). NACK and delivery counts
// did not move.
func TestSprayThroughSharedBuilderMatchesPrivateWiring(t *testing.T) {
	for _, tc := range []struct {
		lb        LBMode
		complete  []sim.Time
		nacks     uint64
		delivered uint64
	}{
		{RandomSpray, []sim.Time{
			19714240, 19770240, 19401280, 19457280, 19761280, 19886400, 19417920, 19562880,
			18968320, 19423040, 19767680, 19093440, 20527360, 20803200, 19167680, 19000320,
		}, 187, 1672},
		{REPS, []sim.Time{
			18249600, 18254720, 18249600, 18254720, 18249600, 18254720, 18249600, 18254720,
			18249600, 18254720, 18249600, 18254720, 18249600, 18300480, 18462720, 18411840,
		}, 175, 1758},
	} {
		for _, shards := range []int{1, 2, 4} {
			res, err := RunSpray(SprayConfig{
				ClusterConfig: ClusterConfig{Seed: 7, FatTreeK: 4, LB: tc.lb},
				Shards:        shards,
				MessageBytes:  64 << 10,
			})
			if err != nil {
				t.Fatalf("%v shards=%d: %v", tc.lb, shards, err)
			}
			for h, want := range tc.complete {
				if res.Complete[h] != want {
					t.Errorf("%v shards=%d: host %d completed at %d ps, want %d", tc.lb, shards, h, res.Complete[h], want)
				}
			}
			if s := res.Sender; s.Retransmits != tc.nacks || s.NacksRx != tc.nacks || s.Timeouts != 0 || res.Net.Delivered != tc.delivered {
				t.Errorf("%v shards=%d: sender %+v delivered %d, want %d NACKs each retransmitted once, no timeout / %d", tc.lb, shards, s, res.Net.Delivered, tc.nacks, tc.delivered)
			}
		}
	}
}

// BuildCluster is the one-shard case of the builder RunSpray cuts across
// shards: the permutation driven by hand on a BuildCluster cluster serializes
// to the same record as RunSpray at every shard count, for a switch-RNG arm
// and a sender-feedback arm.
func TestBuildClusterIsRunSprayAtOneShard(t *testing.T) {
	for _, lbm := range []LBMode{RandomSpray, REPS} {
		cfg := SprayConfig{ClusterConfig: ClusterConfig{Seed: 5, LB: lbm}, MessageBytes: 64 << 10}
		cfg.resolve()
		cl, err := BuildCluster(cfg.ClusterConfig)
		if err != nil {
			t.Fatal(err)
		}
		var cct sim.Time
		hosts := cl.Topo.NumHosts()
		for h := 0; h < hosts; h++ {
			cl.OpenFlow(packet.NodeID(h), packet.NodeID((h+hosts/2)%hosts)).Send(cfg.MessageBytes, func() { cct = cl.Engine.Now() })
		}
		cl.Run(cfg.Horizon)
		o := cl.Outcome(cct)
		o.Engine = sim.Metrics{EventsExecuted: o.Engine.EventsExecuted, EventsCancelled: o.Engine.EventsCancelled}
		want, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		if o.Sender.Completions != uint64(hosts) || o.Sender.NacksRx == 0 {
			t.Fatalf("%v: degenerate hand-driven run: %s", lbm, want)
		}
		for _, shards := range []int{1, 2, 4} {
			cfg.Shards = shards
			res, err := RunSpray(cfg)
			if err != nil {
				t.Fatalf("%v shards=%d: %v", lbm, shards, err)
			}
			if got, _ := json.Marshal(res.Outcome); !bytes.Equal(got, want) {
				t.Errorf("%v: RunSpray at %d shards\n %s\nBuildCluster driven by hand\n %s", lbm, shards, got, want)
			}
		}
	}
}

// The propagation pipe bounds a same-shard link to one pending event however
// many packets are on its wire, so on one shard — where no link crosses — the
// k=8 permutation's queue never gets deep. Exact, deterministic numbers (see
// PERF.md): the private spray wiring executed 538 432 events with a high-water
// of 7 518; the count moved to 539 524 in PR 24 with the host-hop delivery
// stamps (a handful of packets reorder, so a handful more NACKs) and then to
// 487 124 when idle control hops stopped paying for a serializer completion
// (fabric.outQueue.maybeStart; no packet moved).
func TestSprayQueueHighWater(t *testing.T) {
	res, err := RunSpray(SprayConfig{
		ClusterConfig: ClusterConfig{Seed: 1, FatTreeK: 8, LB: RandomSpray},
		Shards:        1,
		MessageBytes:  256 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MergedEngine.EventsExecuted != 487124 {
		t.Errorf("EventsExecuted = %d, want 487124 (the schedule itself moved)", res.MergedEngine.EventsExecuted)
	}
	if res.MergedEngine.HeapHighWater > 2000 {
		t.Errorf("HeapHighWater = %d, want <= 2000: in-flight packets are scheduled one by one again", res.MergedEngine.HeapHighWater)
	}
}

func TestSprayCompletes(t *testing.T) {
	res, err := RunSpray(SprayConfig{
		ClusterConfig: ClusterConfig{Seed: 1, FatTreeK: 4, LB: RandomSpray},
		Shards:        2,
		MessageBytes:  32 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	for h, at := range res.Complete {
		if at == 0 || at > res.CCT {
			t.Fatalf("host %d completion %v outside (0, CCT=%v]", h, at, res.CCT)
		}
	}
	if res.Net.DataDrops != 0 {
		t.Fatalf("lossless fabric dropped %d data packets", res.Net.DataDrops)
	}
}

// The paper's own arm is partition-invariant, metered: every Themis instance
// runs on its ToR's shard (engine as clock, pool for compensation NACKs) and
// the registry's instruments are per NIC and per ToR, so the outcome, the
// per-host completion times and the metrics snapshot are the same bytes at
// every shard count. NacksBlocked > 0 keeps Themis-D in the claim.
func TestThemisSprayShardInvariance(t *testing.T) {
	run := func(k, shards int) []byte {
		reg := obs.NewRegistry()
		res, err := RunSpray(SprayConfig{
			ClusterConfig: ClusterConfig{Seed: 7, FatTreeK: k, LB: Themis, Metrics: reg},
			Shards:        shards,
			MessageBytes:  128 << 10,
		})
		if err != nil {
			t.Fatalf("k=%d shards=%d: %v", k, shards, err)
		}
		if res.Middleware.NacksBlocked == 0 {
			t.Fatalf("k=%d shards=%d: no NACK blocked; Themis-D is not exercised", k, shards)
		}
		b, err := json.Marshal(struct {
			Outcome
			Complete []sim.Time
			Metrics  *obs.Snapshot
		}{res.Outcome, res.Complete, reg.Snapshot()})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, k := range []int{4, 8} {
		ref := run(k, 1)
		for _, shards := range []int{2, 4} {
			if got := run(k, shards); !bytes.Equal(got, ref) {
				t.Errorf("k=%d shards=%d differs from one shard:\n got  %s\n want %s", k, shards, got, ref)
			}
		}
	}
}

// BenchmarkShardScaling measures the space-parallel engine on a K=8 fat-tree
// permutation (128 hosts, 80 switches) at 1, 2 and 4 shards, under random
// spraying and under the paper's arm. Wall-clock speedup requires free CPUs;
// on a single-CPU host this primarily measures coordination overhead (see
// PERF.md for recorded numbers).
func BenchmarkShardScaling(b *testing.B) {
	for _, lbm := range []LBMode{RandomSpray, Themis} {
		for _, shards := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%v/shards=%d", lbm, shards), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := RunSpray(SprayConfig{
						ClusterConfig: ClusterConfig{Seed: 11, FatTreeK: 8, LB: lbm},
						Shards:        shards,
						MessageBytes:  128 << 10,
					})
					if err != nil {
						b.Fatal(err)
					}
					if res.CCT == 0 {
						b.Fatal("empty run")
					}
				}
			})
		}
	}
}

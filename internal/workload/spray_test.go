package workload

import (
	"testing"

	"themis/internal/sim"
)

// normalizeEngine strips the allocator counters that legitimately vary with
// partitioning: free-list locality (allocs/reuses) and per-shard queue depth
// are properties of how the event set is cut across engines, not of the
// simulated system. EventsExecuted and EventsCancelled ARE part of the
// contract and stay.
func normalizeEngine(m sim.Metrics) sim.Metrics {
	m.EventAllocs, m.EventReuses, m.HeapHighWater = 0, 0, 0
	return m
}

// The spray determinism contract: the entire result — completion times,
// counters, executed-event totals — is identical for every shard count.
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
			if normalizeEngine(got.Engine) != normalizeEngine(ref.Engine) {
				t.Fatalf("%v shards=%d: engine metrics %+v, want %+v", lbm, shards, got.Engine, ref.Engine)
			}
		}
	}
}

func TestSprayCompletes(t *testing.T) {
	res, err := RunSpray(SprayConfig{
		ClusterConfig: ClusterConfig{Seed: 1, FatTreeK: 4, LB: RandomSpray, Shards: 2},
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

func TestSprayRejectsThemisLB(t *testing.T) {
	if _, err := RunSpray(SprayConfig{ClusterConfig: ClusterConfig{Seed: 1, LB: Themis}}); err == nil {
		t.Fatal("Themis LB accepted on the sharded spray path")
	}
}

// BenchmarkShardScaling measures the space-parallel engine on a K=8 fat-tree
// permutation (128 hosts, 80 switches) at 1 vs 4 shards. Wall-clock speedup
// requires free CPUs; on a single-CPU host this primarily measures
// coordination overhead (see PERF.md for recorded numbers).
func BenchmarkShardScaling(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "shards=1", 2: "shards=2", 4: "shards=4"}[shards], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := RunSpray(SprayConfig{
					ClusterConfig: ClusterConfig{Seed: 11, FatTreeK: 8, LB: RandomSpray, Shards: shards},
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

package fabric_test

import (
	"testing"

	"themis/internal/collective"
	"themis/internal/fabric"
	"themis/internal/sim"
	"themis/internal/workload"
)

// TestHostLinkHoldsRecords pins what send records save on a tier-1-sized Fig. 5
// Alltoall cell (4 leaves × 4 spines × 4 hosts at 100 Gbps, four 1 MB groups,
// Themis, seed 5, one shard), as exact counts rather than a clock: the pool's
// fresh packet allocations, and the most entries one host link's data class
// held waiting — packets with records off (the eager model, and the parent's
// behaviour), records with them on. The simulation itself is the same either
// way: equal completion time and event count.
//
// Measured at the change that introduced records (parent → change):
// pool allocations 6 885 → 1 103; host-link peak 364 packets → 37 records.
func TestHostLinkHoldsRecords(t *testing.T) {
	type cell struct {
		allocs uint64
		peak   int
		cct    sim.Time
		events uint64
	}
	run := func(keep bool) cell {
		cfg := workload.ClusterConfig{Seed: 5, Leaves: 4, Spines: 4, HostsPerLeaf: 4, Bandwidth: 100e9, LB: workload.Themis, Shards: 1}
		cl, err := workload.BuildCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if keep {
			fabric.KeepHostPackets(cl.Net)
		}
		done := 0
		for g := range cfg.HostsPerLeaf {
			hosts := workload.GroupHosts(cfg.Leaves, cfg.HostsPerLeaf, g)
			collective.Run(collective.AllToAll, cl.Mesh(hosts), len(hosts), 1<<20, func() { done++ })
		}
		end := cl.Run(sim.Second)
		if done != cfg.HostsPerLeaf {
			t.Fatalf("%d of %d groups completed", done, cfg.HostsPerLeaf)
		}
		allocs, _, _ := cl.Net.ShardPool(0).Stats()
		return cell{allocs: allocs, peak: fabric.HostQueuePeak(cl.Net), cct: end, events: cl.Engine.Executed()}
	}
	packets, records := run(true), run(false)
	if records.cct != packets.cct || records.events != packets.events {
		t.Fatalf("records moved the run: end %v, %d events; want %v, %d", records.cct, records.events, packets.cct, packets.events)
	}
	if want := (cell{allocs: 6885, peak: 364}); packets.allocs != want.allocs || packets.peak != want.peak {
		t.Errorf("packets: %d pool allocations, host-link peak %d; want %d, %d", packets.allocs, packets.peak, want.allocs, want.peak)
	}
	if want := (cell{allocs: 1103, peak: 37}); records.allocs != want.allocs || records.peak != want.peak {
		t.Errorf("records: %d pool allocations, host-link peak %d; want %d, %d", records.allocs, records.peak, want.allocs, want.peak)
	}
}

package fabric

import (
	"fmt"

	"themis/internal/packet"
	"themis/internal/route"
	"themis/internal/sim"
	"themis/internal/topo"
)

// This file is the partitioned entry to the one wiring (wire, fabric.go): every
// switch and host uplink is owned by exactly one shard (engine, counter block,
// packet pool) and switch-to-switch link egress crossing a shard boundary goes
// through the group's epoch mailboxes instead of the propagation pipe.
//
// Global mutable state that cannot be partitioned is rejected where it would
// really be shared: a tracer, a loss-injection hook, the distributed routing
// plane and a caller's packet pool couple shards through shared memory, so
// NewShardedNetwork refuses them when — and only when — the partition has
// more than one shard. (A metrics registry is not such state: it is written
// at build time and read after the run, see obs.Registry.) Runtime link state
// changes panic on the same condition (mustBeOneShard).

// streamKeySwitch is the sim.StreamSeed key namespace for per-switch RNG
// streams (see swInst.Rand).
func streamKeySwitch(swID int) uint64 { return 0xFA<<56 | uint64(swID) }

// NewShardedNetwork builds a dataplane partitioned across the engines of a
// sim.ShardGroup. seed is the trial seed per-switch RNG streams derive from
// (sim.StreamSeed). The partition must be rack-granular (every host in its
// ToR's shard, see topo.PartitionRacks) and the group's lookahead must be a
// lower bound on cross-shard link delays (topo.Lookahead). Each shard gets
// its own packet pool (ShardPool); on one shard cfg.Pool, if set, is that pool.
func NewShardedNetwork(group *sim.ShardGroup, t *topo.Topology, part topo.Partition, seed int64, cfg Config) (*Network, error) {
	if part.Shards != group.Shards() {
		return nil, fmt.Errorf("fabric: partition has %d shards, group has %d", part.Shards, group.Shards())
	}
	if len(part.SwitchShard) != t.NumSwitches() || len(part.HostShard) != t.NumHosts() {
		return nil, fmt.Errorf("fabric: partition shape does not match topology")
	}
	if part.Shards > 1 {
		switch {
		case cfg.Tracer != nil:
			return nil, fmt.Errorf("fabric: tracing is not supported on a network partitioned across shards (the trace ring is global mutable state)")
		case cfg.LossFunc != nil:
			return nil, fmt.Errorf("fabric: LossFunc is not supported on a network partitioned across shards (a shared hook couples shards)")
		case cfg.Routing.Mode == route.Distributed:
			return nil, fmt.Errorf("fabric: distributed routing is not supported on a network partitioned across shards (the plane is a global subsystem)")
		case cfg.Pool != nil:
			return nil, fmt.Errorf("fabric: Config.Pool must be nil on a network partitioned across shards; pools are per shard (ShardPool)")
		}
	}
	for h := 0; h < t.NumHosts(); h++ {
		if part.HostShard[h] != part.SwitchShard[t.ToROf(packet.NodeID(h))] {
			return nil, fmt.Errorf("fabric: host %d is not in its ToR's shard; the partition must be rack-granular", h)
		}
	}

	pools := make([]*packet.Pool, part.Shards)
	for i := range pools {
		pools[i] = packet.NewPool()
	}
	if cfg.Pool != nil {
		pools[0] = cfg.Pool
	}
	return wire(group, t, part, pools, seed, cfg), nil
}

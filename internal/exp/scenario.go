// Package exp is the unified experiment harness: a declarative Scenario
// describes one trial (topology family, transport arm, LB mode, workload,
// faults, duration, seed), Run executes it on private sim engines, and Runner
// executes a grid of scenarios across a worker pool. Every trial owns its own
// engines, packet pools and RNGs, so trials are embarrassingly parallel and
// bit-identical for a given seed regardless of worker or shard count.
//
// Results aggregate through internal/stats and serialize to BENCH_<name>.json
// artifacts (see report.go). Scenario and Trial are fixed-field structs — no
// maps — so the serialized form is byte-identical across runs and across
// parallelism levels, which the determinism regression test relies on.
package exp

import (
	"fmt"

	"themis/internal/collective"
	"themis/internal/core"
	"themis/internal/rnic"
	"themis/internal/sim"
	"themis/internal/workload"
)

// ThemisKnobs is the serializable subset of core.Config — the middleware
// ablation switches a scenario can flip. Runtime-only fields (tracer, clock,
// pool) are wired by the harness.
type ThemisKnobs struct {
	QueueFactor         float64 `json:"queue_factor,omitempty"`
	PathSubset          int     `json:"path_subset,omitempty"`
	DisableBlocking     bool    `json:"disable_blocking,omitempty"`
	DisableCompensation bool    `json:"disable_compensation,omitempty"`
	FallbackOnFailure   bool    `json:"fallback_on_failure,omitempty"`
	Relearn             bool    `json:"relearn,omitempty"`
	// TableBudgetBytes bounds each instance's flow table to the §4 SRAM
	// budget (0 = unbounded); IdleTimeout enables idle-entry eviction.
	TableBudgetBytes int          `json:"table_budget_bytes,omitempty"`
	IdleTimeout      sim.Duration `json:"idle_timeout,omitempty"`
}

func (k ThemisKnobs) coreConfig() core.Config {
	return core.Config{
		QueueFactor:         k.QueueFactor,
		PathSubset:          k.PathSubset,
		DisableBlocking:     k.DisableBlocking,
		DisableCompensation: k.DisableCompensation,
		FallbackOnFailure:   k.FallbackOnFailure,
		Relearn:             k.Relearn,
		TableBudgetBytes:    k.TableBudgetBytes,
		IdleTimeout:         k.IdleTimeout,
	}
}

// Scenario declaratively describes one trial. The zero value of every field
// means "workload default" (the same defaults the workload runners apply), so
// a scenario only states what it varies. Durations serialize as nanoseconds.
type Scenario struct {
	// Name uniquely labels the scenario within a grid; Label() derives one
	// when empty.
	Name     string   `json:"name,omitempty"`
	Workload Workload `json:"workload"`
	Seed     int64    `json:"seed"`

	// Shards is an execution knob, not an experiment arm: it selects how many
	// space-parallel engine shards a Collective or Spray trial is cut across
	// (workload.ClusterConfig.Shards). 0 means the cores the trial has to
	// itself — GOMAXPROCS for Run, GOMAXPROCS/Parallel for a Runner worker —
	// or one when the cluster holds what shards cannot share
	// (workload.ClusterConfig.ShardRefusal), which an explicit count above one
	// makes an error. The other workloads run on one engine and ignore it:
	// churn because its closed loop is global, the rest by choice. Results
	// are byte-identical for every value — the shard determinism regression
	// enforces it — so like Runner.Parallel it is excluded from the
	// serialized scenario and the BENCH artifacts.
	Shards int `json:"-"`

	// Experiment arms.
	LB workload.LBMode `json:"lb,omitempty"`
	// LBArmed marks LB as an explicit chaos-workload arm: chaos scenarios
	// historically always ran the harness default (Themis), so the arm must
	// be opt-in to keep their serialized form and results unchanged.
	// Convergence scenarios always arm LB; other workloads ignore this.
	LBArmed bool `json:"lb_armed,omitempty"`
	// RepsCache (LB == REPS) and PathBuckets (LB == CongestionAware) are the
	// spraying-arm knobs; zero takes the workload defaults.
	RepsCache   int `json:"reps_cache,omitempty"`
	PathBuckets int `json:"path_buckets,omitempty"`

	Transport rnic.Transport     `json:"transport,omitempty"`
	Pattern   collective.Pattern `json:"pattern,omitempty"` // collective only
	TI        sim.Duration       `json:"ti,omitempty"`      // DCQCN sweep knobs
	TD        sim.Duration       `json:"td,omitempty"`

	// Topology family (leaf-spine; ignored by Motivation, which pins the
	// paper's 4×4×2 fabric).
	Leaves       int          `json:"leaves,omitempty"`
	Spines       int          `json:"spines,omitempty"`
	HostsPerLeaf int          `json:"hosts_per_leaf,omitempty"`
	FatTreeK     int          `json:"fat_tree_k,omitempty"` // spray only
	Bandwidth    int64        `json:"bandwidth,omitempty"`
	LinkDelay    sim.Duration `json:"link_delay,omitempty"`

	// Workload shape.
	MessageBytes int64 `json:"message_bytes,omitempty"`
	Groups       int   `json:"groups,omitempty"`      // collective
	Senders      int   `json:"senders,omitempty"`     // incast fan-in
	Flows        int   `json:"flows,omitempty"`       // chaos ring flows
	QPs          int   `json:"qps,omitempty"`         // churn: total flows opened
	Concurrency  int   `json:"concurrency,omitempty"` // churn: flows open at once
	Faults       bool  `json:"faults,omitempty"`      // churn: seeded reboots + link flap

	// Mechanics.
	BurstBytes   int          `json:"burst_bytes,omitempty"`
	BufferBytes  int          `json:"buffer_bytes,omitempty"`
	Horizon      sim.Duration `json:"horizon,omitempty"`
	DisablePFC   bool         `json:"disable_pfc,omitempty"`
	LossyControl bool         `json:"lossy_control,omitempty"`
	RTO          sim.Duration `json:"rto,omitempty"`
	RTOBackoff   float64      `json:"rto_backoff,omitempty"`
	RTOMax       sim.Duration `json:"rto_max,omitempty"`

	// Routing plane. DistributedRouting replaces the instant global oracle
	// with the per-switch BGP-style control plane (see internal/route) and
	// its per-hop message delay. Drain appends a maintenance drain to a
	// convergence scenario's fault schedule.
	DistributedRouting bool         `json:"distributed_routing,omitempty"`
	ConvergenceDelay   sim.Duration `json:"convergence_delay,omitempty"`
	Drain              bool         `json:"drain,omitempty"`

	// Middleware ablation knobs.
	Themis ThemisKnobs `json:"themis,omitempty"`

	// Declarative faults. DropEveryNData is a rule of the cluster's composed
	// loss hook and holds on every workload, beside whatever schedule a chaos,
	// convergence or churn trial generates from its seed; LinkFail is a
	// collective's fault schedule (§5.3's link failure is one LinkFlap), as
	// Faults above is churn-only. Both keep a trial on one shard (see Shards).
	DropEveryNData int              `json:"drop_every_n_data,omitempty"`
	LinkFail       []workload.Fault `json:"link_fail,omitempty"`
}

// Label returns Name, or a derived "workload/arm/seed" identifier whose arm
// segment comes from the workload's table row.
func (s Scenario) Label() string {
	if s.Name != "" {
		return s.Name
	}
	label := string(s.Workload)
	if row, err := s.Workload.row(); err == nil && row.arm != nil {
		label += "/" + row.arm(s)
	}
	return fmt.Sprintf("%s/seed%d", label, s.Seed)
}

// cluster is the one lowering of a scenario's fabric, LB, NIC, CC and routing
// knobs, shared by every workload: a field listed here reaches BuildCluster
// unless the workload's runner pins it (see each runner's resolve, and
// chaos.BuildCluster). TestScenarioLoweringTotal fails for a Scenario field
// that is neither lowered here nor a workload-shape field.
func (s Scenario) cluster() workload.ClusterConfig {
	return workload.ClusterConfig{
		Seed:               s.Seed,
		Shards:             s.Shards,
		Leaves:             s.Leaves,
		Spines:             s.Spines,
		HostsPerLeaf:       s.HostsPerLeaf,
		FatTreeK:           s.FatTreeK,
		Bandwidth:          s.Bandwidth,
		LinkDelay:          s.LinkDelay,
		BufferBytes:        s.BufferBytes,
		DisablePFC:         s.DisablePFC,
		LB:                 s.LB,
		RepsCache:          s.RepsCache,
		PathBuckets:        s.PathBuckets,
		Transport:          s.Transport,
		TI:                 s.TI,
		TD:                 s.TD,
		BurstBytes:         s.BurstBytes,
		RTO:                s.RTO,
		RTOBackoff:         s.RTOBackoff,
		RTOMax:             s.RTOMax,
		LossyControl:       s.LossyControl,
		DistributedRouting: s.DistributedRouting,
		ConvergenceDelay:   s.ConvergenceDelay,
		DropEveryNData:     s.DropEveryNData,
		ThemisCfg:          s.Themis.coreConfig(),
	}
}

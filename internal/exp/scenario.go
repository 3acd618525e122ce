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
	"errors"
	"fmt"

	"themis/internal/collective"
	"themis/internal/core"
	"themis/internal/sim"
	"themis/internal/workload"
)

// ThemisKnobs is the type of a scenario's Themis block, core.Config itself
// (its ablation knobs carry the JSON tags); the name stays because
// benchmark/seam.go compares a block against ThemisKnobs{}.
type ThemisKnobs = core.Config

// Scenario declaratively describes one trial: the cluster it runs on —
// workload.ClusterConfig, embedded, so every fabric, LB, NIC, CC, routing and
// middleware knob and its JSON key are declared once, there — and the
// workload's shape. The zero value of every field means "workload default"
// (the same defaults the workload runners apply), so a scenario only states
// what it varies; a runner may still pin a cluster knob (see each runner's
// resolve, and chaos.BuildCluster). Durations serialize as picoseconds. The
// cluster's runtime hooks are not the scenario's: Shards is an execution knob
// (exp.run adds the trial's Cores), and a trial is traced and metered through
// Obs.
type Scenario struct {
	// Name uniquely labels the scenario within a grid; Label() derives one
	// when empty.
	Name     string   `json:"name,omitempty"`
	Workload Workload `json:"workload"`

	workload.ClusterConfig

	// LBArmed marks LB as an explicit chaos-workload arm: chaos scenarios
	// historically always ran the harness default (Themis), so the arm must
	// be opt-in to keep their serialized form and results unchanged.
	// Convergence scenarios always arm LB, and a motivation scenario's label
	// names an armed LB; other workloads ignore this.
	LBArmed bool               `json:"lb_armed,omitempty"`
	Pattern collective.Pattern `json:"pattern,omitempty"` // collective only

	// Workload shape.
	MessageBytes int64        `json:"message_bytes,omitempty"`
	Groups       int          `json:"groups,omitempty"`      // collective
	Senders      int          `json:"senders,omitempty"`     // incast fan-in
	Flows        int          `json:"flows,omitempty"`       // chaos ring flows
	QPs          int          `json:"qps,omitempty"`         // churn: total flows opened
	Concurrency  int          `json:"concurrency,omitempty"` // churn: flows open at once
	Faults       bool         `json:"faults,omitempty"`      // churn: seeded reboots + link flap
	Horizon      sim.Duration `json:"horizon,omitempty"`

	// Drain appends a maintenance drain to a convergence scenario's fault
	// schedule.
	Drain bool `json:"drain,omitempty"`

	// LinkFail is a collective's fault schedule (§5.3's link failure is one
	// LinkFlap), as Faults above is churn-only. It keeps a trial on one shard
	// (see workload.ClusterConfig.Shards), as DropEveryNData does.
	LinkFail []workload.Fault `json:"link_fail,omitempty"`
}

// Validate rejects a scenario no trial runs, naming the field: an unknown
// Workload, the cluster's own checks (workload.ClusterConfig.Validate), a
// negative shape field, an unknown Pattern, or a Tracer or Metrics registry
// set on the scenario, which exp.run wires from Obs. run calls it before
// anything is built.
func (s Scenario) Validate() error {
	if _, err := s.Workload.row(); err != nil {
		return err
	}
	if s.Tracer != nil || s.Metrics != nil {
		return errors.New("exp: a scenario's Tracer and Metrics are the harness's; pass them through exp.Obs")
	}
	if err := s.ClusterConfig.Validate(); err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"MessageBytes", s.MessageBytes}, {"Groups", int64(s.Groups)}, {"Senders", int64(s.Senders)},
		{"Flows", int64(s.Flows)}, {"QPs", int64(s.QPs)}, {"Concurrency", int64(s.Concurrency)},
		{"Horizon", int64(s.Horizon)},
	} {
		if f.v < 0 {
			return fmt.Errorf("exp: %s=%d is negative", f.name, f.v)
		}
	}
	if _, err := collective.ParsePattern(s.Pattern.String()); err != nil {
		return fmt.Errorf("exp: Pattern: %w", err)
	}
	return nil
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

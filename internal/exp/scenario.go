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

	"themis/internal/core"
	"themis/internal/workload"
)

// ThemisKnobs is the type of a scenario's Themis block, core.Config itself
// (its ablation knobs carry the JSON tags); the name stays because
// benchmark/seam.go compares a block against ThemisKnobs{}.
type ThemisKnobs = core.Config

// Scenario declaratively describes one trial: the cluster it runs on —
// workload.ClusterConfig, embedded, so every fabric, LB, NIC, CC, routing and
// middleware knob and its JSON key are declared once, there — and the
// workload's shape, workload.Shape, embedded likewise. The zero value of every
// field means "workload default" (the same defaults the workload runners
// apply), so a scenario only states what it varies; a runner may still pin a
// cluster knob (see each runner's resolve, and chaos.BuildCluster). Durations
// serialize as picoseconds. The cluster's runtime hooks are not the
// scenario's: Shards is an execution knob (exp.run adds the trial's Cores),
// and a trial is traced and metered through Obs.
type Scenario struct {
	// Name uniquely labels the scenario within a grid; Label() derives one
	// when empty.
	Name     string   `json:"name,omitempty"`
	Workload Workload `json:"workload"`

	workload.ClusterConfig
	workload.Shape
}

// Validate rejects a scenario no trial runs, naming the field: an unknown
// Workload, a Tracer or Metrics registry set on the scenario, which exp.run
// wires from Obs, a Shape field the workload does not read, and what
// workload.ClusterConfig.Validate and workload.Shape.Validate reject. run
// calls it before anything is built.
func (s Scenario) Validate() error {
	row, err := s.Workload.row()
	if err != nil {
		return err
	}
	if s.Tracer != nil || s.Metrics != nil {
		return errors.New("exp: a scenario's Tracer and Metrics are the harness's; pass them through exp.Obs")
	}
	if err := s.ClusterConfig.Validate(); err != nil {
		return err
	}
	if err := row.unread(s.Shape); err != nil {
		return err
	}
	return s.Shape.Validate()
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

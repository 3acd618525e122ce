package workload

import (
	"fmt"
	"reflect"

	"themis/internal/collective"
	"themis/internal/sim"
)

// Shape is the one declaration of a workload's shape knobs, and its JSON tags
// are their wire format: exp.Scenario embeds it after its ClusterConfig. The
// zero value of every field means the runner's default (see each runner's
// resolve). A runner reads only what its workload uses, and exp.Scenario's
// Validate rejects a scenario that sets any other field.
type Shape struct {
	// LBArmed marks ClusterConfig.LB as an explicit chaos-harness arm: chaos
	// runs the harness default (Themis) unless it is set, because ECMP is the
	// LBMode zero value. Convergence always arms LB, and a motivation
	// scenario's label names an armed LB; other workloads do not read it.
	LBArmed bool               `json:"lb_armed,omitempty"`
	Pattern collective.Pattern `json:"pattern,omitempty"` // collective only

	MessageBytes int64        `json:"message_bytes,omitempty"`
	Groups       int          `json:"groups,omitempty"`      // collective
	Senders      int          `json:"senders,omitempty"`     // incast fan-in
	Flows        int          `json:"flows,omitempty"`       // chaos ring flows
	QPs          int          `json:"qps,omitempty"`         // churn: total flows opened
	Concurrency  int          `json:"concurrency,omitempty"` // churn: flows open at once
	Faults       bool         `json:"faults,omitempty"`      // churn: seeded reboots + link flap
	Horizon      sim.Duration `json:"horizon,omitempty"`     // simulation cap

	// Drain appends a maintenance drain to a convergence scenario's fault
	// schedule.
	Drain bool `json:"drain,omitempty"`

	// LinkFail is a collective's fault schedule (§5.3's link failure is one
	// LinkFlap), as Faults above is churn's. It keeps a trial on one shard
	// (see ClusterConfig.Shards), as DropEveryNData does.
	LinkFail []Fault `json:"link_fail,omitempty"`
}

// Config is what every runner takes: the cluster it builds and the shape of
// the work it drives there.
type Config struct {
	ClusterConfig
	Shape
}

// shapeCounts is every numeric field of Shape but Pattern, an enum Validate
// parses: a count added later is validated without being listed.
var shapeCounts = numericFields(reflect.TypeOf(Shape{}), "", nil)

// Validate rejects a shape no runner drives, naming the field: a negative
// count or duration, or an unknown Pattern.
func (s Shape) Validate() error {
	if err := nonNegative(reflect.ValueOf(&s).Elem(), shapeCounts); err != nil {
		return err
	}
	if _, err := collective.ParsePattern(s.Pattern.String()); err != nil {
		return fmt.Errorf("workload: Pattern: %w", err)
	}
	return nil
}

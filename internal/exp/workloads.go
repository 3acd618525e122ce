package exp

import (
	"fmt"
	"reflect"
	"slices"
	"strings"

	"themis/internal/chaos"
	"themis/internal/sim"
	"themis/internal/topo"
	"themis/internal/workload"
)

// Workload names the experiment family a scenario runs.
type Workload string

const (
	// Motivation is the §2.2 Fig. 1 study: two 4-node ring groups spraying
	// over a fixed 4×4×2 leaf-spine at 100 Gbps. Topology fields are ignored.
	Motivation Workload = "motivation"
	// Collective is the §5 Fig. 5 evaluation: synchronized collective groups
	// spanning all racks of a leaf-spine.
	Collective Workload = "collective"
	// Incast is the many-to-one stress test (Senders flows into host 0).
	Incast Workload = "incast"
	// Chaos is a fault-injection soak run: the fault schedule is generated
	// from the seed (see internal/chaos), and invariants are checked.
	Chaos Workload = "chaos"
	// Churn is the flow-lifecycle stress: a stream of short-lived cross-rack
	// QPs (QPs total, Concurrency at a time) against a bounded flow table,
	// with lifecycle invariants checked (see workload.RunChurn).
	Churn Workload = "churn"
	// Convergence is the routing-focused soak: the fault schedule comes from
	// chaos.GenerateConvergence (flap storms, pod-uplink loss, maintenance
	// drains) and the cluster runs the distributed per-switch control plane
	// with a per-hop message delay, so forwarding during the windows uses
	// honestly stale FIBs. Invariants (including FIB convergence and zero
	// steady-state loop drops) are checked.
	Convergence Workload = "convergence"
	// Spray is the space-parallel fat-tree permutation (workload.RunSpray):
	// with Collective, the workloads whose trials run on several shards. Uses
	// FatTreeK instead of the leaf-spine fields.
	Spray Workload = "spray"
)

// workloadRow is one row of the workload table: everything the harness needs
// to know about a workload beyond its runner.
type workloadRow struct {
	name Workload
	// arm, if non-nil, renders the arm segment of a derived label
	// ("name/arm/seedN"; "name/seedN" without one).
	arm func(Scenario) string
	// reads names the workload.Shape fields the runner (or arm) reads;
	// Scenario.Validate rejects any other that is set.
	reads []string
	// run calls the runner on the scenario's cluster and shape — with the
	// observability hooks and the trial's Cores attached — and returns the
	// record it filled.
	run func(workload.Config) (workload.Outcome, error)
}

// workloads is the workload table, behind Scenario.Label, run, ParseWorkload
// and WorkloadNames. Adding a workload is its runner file, one constant above
// and one row here.
var workloads = []workloadRow{
	{Motivation, func(s Scenario) string {
		if s.LBArmed {
			return fmt.Sprintf("%v/%v", s.Transport, s.LB)
		}
		return s.Transport.String()
	}, []string{"LBArmed", "MessageBytes", "Horizon"},
		func(c workload.Config) (workload.Outcome, error) {
			res, err := workload.RunMotivation(c)
			return res.Outcome, err
		}},
	{Collective, func(s Scenario) string { return fmt.Sprintf("%v/%v/ti%v-td%v", s.Pattern, s.LB, s.TI, s.TD) },
		[]string{"Pattern", "MessageBytes", "Groups", "Horizon", "LinkFail"},
		func(c workload.Config) (workload.Outcome, error) {
			res, err := workload.RunCollective(c)
			return res.Outcome, err
		}},
	{Incast, lbArm, []string{"MessageBytes", "Senders", "Horizon"}, workload.RunIncast},
	{Chaos, nil, []string{"LBArmed", "MessageBytes", "Flows", "Horizon"},
		func(c workload.Config) (workload.Outcome, error) {
			return chaos.RunGenerated(c.Seed, chaos.Generate, chaos.Options(c))
		}},
	{Churn, lbArm, []string{"MessageBytes", "QPs", "Concurrency", "Faults", "Horizon"},
		func(c workload.Config) (workload.Outcome, error) {
			res, err := workload.RunChurn(c)
			return res.Outcome, err
		}},
	// Convergence always arms LB, so an ECMP arm — the LBMode zero value —
	// is not silently replaced with the harness default.
	{Convergence, func(s Scenario) string {
		return fmt.Sprintf("%v/d%dus", s.LB, int64(s.ConvergenceDelay/sim.Microsecond))
	}, []string{"MessageBytes", "Flows", "Horizon", "Drain"},
		func(c workload.Config) (workload.Outcome, error) {
			c.LBArmed = true
			return chaos.RunGenerated(c.Seed, func(seed int64, tp *topo.Topology) chaos.Scenario {
				csc := chaos.GenerateConvergence(seed, tp)
				if c.Drain {
					csc.Faults = append(csc.Faults, chaos.DrainFault(tp))
				}
				return csc
			}, chaos.Options(c))
		}},
	{Spray, lbArm, []string{"MessageBytes", "Horizon"},
		func(c workload.Config) (workload.Outcome, error) {
			res, err := workload.RunSpray(c)
			return res.Outcome, err
		}},
}

func lbArm(s Scenario) string { return s.LB.String() }

// unread names the first field of sh that is set but not in the row's reads:
// a knob the trial would silently run without.
func (r *workloadRow) unread(sh workload.Shape) error {
	v := reflect.ValueOf(sh)
	for i := 0; i < v.NumField(); i++ {
		f, field := v.Field(i), v.Type().Field(i)
		if !f.IsZero() && !(f.Kind() == reflect.Slice && f.Len() == 0) && !slices.Contains(r.reads, field.Name) {
			return fmt.Errorf("exp: workload %s does not read %s (%q)", r.name, field.Name, strings.Split(field.Tag.Get("json"), ",")[0])
		}
	}
	return nil
}

// row looks the workload up in the table; an unknown name (e.g. a hand-edited
// scenario JSON) is an error, which run reports as Trial.Err.
func (w Workload) row() (*workloadRow, error) {
	for i := range workloads {
		if workloads[i].name == w {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("exp: unknown workload %q (valid: %s)", string(w), WorkloadNames())
}

// WorkloadNames returns the workload names joined by "|", for flag help and
// errors.
func WorkloadNames() string {
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = string(workloads[i].name)
	}
	return strings.Join(names, "|")
}

// ParseWorkload validates a workload name from the command line.
func ParseWorkload(s string) (Workload, error) {
	_, err := Workload(s).row()
	return Workload(s), err
}

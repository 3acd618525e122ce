package exp

import (
	"fmt"
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
	// run lowers the scenario's shape fields onto cc — the scenario's
	// ClusterConfig with the observability hooks and the trial's Cores
	// attached — calls the runner and returns the record it filled.
	run func(s Scenario, cc workload.ClusterConfig) (workload.Outcome, error)
}

// workloads is the workload table, behind Scenario.Label, run, ParseWorkload
// and WorkloadNames. Adding a workload is its runner file, one constant above
// and one row here (the shape lowering the row calls sits below the table).
var workloads = []workloadRow{
	{Motivation, func(s Scenario) string {
		if s.LBArmed {
			return fmt.Sprintf("%v/%v", s.Transport, s.LB)
		}
		return s.Transport.String()
	},
		func(s Scenario, cc workload.ClusterConfig) (workload.Outcome, error) {
			res, err := workload.RunMotivation(s.motivation(cc))
			return res.Outcome, err
		}},
	{Collective, func(s Scenario) string { return fmt.Sprintf("%v/%v/ti%v-td%v", s.Pattern, s.LB, s.TI, s.TD) },
		func(s Scenario, cc workload.ClusterConfig) (workload.Outcome, error) {
			res, err := workload.RunCollective(s.collective(cc))
			return res.Outcome, err
		}},
	{Incast, lbArm,
		func(s Scenario, cc workload.ClusterConfig) (workload.Outcome, error) {
			return workload.RunIncast(s.incast(cc))
		}},
	{Chaos, nil,
		func(s Scenario, cc workload.ClusterConfig) (workload.Outcome, error) {
			return chaos.RunGenerated(s.Seed, chaos.Generate, s.chaos(cc))
		}},
	{Churn, lbArm,
		func(s Scenario, cc workload.ClusterConfig) (workload.Outcome, error) {
			res, err := workload.RunChurn(s.churn(cc))
			return res.Outcome, err
		}},
	{Convergence, func(s Scenario) string {
		return fmt.Sprintf("%v/d%dus", s.LB, int64(s.ConvergenceDelay/sim.Microsecond))
	},
		func(s Scenario, cc workload.ClusterConfig) (workload.Outcome, error) {
			return chaos.RunGenerated(s.Seed, func(seed int64, tp *topo.Topology) chaos.Scenario {
				csc := chaos.GenerateConvergence(seed, tp)
				if s.Drain {
					csc.Faults = append(csc.Faults, chaos.DrainFault(tp))
				}
				return csc
			}, s.chaos(cc))
		}},
	{Spray, lbArm,
		func(s Scenario, cc workload.ClusterConfig) (workload.Outcome, error) {
			res, err := workload.RunSpray(s.spray(cc))
			return res.Outcome, err
		}},
}

func lbArm(s Scenario) string { return s.LB.String() }

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

// The shape lowerings add only the workload's shape fields to cc.

// collective also hands LinkFail to the runner as its fault schedule.
func (s Scenario) collective(cc workload.ClusterConfig) (workload.CollectiveConfig, []workload.Fault) {
	return workload.CollectiveConfig{
		ClusterConfig: cc,
		Pattern:       s.Pattern,
		MessageBytes:  s.MessageBytes,
		Groups:        s.Groups,
		Horizon:       s.Horizon,
	}, s.LinkFail
}

func (s Scenario) motivation(cc workload.ClusterConfig) workload.MotivationConfig {
	return workload.MotivationConfig{ClusterConfig: cc, MessageBytes: s.MessageBytes, Horizon: s.Horizon}
}

func (s Scenario) incast(cc workload.ClusterConfig) workload.IncastConfig {
	return workload.IncastConfig{
		ClusterConfig: cc,
		Senders:       s.Senders,
		MessageBytes:  s.MessageBytes,
		Horizon:       s.Horizon,
	}
}

func (s Scenario) churn(cc workload.ClusterConfig) workload.ChurnConfig {
	return workload.ChurnConfig{
		ClusterConfig: cc,
		QPs:           s.QPs,
		Concurrency:   s.Concurrency,
		MessageBytes:  s.MessageBytes,
		Faults:        s.Faults,
		Horizon:       s.Horizon,
	}
}

func (s Scenario) spray(cc workload.ClusterConfig) workload.SprayConfig {
	return workload.SprayConfig{ClusterConfig: cc, MessageBytes: s.MessageBytes, Horizon: s.Horizon}
}

// chaos lowers a chaos or convergence scenario to the chaos harness. The LB
// arm is opt-in for chaos (see Scenario.LBArmed) and always explicit for
// convergence, so an ECMP arm — the LBMode zero value — is not silently
// replaced with the harness default.
func (s Scenario) chaos(cc workload.ClusterConfig) chaos.Options {
	return chaos.Options{
		ClusterConfig: cc,
		Flows:         s.Flows,
		MessageBytes:  s.MessageBytes,
		Horizon:       s.Horizon,
		LBSet:         s.LBArmed || s.Workload == Convergence,
	}
}

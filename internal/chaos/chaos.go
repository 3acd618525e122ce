// Package chaos is the seeded fault-scenario harness of the Themis simulator.
// A Scenario — derived entirely from a seed — is a schedule of
// workload.Faults: link flaps with routing reconvergence, per-link random
// drop and corruption, control-plane (ACK/NACK/CNP) loss, ToR reboots that
// wipe the middleware's Fig. 4a state mid-flow, and black-holed ports that
// silently eat traffic until the monitoring plane notices. The vocabulary,
// the injector (Cluster.Inject) and the audit (Cluster.Audit) belong to
// workload.Cluster; this package keeps the generators, the hardened cluster
// and the ring-flow runner.
//
// The point of the package is the paper's §6 robustness story made
// executable: under every generated fault schedule the system must degrade
// gracefully — every message completes, no QP wedges, Themis never leaks
// ring state, and every compensation NACK corresponds to a previously
// blocked NACK. RunScenario wires a cluster, injects the scenario and audits
// those invariants; a violating seed reproduces the exact run.
package chaos

import (
	"fmt"
	"math/rand"

	"themis/internal/sim"
	"themis/internal/topo"
	"themis/internal/workload"
)

// Scenario is a seeded fault schedule. Everything about a run — the fault
// schedule, every probabilistic drop decision, and the workload — derives
// from Seed, so a scenario that violates an invariant replays exactly.
type Scenario struct {
	Seed   int64
	Faults []workload.Fault
}

// String renders the scenario for failure reports.
func (s Scenario) String() string {
	out := fmt.Sprintf("seed %d:", s.Seed)
	for _, f := range s.Faults {
		out += " [" + f.String() + "]"
	}
	return out
}

// Generate derives a scenario deterministically from seed for the given
// topology: one to three faults drawn over the fabric links and ToR
// switches, with injection times spread across the early life of the
// transfers so faults land mid-flow.
func Generate(seed int64, tp *topo.Topology) Scenario {
	rng := rand.New(rand.NewSource(seed))
	return generate(seed, rng, tp, 20, func() workload.FaultKind {
		return workload.FaultKind(rng.Intn(int(workload.Blackhole) + 1))
	})
}

// GenerateConvergence derives a routing-focused scenario deterministically
// from seed: one to three faults drawn from the full kind set with a bias
// toward the convergence stressors (flap storms, pod-uplink loss, drains)
// that only matter when the cluster runs the distributed control plane with
// a non-zero per-hop delay. The seed is XOR-folded so the same seed yields
// an unrelated schedule from Generate's.
func GenerateConvergence(seed int64, tp *topo.Topology) Scenario {
	rng := rand.New(rand.NewSource(seed ^ 0xc0e7))
	// Kind menu: the three routing stressors appear twice so roughly two
	// thirds of the draws exercise the convergence machinery; the remainder
	// mixes in the classic kinds so routing churn overlaps state loss and
	// control-plane loss.
	menu := []workload.FaultKind{
		workload.FlapStorm, workload.FlapStorm,
		workload.UplinkLoss, workload.UplinkLoss,
		workload.Drain, workload.Drain,
		workload.LinkFlap, workload.TorReboot, workload.CtrlLoss,
	}
	return generate(seed, rng, tp, 40, func() workload.FaultKind { return menu[rng.Intn(len(menu))] })
}

// generate draws one to three faults from rng: per fault the kind (kind's own
// draw), the injection time in [10, 160) us, a duration in [minDur, 200) us,
// then the target the kind needs — in that order, which the seeds' schedules
// depend on.
func generate(seed int64, rng *rand.Rand, tp *topo.Topology, minDur int, kind func() workload.FaultKind) Scenario {
	var links [][2]int // every (switch, port) fabric link endpoint
	for _, sw := range tp.Switches() {
		for _, pi := range sw.FabricPorts() {
			links = append(links, [2]int{sw.ID, pi})
		}
	}
	tors := tp.ToRs()
	sc := Scenario{Seed: seed}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		f := workload.Fault{
			Kind:     kind(),
			At:       sim.Duration(10+rng.Intn(150)) * sim.Microsecond,
			Duration: sim.Duration(minDur+rng.Intn(200-minDur)) * sim.Microsecond,
		}
		switch f.Kind {
		case workload.TorReboot, workload.UplinkLoss:
			f.Sw = tors[rng.Intn(len(tors))]
		case workload.CtrlLoss:
			f.Sw, f.Port = -1, -1
			f.Rate = 0.002 + 0.02*rng.Float64()
		default:
			l := links[rng.Intn(len(links))]
			f.Sw, f.Port = l[0], l[1]
			if f.Kind == workload.DropRate || f.Kind == workload.CorruptRate {
				f.Rate = 0.001 + 0.02*rng.Float64()
			}
		}
		sc.Faults = append(sc.Faults, f)
	}
	return sc
}

// DrainFault returns a deterministic maintenance drain of the first ToR's
// first uplink, placed late enough that transfers are in full flight. The
// CLI's -drain flag and the convergence grid's drain arm both append it.
func DrainFault(tp *topo.Topology) workload.Fault {
	sw := tp.ToRs()[0]
	return workload.Fault{
		Kind:     workload.Drain,
		At:       30 * sim.Microsecond,
		Duration: 80 * sim.Microsecond,
		Sw:       sw,
		Port:     tp.Switch(sw).FabricPorts()[0],
	}
}

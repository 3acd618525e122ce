package workload

import (
	"fmt"
	"math/rand"

	"themis/internal/packet"
	"themis/internal/sim"
	"themis/internal/topo"
)

// ChurnConfig parameterizes the flow-churn workload: a stream of short-lived
// cross-rack QPs (open → transfer → close) with far more QPs over the run —
// and optionally more concurrently — than a budgeted Themis flow table can
// hold. It is the workload the §4 lifecycle layer exists for: production
// clusters see millions of short-lived QPs, not a fixed set sized to SRAM.
type ChurnConfig struct {
	// ClusterConfig carries every fabric, LB, NIC and CC knob. Defaults: the
	// chaos harness's 3×3 leaf-spine, 2 hosts per leaf, 100 Gbps, and its
	// hardened RTO (200 us, ×2 backoff capped at 10 ms).
	ClusterConfig

	// Churn shape: QPs flows are opened over the run, Concurrency at a time;
	// each transfers MessageBytes then closes, and its slot opens the next
	// flow. Defaults: 120 QPs, 24 concurrent, 128 KB per flow.
	QPs          int
	Concurrency  int
	MessageBytes int64

	// Faults mixes seeded ToR reboots and a link flap into the churn (the
	// soak configuration): state loss, relearn and the §6 fallback all run
	// while flows are being opened and closed.
	Faults bool

	Horizon sim.Duration // wall guard (default 2 s virtual)
}

// resolve applies the churn defaults in place; the runner pins nothing.
func (c *ChurnConfig) resolve() {
	if c.Leaves == 0 {
		c.Leaves = 3
	}
	if c.Spines == 0 {
		c.Spines = 3
	}
	if c.HostsPerLeaf == 0 {
		c.HostsPerLeaf = 2
	}
	if c.Bandwidth == 0 {
		c.Bandwidth = 100e9
	}
	if c.QPs == 0 {
		c.QPs = 120
	}
	if c.Concurrency == 0 {
		c.Concurrency = 24
	}
	if c.Concurrency > c.QPs {
		c.Concurrency = c.QPs
	}
	if c.MessageBytes == 0 {
		c.MessageBytes = 128 << 10
	}
	if c.Horizon == 0 {
		c.Horizon = 2 * sim.Second
	}
	if c.RTO == 0 {
		c.RTO = 200 * sim.Microsecond
	}
	if c.RTOBackoff == 0 {
		c.RTOBackoff = 2
	}
	if c.RTOMax == 0 {
		c.RTOMax = 10 * sim.Millisecond
	}
}

// ChurnResult is the outcome of one churn run. Its Outcome holds the full
// record: CCTMillis (End), GoodputGbps (total goodput bytes × 8 / End), the
// peak table occupancy against the budget — TableBytesPeak <=
// TableBudgetBytes (budget > 0) is checked continuously and lands in
// Violations if ever broken — and all four counter blocks.
type ChurnResult struct {
	Outcome
	// End is the virtual time the last flow completed.
	End sim.Time
	// Opened and Completed count flows; they are equal on a clean run.
	Opened, Completed int
	// MeanFCT is the mean flow completion time (open to last ack).
	MeanFCT sim.Duration
}

// churnDriver holds the open-loop state: it keeps Concurrency flows in
// flight, each completion closing its QP and opening the next.
type churnDriver struct {
	cl  *Cluster
	cfg ChurnConfig
	rng *rand.Rand

	opened, completed int
	sumFCT            sim.Duration
	maxTable          int
	violations        []string
}

// sampleOccupancy records peak table occupancy and flags budget violations.
// It runs at every open/close event — the only points occupancy can grow.
func (d *churnDriver) sampleOccupancy() {
	b, budget := d.cl.MaxTableBytes()
	if b > d.maxTable {
		d.maxTable = b
	}
	if budget > 0 && b > budget {
		d.violations = append(d.violations,
			fmt.Sprintf("flow-table occupancy %d B exceeds budget %d B at %v", b, budget, d.cl.Engine.Now()))
	}
}

func (d *churnDriver) openNext() {
	if d.opened >= d.cfg.QPs {
		return
	}
	d.opened++
	nHosts := d.cl.Topo.NumHosts()
	src := packet.NodeID(d.rng.Intn(nHosts))
	dst := packet.NodeID(d.rng.Intn(nHosts))
	for d.cl.Topo.ToROf(dst) == d.cl.Topo.ToROf(src) {
		// Same-rack flows never touch Themis; churn wants cross-rack ones.
		dst = packet.NodeID(d.rng.Intn(nHosts))
	}
	cn := d.cl.OpenFlow(src, dst)
	start := d.cl.Engine.Now()
	d.sampleOccupancy()
	cn.Send(d.cfg.MessageBytes, func() {
		d.completed++
		d.sumFCT += d.cl.Engine.Now().Sub(start)
		d.cl.CloseFlow(cn)
		d.sampleOccupancy()
		if d.completed == d.cfg.QPs {
			d.cl.Engine.Stop()
			return
		}
		d.openNext()
	})
}

// churnFaults is the soak fault mix: two ToR reboots and one flap of a ToR
// uplink, drawn deterministically from the seed so a failing seed reproduces
// exactly. Times land in the early life of the run (the same 10–200 us window
// the chaos generator uses) so state loss and the §6 fallback overlap live
// churn.
func churnFaults(seed int64, tp *topo.Topology) []Fault {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	tors := tp.ToRs()
	var links [][2]int
	for _, sw := range tors {
		for _, pi := range tp.Switch(sw).FabricPorts() {
			links = append(links, [2]int{sw, pi})
		}
	}
	us := sim.Microsecond
	var faults []Fault
	for i := 0; i < 2; i++ {
		sw := tors[rng.Intn(len(tors))]
		faults = append(faults, Fault{Kind: TorReboot, Sw: sw, At: sim.Duration(10+rng.Intn(150)) * us})
	}
	l := links[rng.Intn(len(links))]
	down := sim.Duration(20+rng.Intn(100)) * us
	return append(faults, Fault{Kind: LinkFlap, Sw: l[0], Port: l[1], At: down, Duration: sim.Duration(30+rng.Intn(120)) * us})
}

// RunChurn executes one flow-churn trial and audits it: occupancy never
// exceeds the budget at any open/close point, and the drained cluster passes
// Cluster.Audit (every flow completes, blocked NACKs are exactly the
// middleware's deliberate verdicts, no armed compensation outlives the run,
// …).
func RunChurn(cfg ChurnConfig) (*ChurnResult, error) {
	cfg.resolve()
	cl, err := BuildCluster(cfg.ClusterConfig)
	if err != nil {
		return nil, err
	}
	if cfg.Faults {
		cl.Inject(churnFaults(cfg.Seed, cl.Topo))
	}

	d := &churnDriver{cl: cl, cfg: cfg, rng: cl.Engine.Rand()}
	for i := 0; i < cfg.Concurrency; i++ {
		d.openNext()
	}
	end := cl.Run(cfg.Horizon)
	cl.Engine.RunAll() // drain in-flight control traffic and timers

	res := &ChurnResult{Outcome: cl.Outcome(end), End: end, Opened: d.opened, Completed: d.completed}
	res.TableBytesPeak, res.TableBudgetBytes = d.maxTable, cl.Config.ThemisCfg.TableBudgetBytes
	if d.completed > 0 {
		res.MeanFCT = d.sumFCT / sim.Duration(d.completed)
	}
	if sec := end.Seconds(); sec > 0 {
		res.GoodputGbps = float64(res.Sender.GoodputBytes) * 8 / sec / 1e9
	}
	res.Violations = append(d.violations, cl.Audit(cfg.QPs-d.completed)...)
	return res, nil
}

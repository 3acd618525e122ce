package workload

import (
	"fmt"
	"slices"

	"themis/internal/packet"
	"themis/internal/sim"
)

// Transfer is one message of a workload's schedule: Bytes from Src to Dst,
// posted at t=0 on the pair's connection (Cluster.Conn, so transfers between
// one pair share a QP). Done, if non-nil, runs on Src's shard engine when the
// transfer completes.
type Transfer struct {
	Src, Dst packet.NodeID
	Bytes    int64
	Done     func()
}

// Completion is a driven run's record, read at its horizon: each unit of
// work's completion time (-1 if unfinished there), the time the run reached
// and the unfinished count Cluster.Audit takes.
type Completion struct {
	At         []sim.Time
	End        sim.Time
	Unfinished int
}

// Last returns the latest completion time: the CCT of a run that finished.
func (c Completion) Last() sim.Time { return maxTime(c.At) }

// Err names the first unit the horizon cut (nil if none): what names the
// workload, unit what a slot counts.
func (c Completion) Err(what, unit string) error {
	if i := slices.Index(c.At, -1); i >= 0 {
		return fmt.Errorf("workload: %s incomplete: %s %d unfinished at %v (%d of %d)", what, unit, i, c.End, c.Unfinished, len(c.At))
	}
	return nil
}

// driver is the one completion driver every runner ends through: one slot
// per unit of work, written once, from the engine of the host that owns the
// unit — so units on different shards share nothing and no global stop ends
// the run.
type driver struct {
	cl *Cluster
	at []sim.Time
}

// newDriver injects the fault schedule and opens n unfinished slots; the
// runner posts its work, then waits.
func (cl *Cluster) newDriver(faults []Fault, n int) driver {
	cl.Inject(faults)
	at := make([]sim.Time, n)
	for i := range at {
		at[i] = -1
	}
	return driver{cl, at}
}

// finish records unit i, owned by host h, as done now.
func (d driver) finish(i int, h packet.NodeID) { d.at[i] = d.cl.hostEngine(h).Now() }

// wait runs the cluster to the horizon and reads the slots there — work the
// drain finishes stays unfinished — then drains, so the counters and
// Cluster.Audit see a quiescent fabric. A Stop (churn's last completion, when
// the horizon cut its loop) halts one Run, not the drain.
func (d driver) wait(horizon sim.Duration) Completion {
	c := Completion{End: d.cl.Run(horizon), At: slices.Clone(d.at)}
	for _, t := range c.At {
		if t < 0 {
			c.Unfinished++
		}
	}
	d.cl.Run(sim.Duration(sim.Forever))
	for slices.ContainsFunc(d.cl.engines, func(e *sim.Engine) bool { return e.Pending() > 0 }) {
		d.cl.Run(sim.Duration(sim.Forever))
	}
	return c
}

// Drive runs a transfer schedule under a fault schedule: it injects faults,
// posts ts at t=0 into slots 0..len(ts)-1, then waits.
func (cl *Cluster) Drive(faults []Fault, ts []Transfer, horizon sim.Duration) Completion {
	d := cl.newDriver(faults, len(ts))
	for i, t := range ts {
		cl.Conn(t.Src, t.Dst).Send(t.Bytes, func() {
			d.finish(i, t.Src)
			if t.Done != nil {
				t.Done()
			}
		})
	}
	return d.wait(horizon)
}

func maxTime(ts []sim.Time) sim.Time {
	var m sim.Time
	for _, t := range ts {
		m = max(m, t)
	}
	return m
}

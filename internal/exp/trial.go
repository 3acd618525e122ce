package exp

import (
	"fmt"
	"runtime"

	"themis/internal/obs"
	"themis/internal/trace"
	"themis/internal/workload"
)

// Trial is the result record of one scenario run: the scenario echoed back
// (artifacts are self-describing) around the workload.Outcome its runner
// returned. Fixed fields only — the JSON form must be byte-identical across
// runs.
type Trial struct {
	Name     string   `json:"name"`
	Scenario Scenario `json:"scenario"`
	// Err is non-empty if the run failed (e.g. incomplete at the horizon);
	// metric fields are zero in that case.
	Err string `json:"err,omitempty"`

	// Outcome is the record the workload's runner returned — headline
	// metrics, the four counter blocks and the violations — flattened into
	// the trial's JSON at this position.
	workload.Outcome

	// Metrics is the trial's metrics-registry snapshot (RunObserved with
	// Obs.Metrics; nil otherwise).
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
	// FlightDump is the path of the flight-recorder dump written when an
	// armed trial failed, panicked or violated an invariant.
	FlightDump string `json:"flight_dump,omitempty"`
}

// Obs configures the observability harness of a trial (all fields optional;
// the zero value observes nothing and adds no cost).
type Obs struct {
	// Tracer, if non-nil, records the run's packet and middleware events.
	// Owned by the caller and shared by every trial of a grid, so a Runner
	// holding one runs its trials one at a time; FlightDir is per-trial.
	Tracer *trace.Tracer
	// Metrics creates a per-trial metrics registry; its snapshot lands in
	// Trial.Metrics.
	Metrics bool
	// FlightDir, if non-empty, arms a per-trial flight recorder: the run
	// records into a bounded ring and, when the trial errors, panics or
	// violates an invariant, the retained window is dumped to
	// <FlightDir>/flight-<label>.jsonl for `themis-sim inspect`. Ignored when
	// Tracer is set (the caller already owns the ring).
	FlightDir string
	// FlightCapacity sizes the flight ring (default obs.DefaultFlightCapacity).
	FlightCapacity int
}

// Run executes one scenario to completion on private engines and returns its
// trial record. Failures are reported in Trial.Err, never by panicking, so a
// grid run surfaces every bad cell at once. Every core is the trial's: a
// collective or spray scenario with Shards 0 is cut across GOMAXPROCS shards.
func Run(sc Scenario) Trial {
	return RunObserved(sc, Obs{})
}

// RunObserved is Run with the observability harness attached: an optional
// event tracer or per-trial flight recorder, and an optional per-trial
// metrics registry snapshotted into the result. A panicking workload is
// converted into Trial.Err (with a flight dump when armed) instead of taking
// the whole grid down.
func RunObserved(sc Scenario, o Obs) Trial {
	return runObserved(sc, o, runtime.GOMAXPROCS(0))
}

// runObserved is RunObserved for a trial given cores of the machine.
func runObserved(sc Scenario, o Obs, cores int) (t Trial) {
	// Identify the trial up front so a panic dump still carries its label.
	t = Trial{Name: sc.Label(), Scenario: sc}
	var flight *obs.FlightRecorder
	tr := o.Tracer
	if tr == nil && o.FlightDir != "" {
		flight = obs.NewFlightRecorder(o.FlightDir, o.FlightCapacity)
		tr = flight.Tracer()
	}
	var reg *obs.Registry
	if o.Metrics {
		reg = obs.NewRegistry()
	}
	dump := func(violations []string) {
		if flight == nil {
			return
		}
		path, err := flight.Dump(t.Name, sc.Seed, violations)
		if err != nil {
			t.Err += "; " + obs.DumpError(err)
			return
		}
		t.FlightDump = path
	}
	defer func() {
		if r := recover(); r != nil {
			t.Err = fmt.Sprintf("panic: %v", r)
			dump([]string{t.Err})
		}
	}()
	t = run(sc, tr, reg, cores)
	t.Metrics = reg.Snapshot()
	if t.Err != "" || len(t.Violations) > 0 {
		dump(t.Violations)
	}
	return t
}

// run validates the scenario and hands it to its row of the workload table
// with the observability hooks threaded through and a shard count of 0
// resolved: the cores the trial has to itself, or one when the cluster holds
// what shards cannot share (an explicit count meets the same list as the
// runner's error). The trial is the runner's Outcome, or Err.
func run(sc Scenario, tr *trace.Tracer, reg *obs.Registry, cores int) Trial {
	t := Trial{Name: sc.Label(), Scenario: sc}
	row, err := sc.Workload.row()
	if err == nil {
		err = sc.Validate()
	}
	if err == nil {
		cc := sc.ClusterConfig
		cc.Tracer, cc.Metrics = tr, reg
		if cc.Shards == 0 {
			cc.Shards = cores
			if cc.ShardRefusal(sc.LinkFail) != nil {
				cc.Shards = 1
			}
		}
		t.Outcome, err = row.run(sc, cc)
	}
	if err != nil {
		t.Err = err.Error()
	}
	return t
}

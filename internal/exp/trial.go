package exp

import (
	"bytes"
	"encoding/json"
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
	// FlightDump is the path of the one-shard replay dump written when a
	// trial run with Obs.FlightDir failed, panicked or violated an invariant.
	FlightDump string `json:"flight_dump,omitempty"`
}

// Obs configures the observability harness of a trial (all fields optional;
// the zero value observes nothing and adds no cost).
type Obs struct {
	// Tracer, if non-nil, records the run's packet and middleware events.
	// Owned by the caller and shared by every trial of a grid, so a Runner
	// holding one runs its trials one at a time, each on one shard (the ring
	// is state shards would share; see workload.ClusterConfig.ShardRefusal).
	Tracer *trace.Tracer
	// Metrics creates a per-trial metrics registry; its snapshot lands in
	// Trial.Metrics.
	Metrics bool
	// FlightDir, if non-empty, keeps the evidence of a failed trial. The
	// trial runs as Run runs it, at its shard count and with no ring; only
	// when it errors, panics or violates an invariant is its Scenario
	// replayed on one shard into a ring of obs.DefaultFlightCapacity events,
	// dumped to <FlightDir>/flight-<label>.jsonl for `themis-sim inspect`. A
	// replay whose result differs from the trial's is noted on Trial.Err.
	// Ignored when Tracer is set (the caller already owns the ring).
	FlightDir string
}

// Run executes one scenario to completion on private engines and returns its
// trial record. Failures are reported in Trial.Err, never by panicking, so a
// grid run surfaces every bad cell at once. Every core is the trial's: a
// collective or spray scenario with Shards 0 is cut one shard per rack (on
// one engine below 32 hosts, see workload.ClusterConfig.Shards), and its
// shards run on GOMAXPROCS goroutines.
func Run(sc Scenario) Trial {
	return RunObserved(sc, Obs{})
}

// RunObserved is Run with the observability harness attached: an optional
// event tracer or flight replay, and an optional per-trial metrics registry
// snapshotted into the result. A panicking workload is converted into
// Trial.Err instead of taking the whole grid down.
func RunObserved(sc Scenario, o Obs) Trial {
	return runObserved(sc, o, runtime.GOMAXPROCS(0))
}

// runObserved is RunObserved for a trial given cores of the machine.
func runObserved(sc Scenario, o Obs, cores int) Trial {
	var reg *obs.Registry
	if o.Metrics {
		reg = obs.NewRegistry()
	}
	t := recovered(sc, o.Tracer, reg, cores)
	t.Metrics = reg.Snapshot()
	if o.Tracer == nil && o.FlightDir != "" && (t.Err != "" || len(t.Violations) > 0) {
		flightReplay(&t, o)
	}
	return t
}

// recovered is run with a panic of the workload turned into Trial.Err.
func recovered(sc Scenario, tr *trace.Tracer, reg *obs.Registry, cores int) (t Trial) {
	defer func() {
		if r := recover(); r != nil {
			t = Trial{Name: sc.Label(), Scenario: sc, Err: fmt.Sprintf("panic: %v", r)}
		}
	}()
	return run(sc, tr, reg, cores)
}

// flightReplay re-runs the failed trial t's scenario on one shard into a
// flight ring and dumps the replay, its error and violations in the header.
// A trial's results do not depend on its shard count, so the replay is the
// trial, and one whose Err or Outcome differs from t's is a shard-invariance
// failure, noted on t.Err. A shard count the scenario itself refuses
// (negative, or above one with what shards cannot share) is the whole
// failure, which no one-shard replay repeats: it leaves no dump.
func flightReplay(t *Trial, o Obs) {
	sc := t.Scenario
	if sc.Shards < 0 || sc.Shards > 1 && sc.ShardRefusal(sc.LinkFail) != nil {
		return
	}
	note := func(msg string) {
		if t.Err != "" {
			t.Err += "; "
		}
		t.Err += msg
	}
	sc.Shards = 1
	flight := obs.NewFlightRecorder(o.FlightDir)
	r := recovered(sc, flight.Tracer(), nil, 1)
	got, _ := json.Marshal(r.Outcome) // plain data: Marshal cannot fail on it
	want, _ := json.Marshal(t.Outcome)
	if r.Err != t.Err || !bytes.Equal(got, want) {
		note(fmt.Sprintf("flight replay diverged: the one-shard replay's err (%q) or outcome differs", r.Err))
	}
	failure := r.Violations
	if r.Err != "" {
		failure = append([]string{r.Err}, failure...)
	}
	path, err := flight.Dump(t.Name, sc.Seed, failure)
	if err != nil {
		note(fmt.Sprintf("flight recorder dump failed: %v", err))
		return
	}
	t.FlightDump = path
}

// run validates the scenario and hands its cluster and shape, as one
// workload.Config, to its row of the workload table with the observability
// hooks threaded through and the cores the trial has to itself, which bound
// the goroutines a cut cluster runs on (how finely it is cut is Shards, 0
// meaning one shard per rack on a fabric too large for cache). The trial is
// the runner's Outcome, or Err.
func run(sc Scenario, tr *trace.Tracer, reg *obs.Registry, cores int) Trial {
	t := Trial{Name: sc.Label(), Scenario: sc}
	err := sc.Validate()
	if err == nil {
		row, _ := sc.Workload.row() // Validate looked it up
		cfg := workload.Config{ClusterConfig: sc.ClusterConfig, Shape: sc.Shape}
		cfg.Tracer, cfg.Metrics, cfg.Cores = tr, reg, cores
		t.Outcome, err = row.run(cfg)
	}
	if err != nil {
		t.Err = err.Error()
	}
	return t
}

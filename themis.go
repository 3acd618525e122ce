// Package themis is the public façade of the Themis reproduction: a
// discrete-event, packet-level reimplementation of "Enabling Packet Spraying
// over Commodity RNICs with In-Network Support" (Liu, Li, Chen).
//
// Themis is an in-network middleware for ToR switches that makes packet-level
// load balancing safe for commodity RNICs whose NIC-SR transport treats every
// out-of-order arrival as a loss. Themis-S sprays packets deterministically by
// PSN (Eq. 1); Themis-D validates each NACK against the PSNs actually in
// flight on the last hop (Eq. 3), blocks the spurious ones, and re-generates
// NACKs for real losses the RNIC can no longer report (§3.4).
//
// The package re-exports the experiment harness used to regenerate every
// figure and table of the paper:
//
//	res, err := themis.RunMotivation(themis.MotivationConfig{})      // Fig. 1
//	res, err := themis.RunCollective(themis.CollectiveConfig{...})   // Fig. 5
//	fmt.Print(themis.MemoryModel().Report())                         // Table 1 / §4
//
// Every experiment config embeds ClusterConfig, the one declaration of the
// fabric, load-balancing, RNIC and congestion-control knobs, and adds only
// its own shape fields (pattern, sizes, groups).
//
// Lower-level building blocks (the simulator, fabric, RNIC models and the
// middleware itself) live under internal/ and are wired together by
// BuildCluster for custom experiments.
package themis

import (
	"themis/internal/chaos"
	"themis/internal/collective"
	"themis/internal/core"
	"themis/internal/exp"
	"themis/internal/memmodel"
	"themis/internal/packet"
	"themis/internal/rnic"
	"themis/internal/sim"
	"themis/internal/workload"
)

// Version identifies this reproduction release.
const Version = "1.0.0"

// Re-exported configuration and result types. These are aliases, so the full
// field documentation lives on the underlying types.
type (
	// MotivationConfig parameterizes the Fig. 1 motivation experiment.
	MotivationConfig = workload.MotivationConfig
	// MotivationResult carries the Fig. 1 measurements.
	MotivationResult = workload.MotivationResult
	// CollectiveConfig parameterizes a Fig. 5 evaluation cell.
	CollectiveConfig = workload.CollectiveConfig
	// CollectiveResult carries one Fig. 5 data point.
	CollectiveResult = workload.CollectiveResult
	// ClusterConfig describes a custom simulated cluster.
	ClusterConfig = workload.ClusterConfig
	// Cluster is a fully wired simulation instance.
	Cluster = workload.Cluster
	// LBMode selects a load-balancing arm.
	LBMode = workload.LBMode
	// Pattern selects a collective schedule.
	Pattern = collective.Pattern
	// DCQCNSetting is one (TI, TD) column of Fig. 5.
	DCQCNSetting = workload.DCQCNSetting
	// MemoryParams are the Table 1 symbols of the §4 memory model.
	MemoryParams = memmodel.Params
	// ThemisConfig parameterizes the middleware itself.
	ThemisConfig = core.Config
	// Transport selects the RNIC reliable transport.
	Transport = rnic.Transport
	// Duration is a span of virtual time in picoseconds.
	Duration = sim.Duration
	// Time is a virtual-time instant in picoseconds.
	Time = sim.Time
	// NodeID identifies a host (NIC) in the simulated network.
	NodeID = packet.NodeID
	// Conn is a reliable connection (QP pair) between two hosts.
	Conn = workload.Conn
	// ChaosScenario is a seeded fault schedule for the chaos harness.
	ChaosScenario = chaos.Scenario
	// ChaosFault is one scheduled fault of a ChaosScenario.
	ChaosFault = workload.Fault
	// ChaosOptions parameterizes the chaos scenario harness.
	ChaosOptions = chaos.Options
	// ChaosResult is the audited outcome of one chaos scenario.
	ChaosResult = chaos.Result
	// Scenario declaratively describes one experiment-harness trial.
	Scenario = exp.Scenario
	// Trial is the result record of one scenario run.
	Trial = exp.Trial
	// Runner executes a grid of scenarios across a worker pool.
	Runner = exp.Runner
	// Report is the serialized BENCH_<name>.json artifact of one sweep.
	Report = exp.Report
)

// Load-balancing arms: one constant per row of the arm table
// (internal/workload/arms.go); TestFacadeExportsEveryArm keeps them in step.
const (
	ECMP            = workload.ECMP
	RandomSpray     = workload.RandomSpray
	Adaptive        = workload.Adaptive
	Flowlet         = workload.Flowlet
	SprayNoThemis   = workload.SprayNoThemis
	Themis          = workload.Themis
	REPS            = workload.REPS
	CongestionAware = workload.CongestionAware
)

// Collective patterns.
const (
	Allreduce = collective.RingAllreduce
	AllToAll  = collective.AllToAll
)

// RNIC transports.
const (
	SelectiveRepeat = rnic.SelectiveRepeat
	GoBackN         = rnic.GoBackN
	Ideal           = rnic.Ideal
)

// Time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// RunMotivation executes the Fig. 1 motivation experiment.
func RunMotivation(cfg MotivationConfig) (*MotivationResult, error) {
	return workload.RunMotivation(cfg)
}

// RunCollective executes one Fig. 5 evaluation cell.
func RunCollective(cfg CollectiveConfig) (*CollectiveResult, error) {
	return workload.RunCollective(cfg)
}

// BuildCluster assembles a custom simulated cluster.
func BuildCluster(cfg ClusterConfig) (*Cluster, error) {
	return workload.BuildCluster(cfg)
}

// MemoryModel returns the §4 memory model with the paper's Table 1 values.
func MemoryModel() MemoryParams { return memmodel.PaperDefaults() }

// PaperDCQCNSettings returns the five Fig. 5 DCQCN (TI, TD) configurations.
func PaperDCQCNSettings() []DCQCNSetting { return workload.PaperDCQCNSettings() }

// ChaosSoak generates and runs count seeded scenarios starting at seed
// first; see internal/chaos.Soak.
func ChaosSoak(first int64, count int, opt ChaosOptions) ([]*ChaosResult, error) {
	return chaos.Soak(first, count, opt, chaos.Generate)
}

// Fig5Arms returns the three systems Fig. 5 compares, in paper order.
func Fig5Arms() []LBMode { return workload.Fig5Arms() }

// RunScenario executes one declarative scenario through the experiment
// harness on a private engine; failures are reported in Trial.Err.
func RunScenario(sc Scenario) Trial { return exp.Run(sc) }

// NewReport aggregates trials into a named BENCH artifact; see internal/exp.
func NewReport(name string, trials []Trial) *Report { return exp.NewReport(name, trials) }

package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"themis/internal/exp"
	"themis/internal/obs"
	"themis/internal/rnic"
	"themis/internal/sim"
	"themis/internal/trace"
	"themis/internal/workload"
)

// readProfile validates that path holds a pprof profile: gzip-compressed
// (magic 0x1f 0x8b) with a non-empty protobuf payload. A full protobuf parse
// would need the pprof package; the magic + payload check catches the real
// failure modes (file never written, CPU profile not stopped/flushed).
func readProfile(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("profile not written: %v", err)
	}
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Fatalf("%s: not gzip-compressed (pprof profiles are): % x", path, raw[:min(4, len(raw))])
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("%s: bad gzip stream: %v", path, err)
	}
	payload, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("%s: corrupt gzip payload: %v", path, err)
	}
	if len(payload) == 0 {
		t.Fatalf("%s: empty profile payload", path)
	}
	return payload
}

// TestSweepWritesProfiles is the e2e check for the profiling flags: a real
// (small) sweep through the CLI entry point must leave parsable CPU and heap
// profiles behind.
func TestSweepWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	report := filepath.Join(dir, "report.json")
	err := runSweep([]string{
		"-grid", "smoke", "-seeds", "1",
		"-cpuprofile", cpu, "-memprofile", mem, "-json", report,
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	readProfile(t, cpu)
	readProfile(t, mem)
	if _, err := os.Stat(report); err != nil {
		t.Fatalf("report not written: %v", err)
	}
}

// TestSweepRejectsNonPositiveSeeds: a seed count below one is an error from
// every grid — not a makeslice panic (the grids that list seeds) and not a
// green "0 scenarios" (the ones that loop over them).
func TestSweepRejectsNonPositiveSeeds(t *testing.T) {
	for _, args := range [][]string{
		{"-grid", "smoke", "-seeds", "-1"},
		{"-grid", "chaos", "-seeds", "-1"},
		{"-grid", "churn", "-seeds", "-1"},
		{"-grid", "churn", "-seeds", "0"},
		{"-grid", "spray", "-seeds", "0"},
	} {
		if err := runSweep(args); err == nil || !strings.Contains(err.Error(), "-seeds") {
			t.Errorf("sweep %v returned %v, want an error naming -seeds", args, err)
		}
	}
}

// TestOutOfRangeFlagsFail: a flag value outside its range is an error naming
// it — a non-zero exit — never a silent fallback, a vacuous success or a panic
// outside any trial.
func TestOutOfRangeFlagsFail(t *testing.T) {
	for _, c := range []struct {
		run  func([]string) error
		args []string
		want string
	}{
		{runScenario, []string{"-workload", "collective", "-shards", "-3", "-leaves", "2", "-spines", "2", "-hosts", "2", "-bytes", "4096"}, "Shards"},
		{runScenario, []string{"-workload", "collective", "-leaves", "1", "-spines", "2", "-hosts", "4", "-bytes", "4096"}, "Leaves"},
		{runScenario, []string{"-workload", "motivation", "-bytes", "-1"}, "MessageBytes"},
		{runScenario, []string{"-workload", "collective", "-series"}, "-series"},
		{runInspect, []string{"-qp", "1", "-psn", "16777217", "-scenario", quickstart}, "-psn"},
		{runInspect, []string{"-qp", "-1", "-psn", "0", "-scenario", quickstart}, "-qp"},
		{runScenario, []string{"-leaves", "2", "-spines", "2", "-hosts", "2", "-bytes", "-5"}, "MessageBytes"},
		{runScenario, []string{"-workload", "churn", "-qps", "-1"}, "QPs"},
		{runScenario, []string{"-workload", "chaos", "-flows", "-1"}, "Flows"},
		{runScenario, []string{"-ti", "-1"}, "TI"},
		{runScenario, []string{"-bw", "-100"}, "Bandwidth"},
		{runMemory, []string{"-factor", "-1"}, "-factor"},
		{runMemory, []string{"-paths", "-1"}, "-paths"},
		{runMemory, []string{"-mtu", "0"}, "-mtu"},
		{runMemory, []string{"-bw", "0"}, "-bw"},
		{runMemory, []string{"-rtt", "0"}, "-rtt"},
		{runMemory, []string{"-nics", "0"}, "-nics"},
		{runMemory, []string{"-qps", "0"}, "-qps"},
		{runMemory, []string{"-fattree", "3"}, "-fattree"},
	} {
		if err := c.run(c.args); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v returned %v, want an error naming %s", c.args, err, c.want)
		}
	}
}

// quickstart is the committed scenario of the README's inspect example: a
// contended Themis alltoall in which Themis-D blocks reordered NACKs.
const quickstart = "testdata/contended-themis.json"

// stdout returns what fn prints to os.Stdout, and its error.
func stdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	ferr := fn()
	os.Stdout = saved
	w.Close()
	return <-out, ferr
}

// TestInspectScenarioMatchesItsDump drives the offline-debugging loop from a
// scenario file: inspect -scenario replays the committed quickstart on one
// shard — its clean exit re-checks every flow's ledger invariants — and
// explains a blocked verdict; the same replay written as a JSONL dump and
// read back by inspect prints the same report.
func TestInspectScenarioMatchesItsDump(t *testing.T) {
	raw, err := os.ReadFile(quickstart)
	if err != nil {
		t.Fatal(err)
	}
	var sc exp.Scenario
	if err := json.Unmarshal(raw, &sc); err != nil {
		t.Fatal(err)
	}
	sc.Shards = 1
	ring := trace.New(obs.DefaultFlightCapacity)
	trial := exp.RunObserved(sc, exp.Obs{Tracer: ring})
	if trial.Err != "" || trial.Middleware.NacksBlocked == 0 {
		t.Fatalf("%s: Err %q, %d NACKs blocked; want a clean run that blocks some", quickstart, trial.Err, trial.Middleware.NacksBlocked)
	}
	dump := filepath.Join(t.TempDir(), "dump.jsonl")
	f, err := os.Create(dump)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteJSONL(f, obs.NewDump(trial.Name, sc.Seed, ring, trial.Violations)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for _, args := range [][]string{{}, {"-events"}, {"-qp", "1", "-psn", "70"}} {
		replayed, err := stdout(t, func() error { return runInspect(append(args, "-scenario", quickstart)) })
		if err != nil {
			t.Fatalf("inspect %v -scenario: %v", args, err)
		}
		read, err := stdout(t, func() error { return runInspect(append(args, dump)) })
		if err != nil {
			t.Fatalf("inspect %v <dump>: %v", args, err)
		}
		if replayed != read {
			t.Errorf("inspect %v: -scenario printed\n%s\nthe dump printed\n%s", args, replayed, read)
		}
		if len(args) == 4 && !strings.Contains(replayed, "BLOCKED") {
			t.Errorf("inspect %v names no blocked verdict:\n%s", args, replayed)
		}
	}
}

// TestRunMotivationSeries: run -workload motivation is the Fig. 1 cell —
// random spraying, not run's Themis default — and -series prints its Fig. 1b
// and 1c time series after the trial line, which carries Fig. 1c's and 1d's
// averages, without touching the JSON record.
func TestRunMotivationSeries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	out, err := stdout(t, func() error {
		return runScenario([]string{"-workload", "motivation", "-bytes", "1048576", "-series", "-json", path})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"goodput=", "avg_rate=", "# retransmission ratio (flow 0->2): time_us value", "# rate Gbps (flow 0->2): time_us value"} {
		if !strings.Contains(out, want) {
			t.Errorf("run -series printed no %q:\n%.400s", want, out)
		}
	}
	sc := exp.Fig1Scenario(1, 1<<20, rnic.SelectiveRepeat)
	sc.Name = ""
	trial := exp.Run(sc)
	want, err := exp.NewReport(trial.Name, []exp.Trial{trial}).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Errorf("run wrote (%v)\n%s\nthe Fig. 1 cell gives\n%s", err, got, want)
	}
}

// TestRunWithMetricsAndFlightDir covers the run subcommand's observability
// flags: metrics snapshot printed, flight dir accepted on a trial cut across
// two shards (no dump on success).
func TestRunWithMetricsAndFlightDir(t *testing.T) {
	dir := t.TempDir()
	err := runScenario([]string{
		"-workload", "collective", "-bytes", "1048576",
		"-leaves", "2", "-spines", "2", "-hosts", "2", "-bw", "100",
		"-shards", "2", "-metrics", "-flight-dir", dir,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("successful run must not leave flight dumps, found %v", ents)
	}
}

// TestViolationsFailTheCommand: run and sweep exit non-zero on a trial that
// completed but violated an invariant, not only on one that errored. Fed
// synthetic trials — no violating seed is left to drive it end to end.
func TestViolationsFailTheCommand(t *testing.T) {
	clean := exp.Trial{Name: "clean"}
	errored := exp.Trial{Name: "errored", Err: "incomplete"}
	violating := exp.Trial{Name: "violating"}
	violating.Violations = []string{"sw 0: 1 armed compensations after all transfers completed"}
	if n := failedTrials([]exp.Trial{clean, violating}); n != 1 {
		t.Fatalf("failedTrials = %d with one violating trial, want 1", n)
	}
	if n := failedTrials([]exp.Trial{clean, errored, violating}); n != 2 {
		t.Fatalf("failedTrials = %d, want 2", n)
	}
	if n := failedTrials([]exp.Trial{clean}); n != 0 {
		t.Fatalf("failedTrials = %d on a clean trial", n)
	}
}

// TestRunShardCountsWriteTheSameBytes: -shards is an execution knob on the
// collective workload too — the default (one shard per idle core), one shard
// and more shards than the fabric has racks write the same report.
func TestRunShardCountsWriteTheSameBytes(t *testing.T) {
	dir := t.TempDir()
	var want []byte
	for _, shards := range []string{"0", "1", "2", "7"} {
		path := filepath.Join(dir, "shards"+shards+".json")
		err := runScenario([]string{
			"-workload", "collective", "-pattern", "alltoall", "-bytes", "262144",
			"-leaves", "3", "-spines", "2", "-hosts", "2", "-bw", "100",
			"-shards", shards, "-json", path,
		})
		if err != nil {
			t.Fatalf("run -shards %s: %v", shards, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Errorf("-shards %s wrote a different report than -shards 0", shards)
		}
	}
}

// reportTrials returns the trial records of the JSON report at path, each as
// the bytes it was written with.
func reportTrials(t *testing.T, path string) []json.RawMessage {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r struct{ Trials []json.RawMessage }
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return r.Trials
}

// TestRunLowersDCQCNFlags: run's -ti/-td (microseconds) reach Scenario.TI/TD,
// so one Fig. 5 cell from the command line is the trial exp.Run gives.
func TestRunLowersDCQCNFlags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	err := runScenario([]string{
		"-workload", "collective", "-bytes", "65536",
		"-leaves", "2", "-spines", "2", "-hosts", "2",
		"-ti", "10", "-td", "50", "-json", path,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	trial := exp.Run(exp.Scenario{
		Workload: exp.Collective,
		ClusterConfig: workload.ClusterConfig{
			Seed: 1, LB: workload.Themis, Leaves: 2, Spines: 2, HostsPerLeaf: 2,
			TI: 10 * sim.Microsecond, TD: 50 * sim.Microsecond,
		},
		Shape: workload.Shape{MessageBytes: 64 << 10},
	})
	want, err := exp.NewReport(trial.Name, []exp.Trial{trial}).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Errorf("run wrote (%v)\n%s\nexp.Run gives\n%s", err, got, want)
	}
}

// TestChaosRunReplaysSweepCell: a chaos sweep cell replays with run at its
// seed, writing the same trial record.
func TestChaosRunReplaysSweepCell(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := runScenario([]string{"-workload", "chaos", "-seed", "3", "-json", a}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := runSweep([]string{"-grid", "chaos", "-seed", "3", "-seeds", "1", "-json", b}); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	ran, swept := reportTrials(t, a), reportTrials(t, b)
	if len(ran) != 1 || len(swept) != 1 || !bytes.Equal(ran[0], swept[0]) {
		t.Errorf("run wrote\n%s\nsweep wrote\n%s", ran, swept)
	}
}

// TestRunSetsNoUnreadShapeField: run's flag defaults, and -lb's arming, set no
// shape field a workload does not read (exp.Scenario.Validate refuses one), and
// -lb reaches every workload: each runs from the command line with an explicit
// non-default arm and records that arm, the chaos and motivation ones (which
// run their own default unless LBArmed) included.
func TestRunSetsNoUnreadShapeField(t *testing.T) {
	dir := t.TempDir()
	for _, w := range strings.Split(exp.WorkloadNames(), "|") {
		path := filepath.Join(dir, w+".json")
		err := runScenario([]string{"-workload", w, "-lb", "adaptive", "-bytes", "16384", "-leaves", "2", "-spines", "2", "-hosts", "2", "-json", path})
		if err != nil {
			t.Errorf("run -workload %s -lb adaptive: %v", w, err)
			continue
		}
		var tr exp.Trial
		if err := json.Unmarshal(reportTrials(t, path)[0], &tr); err != nil {
			t.Fatal(err)
		}
		if tr.Scenario.LB != workload.Adaptive {
			t.Errorf("run -workload %s -lb adaptive ran arm %v", w, tr.Scenario.LB)
		}
	}
}

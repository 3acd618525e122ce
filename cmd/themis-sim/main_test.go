package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"themis/internal/exp"
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

// TestChaosRejectsNonPositiveSeeds: zero scenarios used to pass vacuously
// ("0 scenarios", exit 0), a negative count panicked in makeslice.
func TestChaosRejectsNonPositiveSeeds(t *testing.T) {
	for _, n := range []string{"0", "-1"} {
		if err := runChaos([]string{"-seeds", n}); err == nil || !strings.Contains(err.Error(), "-seeds must be at least 1") {
			t.Errorf("chaos -seeds %s returned %v, want an error naming -seeds", n, err)
		}
	}
}

// TestTraceExportInspectRoundTrip drives trace -json and then inspect on the
// resulting dump — the full offline-debugging loop.
func TestTraceExportInspectRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full trace scenario")
	}
	dump := filepath.Join(t.TempDir(), "dump.jsonl")
	if err := runTrace([]string{"-last", "1", "-json", dump}); err != nil {
		t.Fatalf("trace: %v", err)
	}
	// inspect exits non-nil when any ledger invariant fails, so a clean run
	// doubles as an invariant check over every flow in the dump.
	if err := runInspect([]string{dump}); err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if err := runInspect([]string{"-qp", "1", "-psn", "0", dump}); err != nil {
		t.Fatalf("inspect -qp -psn: %v", err)
	}
}

// TestRunWithMetricsAndFlightDir covers the run subcommand's observability
// flags: metrics snapshot printed, flight dir accepted (no dump on success).
func TestRunWithMetricsAndFlightDir(t *testing.T) {
	dir := t.TempDir()
	err := runScenario([]string{
		"-workload", "collective", "-bytes", "1048576",
		"-leaves", "2", "-spines", "2", "-hosts", "2", "-bw", "100",
		"-metrics", "-flight-dir", dir,
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

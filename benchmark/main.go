// Command benchmark is the repo's perf ledger: four paper-derived workloads
// measured end to end in host time, plus per-layer counts, layer probes and a
// seam-traced run that attribute that time to the simulator's packages.
//
// It is a closed-loop, fixed-work batch benchmark: one trial at a time through
// exp.Run, one fresh process per workload, every Scenario.Seed derived from
// -seed. It calls only exported functions of themis/internal/... and changes
// nothing outside its own directory; see README.md for the workloads, the
// metric-interaction table and the A/B procedure.
//
// Wall-clock values never reach the simulation: time.Now results are only
// subtracted from each other and printed, never passed to Schedule/At or
// stored in a Scenario.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// nominalSeconds is BENCHMARK.json's run_seconds: the measuring time the
// fixed work is sized for on the 2-core reference container.
const nominalSeconds = 30

// vettedSeeds bounds the scenario seeds the workloads use. Every workload was
// run error-free and violation-free for scenario seeds 1..vettedSeeds (+ the
// fault_soak window), so -seed is folded into that range: an unvetted seed can
// trip a genuine model invariant (chaos seed 123 does, see README.md), and a
// benchmark run must not fail for reasons unrelated to the change under test.
const vettedSeeds = 64

// simSeed folds -seed into [1, vettedSeeds].
func simSeed(seed int64) int64 {
	return 1 + ((seed-1)%vettedSeeds+vettedSeeds)%vettedSeeds
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	probes   bool
	smoke    bool
	root     string // directory holding BENCHMARK.json and the BENCH_*.json artifacts
}

// reps is the number of timed repetitions: 4 at the nominal run length,
// scaled with -seconds and never below the 2 the second-fastest estimator
// needs.
func (o options) reps() int {
	if o.smoke {
		return 2
	}
	r := (4*o.seconds + nominalSeconds/2) / nominalSeconds
	return min(max(r, 2), 8)
}

// cells returns the workload's timed work for this run's scenario seed, at
// -smoke scale when asked.
func (o options) cells(w workloadDef) []cell {
	shrink := int64(1)
	if o.smoke {
		shrink = smokeShrink
	}
	return w.cells(simSeed(o.seed), shrink)
}

// metric is one named measurement in the contract's output form.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// ledger collects one run's metrics, failure notes and context lines.
type ledger struct {
	out       io.Writer
	metrics   map[string]metric
	attempted int
	failures  []string
}

func newLedger(out io.Writer) *ledger {
	return &ledger{out: out, metrics: map[string]metric{}}
}

func (l *ledger) set(name string, v float64, unit string) {
	l.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records one failed operation (trial, artifact comparison or probe).
func (l *ledger) fail(format string, args ...any) {
	l.failures = append(l.failures, fmt.Sprintf(format, args...))
}

func (l *ledger) printf(format string, args ...any) {
	fmt.Fprintf(l.out, format, args...)
}

// finish prints the metrics by name and, last, the contract's JSON line.
func (l *ledger) finish() error {
	names := make([]string, 0, len(l.metrics))
	for name := range l.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := l.metrics[name]
		l.printf("%-36s %16.6g %s\n", name, m.Value, m.Unit)
	}
	for _, f := range l.failures {
		l.printf("FAIL %s\n", f)
	}
	line, err := json.Marshal(result{
		Correct:   len(l.failures) == 0,
		Attempted: l.attempted,
		Failed:    min(len(l.failures), l.attempted),
		Metrics:   l.metrics,
	})
	if err != nil {
		return err
	}
	l.printf("%s\n", line)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), "|"))
	fs.Int64Var(&o.seed, "seed", 1, "seed every Scenario.Seed derives from")
	fs.IntVar(&o.seconds, "seconds", nominalSeconds, "nominal measuring time; scales the repetition count (4 at 30)")
	traceFlag := fs.Int("trace", 0, "0: timed run, end-to-end metrics; 1: per-layer run (counts, probes, seam trace)")
	fs.BoolVar(&o.probes, "probes", false, "run only the layer probes")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny sizes for the self-test; output is labelled smoke and never comparable")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	o.trace = *traceFlag != 0
	if o.seconds < 1 {
		return errors.New("-seconds must be positive")
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	o.root = root

	l := newLedger(out)
	mode := "timed"
	switch {
	case o.probes:
		mode = "probes"
	case o.trace:
		mode = "trace"
	}
	if o.smoke {
		mode += " smoke (not comparable)"
	}
	l.printf("benchmark workload=%s seed=%d sim_seed=%d mode=%s seconds=%d reps=%d\n",
		o.workload, o.seed, simSeed(o.seed), mode, o.seconds, o.reps())
	l.printf("commit=%s %s GOMAXPROCS=%d nproc=%d\n",
		commit(root), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())

	if o.probes {
		runProbes(l, o.smoke)
		return l.finish()
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown -workload %q (want %s)", o.workload, strings.Join(workloadNames(), "|"))
	}
	if o.trace {
		if err := layerRun(l, w, o); err != nil {
			return err
		}
	} else {
		timedRun(l, w, o)
	}
	return l.finish()
}

// findRoot locates the checkout root — the directory with BENCHMARK.json —
// from the working directory, which is the root itself or benchmark/ under
// it depending on how the program was started.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("BENCHMARK.json not found in . or ..: run from the repo root or from benchmark/")
}

// commit names the measured revision; "unknown" outside a git checkout.
func commit(root string) string {
	b, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// Command themis-sim runs the paper's experiments from the command line.
//
//	themis-sim run [-workload NAME] [-lb ...] [-transport ...]
//	    [-pattern ...] [-bytes N] [-seed S] [-leaves N] [-spines N] [-hosts N] [-fattree-k K] [-bw gbps]
//	    [-ti US] [-td US] [-shards N] [-json out.json] [-series]
//	    [-flows N] [-qps N] [-concurrency N] [-faults] [-table-budget BYTES] [-idle-timeout US] [-relearn]
//	    [-distributed] [-convergence-delay US] [-drain]
//	    [-metrics] [-flight-dir DIR] [-cpuprofile F] [-memprofile F] [-pprof-addr HOST:PORT]
//	    One declarative scenario through the experiment harness; prints the
//	    trial record and optionally writes it as a JSON report. NAME is a row
//	    of the workload table (internal/exp/workloads.go); -h lists the names.
//	    Exits non-zero if the trial failed or violated an invariant. Fig. 1 is
//	    -workload motivation (100 MB, nic-sr and, unless -lb names another arm,
//	    random spraying; -transport ideal for Fig. 1d's other bar), and -series
//	    prints its Fig. 1b/1c time series. One Fig. 5 cell is -workload
//	    collective with its -pattern, -lb and the DCQCN -ti/-td (0 = the 900/4
//	    us default); a chaos sweep cell replays as -workload chaos -seed S
//	    (-flows sets its ring flows). -metrics prints the trial's sender,
//	    middleware and net counter blocks and snapshots its metrics registry
//	    (what those blocks lack) into the record; with -flight-dir a trial that
//	    fails is replayed on one shard into a trace ring, dumped there as JSONL
//	    for inspect. The churn workload takes -qps/-concurrency (flow churn
//	    shape), -faults (seeded ToR reboots + a link flap), and the
//	    lifecycle knobs: -table-budget caps each instance's flow table at
//	    the §4 SRAM budget, -idle-timeout evicts entries idle for that long,
//	    -relearn re-registers evicted flows from live data packets.
//	    -distributed replaces the instant
//	    routing oracle with the per-switch BGP-style control plane and
//	    -convergence-delay sets its per-hop message delay (delay 0 is the
//	    oracle fixed point, bit-identical to oracle mode); the convergence
//	    workload runs the seeded routing-stressor fault schedule (flap
//	    storms, pod-uplink loss, maintenance drains) and -drain appends an
//	    explicit maintenance drain to it. The spray workload is the
//	    space-parallel fat-tree permutation (-fattree-k sets the radix).
//	    -shards N cuts a collective or spray trial's racks across N engine
//	    shards (at most one per rack); the default, 0, takes one per rack
//	    on a fabric of 32 hosts or more and one below, whose working set
//	    fits in cache, or one where the trial holds what shards would have
//	    to share (-distributed, a scenario's DropEveryNData or LinkFail
//	    fault schedule), which N > 1 refuses with an error naming it. However
//	    many shards there are, they run on at most GOMAXPROCS goroutines.
//	    Motivation, incast, churn, chaos and convergence run on one engine:
//	    churn because its closed loop is global, the rest by choice. Results
//	    are byte-identical for every shard count, so like
//	    -parallel it is an execution knob, not an experiment arm; every -lb
//	    arm, themis included, and -metrics run at any N. The reps and
//	    congestion LB arms take -reps-cache (entropy-cache ring capacity)
//	    and -path-buckets (per-path entropy buckets for the switch EWMA and
//	    per-path DCQCN coupling).
//
//	themis-sim sweep [-grid NAME]
//	    [-pattern NAME] [-bytes N] [-seed S] [-seeds N] [-parallel N] [-shards N] [-json out.json]
//	    [-metrics] [-flight-dir DIR] [-cpuprofile F] [-memprofile F] [-pprof-addr HOST:PORT]
//	    A scenario grid through the parallel runner: NAME is a row of the grid
//	    table (internal/exp/grids.go; default fig5, the full Fig. 5 matrix, all
//	    five DCQCN settings × {ECMP, AR, Themis}). -parallel N
//	    runs N trials concurrently — per-seed results are bit-identical to a
//	    sequential run — and a collective or spray trial runs its shards on
//	    its worker's share of the cores, GOMAXPROCS/N. -seeds
//	    below 1 is an error. -json writes the aggregated report artifact.
//	    Exits non-zero if any trial failed or violated an invariant.
//	    -cpuprofile/-memprofile write pprof profiles of the sweep;
//	    -pprof-addr serves live net/http/pprof while it runs.
//
//	themis-sim memory [-paths N] [-bw gbps] [-rtt us] [-nics N] [-qps N] [-mtu N] [-factor F]
//	    Table 1 / §4: the Themis memory-overhead model.
//
//	themis-sim inspect [-qp N] [-psn N] [-events] <dump.jsonl | -scenario s.json>
//	    Reconstruct per-flow timelines from a JSONL trace dump (a flight
//	    dump of -flight-dir) or from a one-shard traced replay of a scenario
//	    JSON (a trial record's "scenario" object), re-check the ledger
//	    invariants, and explain NACK verdicts ("why was this NACK blocked?").
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"themis/internal/collective"
	"themis/internal/exp"
	"themis/internal/memmodel"
	"themis/internal/obs"
	"themis/internal/rnic"
	"themis/internal/sim"
	"themis/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = runScenario(os.Args[2:])
	case "sweep":
		err = runSweep(os.Args[2:])
	case "memory":
		err = runMemory(os.Args[2:])
	case "inspect":
		err = runInspect(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "themis-sim: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "themis-sim:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: themis-sim <run|sweep|memory|inspect> [flags]")
	fmt.Fprintln(os.Stderr, "run 'themis-sim <command> -h' for command flags")
}

// writeReport serializes trials to path as a BENCH-style report artifact.
func writeReport(name, path string, trials []exp.Trial) error {
	b, err := exp.NewReport(name, trials).JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d trials)\n", path, len(trials))
	return nil
}

func printTrial(t exp.Trial) {
	if t.Err != "" {
		fmt.Printf("%-40s ERROR: %s\n", t.Name, t.Err)
		return
	}
	fmt.Printf("%-40s cct=%10.3fms retrans=%.4f timeouts=%d events=%d",
		t.Name, t.CCTMillis, t.RetransRatio, t.Sender.Timeouts, t.Engine.EventsExecuted)
	if t.GoodputGbps != 0 {
		fmt.Printf(" goodput=%.2fGbps", t.GoodputGbps)
	}
	if t.AvgRateGbps != 0 {
		fmt.Printf(" avg_rate=%.1fGbps", t.AvgRateGbps)
	}
	fmt.Println()
	if t.Metrics != nil { // -metrics: the counter blocks the registry does not repeat
		fmt.Printf("  sender:     %+v\n  middleware: %+v\n  net:        %+v\n", t.Sender, t.Middleware, t.Net)
	}
	for _, v := range t.Violations {
		fmt.Printf("  VIOLATION: %s\n", v)
	}
	if t.FlightDump != "" {
		fmt.Printf("  flight dump: %s\n", t.FlightDump)
	}
}

func runScenario(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	// The flags bind straight onto the scenario's fields; the defaults are
	// the ones the zero Scenario lacks.
	sc := exp.Scenario{Workload: exp.Collective}
	sc.LB = workload.Themis
	fs.Func("workload", "workload: "+exp.WorkloadNames()+" (default collective)", parsed(&sc.Workload, exp.ParseWorkload))
	fs.Func("pattern", "collective: "+collective.PatternNames()+" (default allreduce)", parsed(&sc.Pattern, collective.ParsePattern))
	// The chaos and motivation LB arms are opt-in (see workload.Shape.LBArmed):
	// arm them exactly when the user passed -lb explicitly.
	armed := false
	fs.Func("lb", "load balancing arm: "+workload.LBNames()+" (default themis; rps for motivation)", func(s string) error {
		armed = true
		return parsed(&sc.LB, workload.ParseLB)(s)
	})
	fs.IntVar(&sc.RepsCache, "reps-cache", 0, "reps: entropy-cache ring capacity (0 = default)")
	fs.IntVar(&sc.PathBuckets, "path-buckets", 0, "congestion: per-path entropy buckets (0 = default)")
	fs.Func("transport", "reliable transport: "+rnic.TransportNames()+" (default nic-sr)", parsed(&sc.Transport, rnic.ParseTransport))
	fs.Int64Var(&sc.MessageBytes, "bytes", 0, "message/collective size (0 = workload default)")
	fs.Int64Var(&sc.Seed, "seed", 1, "random seed")
	fs.IntVar(&sc.Leaves, "leaves", 0, "leaf switches (0 = workload default)")
	fs.IntVar(&sc.Spines, "spines", 0, "spine switches")
	fs.IntVar(&sc.HostsPerLeaf, "hosts", 0, "hosts per leaf")
	fs.Func("bw", "link bandwidth, Gbps", parsed(&sc.Bandwidth, gbps))
	fs.Func("ti", "DCQCN rate-increase timer, microseconds (0 = 900)", parsed(&sc.TI, micros))
	fs.Func("td", "DCQCN rate-decrease interval, microseconds (0 = 4)", parsed(&sc.TD, micros))
	fs.IntVar(&sc.Shards, "shards", 0, "engine shards a collective or spray trial's racks are cut across, at most one per rack (0 = one per rack from 32 hosts up, one below, or one with -distributed or a DropEveryNData/LinkFail scenario, which N > 1 refuses by name); they run on at most GOMAXPROCS goroutines; results are byte-identical for any value; motivation, incast, churn, chaos and convergence run on one, churn because its closed loop is global and the rest by choice")
	fs.IntVar(&sc.FatTreeK, "fattree-k", 0, "spray: fat-tree radix k (0 = workload default)")
	fs.IntVar(&sc.Flows, "flows", 0, "chaos: cross-rack ring flows (0 = one per host)")
	fs.IntVar(&sc.QPs, "qps", 0, "churn: total flows opened over the run (0 = workload default)")
	fs.IntVar(&sc.Concurrency, "concurrency", 0, "churn: flows open at a time (0 = workload default)")
	fs.BoolVar(&sc.Faults, "faults", false, "churn: inject seeded ToR reboots and a link flap")
	fs.IntVar(&sc.Themis.TableBudgetBytes, "table-budget", 0, "flow-table budget per Themis instance, bytes (0 = unbounded)")
	fs.Func("idle-timeout", "evict flow-table entries idle this long, microseconds (0 = off)", parsed(&sc.Themis.IdleTimeout, micros))
	fs.BoolVar(&sc.Themis.Relearn, "relearn", false, "re-register evicted/lost flows from live data packets")
	fs.BoolVar(&sc.DistributedRouting, "distributed", false, "run the per-switch BGP-style routing plane instead of the oracle")
	fs.Func("convergence-delay", "per-hop routing-message delay, microseconds (implies -distributed when > 0)", parsed(&sc.ConvergenceDelay, micros))
	fs.BoolVar(&sc.Drain, "drain", false, "convergence: append a maintenance drain to the fault schedule")
	jsonOut := fs.String("json", "", "write the trial as a JSON report to this path")
	metrics := fs.Bool("metrics", false, "snapshot the metrics registry into the trial record")
	flightDir := fs.String("flight-dir", "", "on failure, replay the trial on one shard and dump its JSONL trace here")
	series := fs.Bool("series", false, "motivation: print the Fig. 1b/1c time series")
	pf := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc.DistributedRouting = sc.DistributedRouting || sc.ConvergenceDelay > 0
	// -lb arms the workloads whose exp table row reads LBArmed: a scenario
	// that sets only that field validates exactly for them, and
	// Scenario.Validate refuses it on any other.
	probe := exp.Scenario{Workload: sc.Workload}
	probe.LBArmed = true
	sc.LBArmed = armed && probe.Validate() == nil
	// Unarmed, a chaos scenario is named and carries no arm, as the cells of
	// exp.ChaosGrid do, so `run -workload chaos -seed S` writes the record of
	// that sweep cell.
	if sc.Workload == exp.Chaos && !sc.LBArmed {
		sc.Name, sc.LB = sc.Label(), 0
	}
	// Unarmed, a motivation scenario carries no arm either, as exp.Fig1Scenario
	// does, so it runs Fig. 1's random spraying rather than run's Themis.
	if sc.Workload == exp.Motivation && !sc.LBArmed {
		sc.LB = 0
	}
	if *series && sc.Workload != exp.Motivation {
		return fmt.Errorf("run: -series needs -workload motivation, the one that samples time series")
	}
	if _, err := pf.start(); err != nil {
		return err
	}
	trial := exp.RunObserved(sc, exp.Obs{Metrics: *metrics, FlightDir: *flightDir})
	if err := pf.stop(); err != nil {
		return err
	}
	printTrial(trial)
	if trial.Metrics != nil {
		printSnapshot(trial.Metrics)
	}
	if *series && trial.Series != nil {
		fmt.Printf("\n%s\n%s", trial.Series.Retrans.Table(), trial.Series.RateGbps.Table())
	}
	if trial.Err == "" && *jsonOut != "" {
		if err := writeReport(trial.Name, *jsonOut, []exp.Trial{trial}); err != nil {
			return err
		}
	}
	if failedTrials([]exp.Trial{trial}) > 0 {
		return fmt.Errorf("scenario failed: %s", failure(trial))
	}
	return nil
}

// parsed binds a flag to *dst through parse, for fs.Func.
func parsed[T any](dst *T, parse func(string) (T, error)) func(string) error {
	return func(s string) (err error) {
		*dst, err = parse(s)
		return err
	}
}

// micros parses a flag given in whole microseconds.
func micros(s string) (sim.Duration, error) {
	us, err := strconv.ParseInt(s, 0, 64)
	return sim.Duration(us) * sim.Microsecond, err
}

// gbps parses a bandwidth flag given in Gbps.
func gbps(s string) (int64, error) {
	g, err := strconv.ParseFloat(s, 64)
	return int64(g * 1e9), err
}

// failure says why a trial must fail the command: it errored or it violated
// an invariant ("" if neither).
func failure(t exp.Trial) string {
	if t.Err != "" {
		return t.Err
	}
	if n := len(t.Violations); n > 0 {
		return fmt.Sprintf("%d invariant violations", n)
	}
	return ""
}

// failedTrials is the count run and sweep derive their exit status from.
func failedTrials(trials []exp.Trial) (n int) {
	for _, t := range trials {
		if failure(t) != "" {
			n++
		}
	}
	return n
}

// printSnapshot renders a metrics-registry snapshot (already sorted by name).
func printSnapshot(s *obs.Snapshot) {
	fmt.Println("metrics:")
	for _, g := range s.Gauges {
		fmt.Printf("  %-32s %g\n", g.Name, g.Value)
	}
	for _, h := range s.Histograms {
		fmt.Printf("  %-32s n=%d mean=%.2f p50=%.2f p99=%.2f max=%.2f\n",
			h.Name, h.Count, h.Mean, h.P50, h.P99, h.Max)
	}
}

func runSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	gridName := fs.String("grid", "fig5", "scenario grid: "+exp.GridNames())
	pattern := fs.String("pattern", "allreduce", "collective (fig5): "+collective.PatternNames())
	bytes := fs.Int64("bytes", 0, "collective size per group (fig5) / message size (fig1); 0 = the grid's default")
	seed := fs.Int64("seed", 1, "random seed (first seed for multi-seed grids)")
	seeds := fs.Int("seeds", 1, "seed count (multi-seed grids)")
	parallel := fs.Int("parallel", 1, "worker pool size")
	shards := fs.Int("shards", 0, "engine shards each collective or spray trial's racks are cut across, at most one per rack (0 = one per rack from 32 hosts up, one below, or one where the trial holds what shards cannot share, which N > 1 refuses by name; see run -h); the shards run on the trial's share of the cores, GOMAXPROCS/-parallel; reports are byte-identical for any value; motivation, incast, churn, chaos and convergence trials run on one, churn because its closed loop is global and the rest by choice")
	jsonOut := fs.String("json", "", "write the aggregated report JSON to this path")
	metrics := fs.Bool("metrics", false, "snapshot a per-trial metrics registry into each record")
	flightDir := fs.String("flight-dir", "", "replay each failed trial on one shard and dump its JSONL trace here")
	pf := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := exp.ParseGrid(*gridName)
	if err != nil {
		return err
	}
	p, err := collective.ParsePattern(*pattern)
	if err != nil {
		return err
	}
	if *seeds < 1 {
		return fmt.Errorf("sweep: -seeds must be at least 1, got %d", *seeds)
	}
	grid := g.Scenarios(*seed, *seeds, *bytes, p)
	for i := range grid {
		grid[i].Shards = *shards
	}

	if _, err := pf.start(); err != nil {
		return err
	}
	start := time.Now()
	trials := exp.Runner{
		Parallel: *parallel,
		Obs:      exp.Obs{Metrics: *metrics, FlightDir: *flightDir},
	}.Run(grid)
	elapsed := time.Since(start)
	if err := pf.stop(); err != nil {
		return err
	}

	fmt.Printf("sweep %s: %d scenarios, parallel=%d, wall=%.2fs\n", *gridName, len(grid), *parallel, elapsed.Seconds())
	if *gridName == "fig5" {
		printFig5Table(trials)
	} else {
		for _, t := range trials {
			printTrial(t)
		}
	}
	if *jsonOut != "" {
		if err := writeReport(*gridName, *jsonOut, trials); err != nil {
			return err
		}
	}
	if failed := failedTrials(trials); failed > 0 {
		return fmt.Errorf("%d/%d scenarios failed or violated invariants", failed, len(trials))
	}
	return nil
}

// printFig5Table renders the Fig. 5 matrix from its trials (settings × arms,
// in grid order).
func printFig5Table(trials []exp.Trial) {
	arms := workload.Fig5Arms()
	fmt.Printf("%-12s %10s %10s %10s %12s\n", "(TI,TD) us", "ecmp", "adaptive", "themis", "themis-vs-AR")
	for si, s := range workload.PaperDCQCNSettings() {
		row := make([]float64, len(arms))
		for ai := range arms {
			t := trials[si*len(arms)+ai]
			if t.Err != "" {
				fmt.Printf("  %s: ERROR: %s\n", t.Name, t.Err)
				return
			}
			row[ai] = t.CCTMillis
		}
		red := (row[1] - row[2]) / row[1] * 100
		fmt.Printf("(%d,%d)%*s %10.3f %10.3f %10.3f %11.1f%%\n",
			int64(s.TI.Microseconds()), int64(s.TD.Microseconds()),
			12-len(fmt.Sprintf("(%d,%d)", int64(s.TI.Microseconds()), int64(s.TD.Microseconds()))), "",
			row[0], row[1], row[2], red)
	}
}

func runMemory(args []string) error {
	fs := flag.NewFlagSet("memory", flag.ExitOnError)
	paths := fs.Int("paths", 256, "equal-cost paths N_paths")
	bw := fs.Float64("bw", 400, "last-hop bandwidth, Gbps")
	rtt := fs.Int64("rtt", 2, "last-hop RTT, microseconds")
	nics := fs.Int("nics", 16, "NICs per ToR")
	qps := fs.Int("qps", 100, "cross-rack QPs per NIC")
	mtu := fs.Int("mtu", 1500, "MTU bytes")
	factor := fs.Float64("factor", 1.5, "queue expansion factor F")
	k := fs.Int("fattree", 0, "derive N_paths and NICs/ToR from a k-port fat-tree (overrides -paths/-nics)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		bad  bool
	}{
		{"-paths", *paths <= 0}, {"-bw", *bw <= 0}, {"-rtt", *rtt <= 0}, {"-nics", *nics <= 0},
		{"-qps", *qps <= 0}, {"-mtu", *mtu <= 0}, {"-factor", *factor <= 0},
	} {
		if f.bad {
			return fmt.Errorf("memory: %s must be positive", f.name)
		}
	}
	if *k < 0 || *k%2 != 0 {
		return fmt.Errorf("memory: -fattree %d is not an even port count (0 = off)", *k)
	}
	p := memmodel.Params{
		NPaths:    *paths,
		Bandwidth: int64(*bw * 1e9),
		RTTLast:   sim.Duration(*rtt) * sim.Microsecond,
		NNIC:      *nics,
		NQP:       *qps,
		MTU:       *mtu,
		Factor:    *factor,
	}
	if *k > 0 {
		ft := memmodel.FatTree{K: *k}
		p.NPaths = ft.MaxPaths()
		p.NNIC = ft.NICsPerToR()
		fmt.Printf("fat-tree k=%d: %d leaves, %d spines, %d cores, %d hosts\n",
			*k, ft.Leaves(), ft.Spines(), ft.Cores(), ft.Hosts())
	}
	fmt.Print(p.Report())
	return nil
}

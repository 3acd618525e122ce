// Command themis-sim runs the paper's experiments from the command line.
//
//	themis-sim motivation [-bytes N] [-seed S] [-transport NAME] [-series]
//	    Fig. 1: the §2.2 motivation study (retransmission ratio, sending
//	    rate, throughput vs the ideal transport).
//
//	themis-sim collective [-pattern NAME] [-lb ARM]
//	    [-bytes N] [-ti us] [-td us] [-leaves N] [-spines N] [-hosts N] [-bw gbps] [-seed S]
//	    One Fig. 5 cell: tail completion time of the slowest group. ARM is a
//	    row of the arm table (internal/workload/arms.go); -h lists the names
//	    of every named flag value (arms, patterns, transports, workloads,
//	    grids), each generated from the table that defines it.
//
//	themis-sim run [-workload NAME] [-lb ...] [-transport ...]
//	    [-pattern ...] [-bytes N] [-seed S] [-leaves N] [-spines N] [-hosts N] [-fattree-k K] [-bw gbps]
//	    [-shards N] [-json out.json]
//	    [-qps N] [-concurrency N] [-faults] [-table-budget BYTES] [-idle-timeout US] [-relearn]
//	    [-distributed] [-convergence-delay US] [-drain]
//	    [-metrics] [-flight-dir DIR] [-cpuprofile F] [-memprofile F] [-pprof-addr HOST:PORT]
//	    One declarative scenario through the experiment harness; prints the
//	    trial record and optionally writes it as a JSON report. NAME is a row
//	    of the workload table (internal/exp/workloads.go); -h lists the names.
//	    Exits non-zero if the trial failed or violated an invariant. -metrics
//	    prints the trial's sender, middleware and net counter blocks and
//	    snapshots its metrics registry (what those blocks lack) into the
//	    record; -flight-dir arms a flight recorder that dumps a JSONL trace
//	    on failure. The churn workload takes -qps/-concurrency (flow churn
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
//	    space-parallel fat-tree permutation (-fattree-k sets the radix);
//	    -shards N cuts a spray trial's racks across N engine shards (the
//	    other workloads have global drivers, run on one engine and ignore
//	    it) — results are byte-identical for every shard count, so like
//	    -parallel it is an execution knob, not an experiment arm; what shards
//	    would have to share (-flight-dir, -distributed, a scenario's
//	    DropEveryNData) is an error at N > 1 and runs at 0 or 1 — every -lb
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
//	    sequential run. -seeds below 1 is an error. -json writes the
//	    aggregated report artifact. Exits non-zero if any trial failed or
//	    violated an invariant.
//	    -cpuprofile/-memprofile write pprof profiles of the sweep;
//	    -pprof-addr serves live net/http/pprof while it runs.
//
//	themis-sim memory [-paths N] [-bw gbps] [-rtt us] [-nics N] [-qps N] [-mtu N] [-factor F]
//	    Table 1 / §4: the Themis memory-overhead model.
//
//	themis-sim trace [-qp N] [-last N] [-json out.jsonl]
//	    Run a small contended Themis scenario and dump the packet/middleware
//	    event trace — the evidence trail behind each NACK verdict. -json
//	    exports the full trace as a schema-v1 JSONL dump for `inspect`.
//
//	themis-sim inspect <dump.jsonl> [-qp N] [-psn N] [-events]
//	    Reconstruct per-flow timelines from a JSONL trace dump (written by
//	    `trace -json` or a flight recorder), re-check the ledger invariants,
//	    and explain NACK verdicts ("why was this NACK blocked?").
//
//	themis-sim chaos [-seed S] [-seeds N] [-bytes N] [-flows N] [-leaves N] [-spines N] [-hosts N]
//	    [-flight-dir DIR] [-v]
//	    Deterministic fault-injection soak: N seeded scenarios (link flaps,
//	    drop/corruption rates, control-plane loss, ToR reboots, blackholes)
//	    against the hardened cluster, auditing the graceful-degradation
//	    invariants after each. Exits non-zero if any invariant is violated;
//	    rerun with -seed to replay a single violating scenario. -seeds below
//	    1 is an error (zero scenarios would pass vacuously). -flight-dir
//	    arms a per-scenario flight recorder: a violating seed dumps its
//	    trace ring as <DIR>/flight-seed<S>.jsonl for `inspect`.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"themis"
	"themis/internal/collective"
	"themis/internal/exp"
	"themis/internal/memmodel"
	"themis/internal/obs"
	"themis/internal/packet"
	"themis/internal/rnic"
	"themis/internal/sim"
	"themis/internal/trace"
	"themis/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "motivation":
		err = runMotivation(os.Args[2:])
	case "collective":
		err = runCollective(os.Args[2:])
	case "run":
		err = runScenario(os.Args[2:])
	case "sweep":
		err = runSweep(os.Args[2:])
	case "memory":
		err = runMemory(os.Args[2:])
	case "trace":
		err = runTrace(os.Args[2:])
	case "inspect":
		err = runInspect(os.Args[2:])
	case "chaos":
		err = runChaos(os.Args[2:])
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
	fmt.Fprintln(os.Stderr, "usage: themis-sim <motivation|collective|run|sweep|memory|trace|inspect|chaos> [flags]")
	fmt.Fprintln(os.Stderr, "run 'themis-sim <command> -h' for command flags")
}

func runMotivation(args []string) error {
	fs := flag.NewFlagSet("motivation", flag.ExitOnError)
	bytes := fs.Int64("bytes", 100<<20, "message size per flow")
	seed := fs.Int64("seed", 1, "random seed")
	transport := fs.String("transport", "nic-sr", "reliable transport: "+rnic.TransportNames())
	series := fs.Bool("series", false, "print full time series (Fig. 1b/1c data)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tr, err := rnic.ParseTransport(*transport)
	if err != nil {
		return err
	}
	res, err := themis.RunMotivation(themis.MotivationConfig{
		ClusterConfig: themis.ClusterConfig{Seed: *seed, Transport: tr},
		MessageBytes:  *bytes,
	})
	if err != nil {
		return err
	}
	fmt.Printf("motivation (Fig. 1): transport=%s bytes=%d seed=%d\n", tr, *bytes, *seed)
	fmt.Printf("  completion time          : %.3f ms\n", res.CCTMillis)
	fmt.Printf("  avg retransmission ratio : %.4f   (Fig. 1b, paper ~0.16)\n", res.RetransRatio)
	fmt.Printf("  avg sending rate         : %.1f Gbps (Fig. 1c, paper ~86)\n", res.AvgRateGbps)
	fmt.Printf("  avg flow throughput      : %.2f Gbps (Fig. 1d, paper 68.09 nic-sr / 95.43 ideal)\n", res.GoodputGbps)
	fmt.Printf("  sender: packets=%d retransmits=%d nacks=%d timeouts=%d\n",
		res.Sender.DataPackets, res.Sender.Retransmits, res.Sender.NacksRx, res.Sender.Timeouts)
	if *series {
		fmt.Println()
		fmt.Print(res.RetransSeries.Table())
		fmt.Println()
		fmt.Print(res.RateGbps.Table())
	}
	return nil
}

func collectiveConfig(fs *flag.FlagSet) (pattern, lbs *string, bytes, seed *int64, ti, td *int64, leaves, spines, hosts *int, bw *float64) {
	pattern = fs.String("pattern", "allreduce", "collective: "+collective.PatternNames())
	lbs = fs.String("lb", "themis", "load balancing arm: "+workload.LBNames())
	bytes = fs.Int64("bytes", 300<<20, "collective size per group")
	seed = fs.Int64("seed", 1, "random seed")
	ti = fs.Int64("ti", 900, "DCQCN rate-increase timer, microseconds")
	td = fs.Int64("td", 4, "DCQCN rate-decrease interval, microseconds")
	leaves = fs.Int("leaves", 16, "leaf switches")
	spines = fs.Int("spines", 16, "spine switches")
	hosts = fs.Int("hosts", 16, "hosts per leaf")
	bw = fs.Float64("bw", 400, "link bandwidth, Gbps")
	return
}

func runCollective(args []string) error {
	fs := flag.NewFlagSet("collective", flag.ExitOnError)
	pattern, lbs, bytes, seed, ti, td, leaves, spines, hosts, bw := collectiveConfig(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := collective.ParsePattern(*pattern)
	if err != nil {
		return err
	}
	lbMode, err := workload.ParseLB(*lbs)
	if err != nil {
		return err
	}
	res, err := themis.RunCollective(themis.CollectiveConfig{
		ClusterConfig: themis.ClusterConfig{
			Seed:   *seed,
			Leaves: *leaves, Spines: *spines, HostsPerLeaf: *hosts,
			Bandwidth: int64(*bw * 1e9),
			LB:        lbMode,
			TI:        sim.Duration(*ti) * sim.Microsecond,
			TD:        sim.Duration(*td) * sim.Microsecond,
		},
		Pattern: p, MessageBytes: *bytes,
	})
	if err != nil {
		return err
	}
	fmt.Printf("collective (Fig. 5): pattern=%s lb=%s bytes=%d (TI,TD)=(%d,%d)us\n",
		p, lbMode, *bytes, *ti, *td)
	fmt.Printf("  tail completion time : %.3f ms\n", res.CCTMillis)
	fmt.Printf("  retransmission ratio : %.4f\n", res.RetransRatio)
	fmt.Printf("  sender: packets=%d retransmits=%d nacks=%d cnps=%d timeouts=%d\n",
		res.Sender.DataPackets, res.Sender.Retransmits, res.Sender.NacksRx, res.Sender.CnpsRx, res.Sender.Timeouts)
	if lbMode == workload.Themis {
		fmt.Printf("  themis: sprayed=%d blocked=%d forwarded=%d compensated=%d\n",
			res.Middleware.Sprayed, res.Middleware.NacksBlocked, res.Middleware.NacksForwarded, res.Middleware.Compensations)
	}
	return nil
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
	fmt.Printf("%-40s cct=%10.3fms retrans=%.4f timeouts=%d events=%d\n",
		t.Name, t.CCTMillis, t.RetransRatio, t.Sender.Timeouts, t.Engine.EventsExecuted)
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
	wl := fs.String("workload", "collective", "workload: "+exp.WorkloadNames())
	pattern := fs.String("pattern", "allreduce", "collective: "+collective.PatternNames())
	lbs := fs.String("lb", "themis", "load balancing arm: "+workload.LBNames())
	repsCache := fs.Int("reps-cache", 0, "reps: entropy-cache ring capacity (0 = default)")
	pathBuckets := fs.Int("path-buckets", 0, "congestion: per-path entropy buckets (0 = default)")
	transport := fs.String("transport", "nic-sr", "reliable transport: "+rnic.TransportNames())
	bytes := fs.Int64("bytes", 0, "message/collective size (0 = workload default)")
	seed := fs.Int64("seed", 1, "random seed")
	leaves := fs.Int("leaves", 0, "leaf switches (0 = workload default)")
	spines := fs.Int("spines", 0, "spine switches")
	hosts := fs.Int("hosts", 0, "hosts per leaf")
	bw := fs.Float64("bw", 0, "link bandwidth, Gbps")
	shards := fs.Int("shards", 0, "spray: space-parallel engine shards (0 = one; results are byte-identical for any value; an error at N > 1: -flight-dir, -distributed, a scenario's DropEveryNData; other workloads run on one engine and ignore it)")
	fatTreeK := fs.Int("fattree-k", 0, "spray: fat-tree radix k (0 = workload default)")
	qps := fs.Int("qps", 0, "churn: total flows opened over the run (0 = workload default)")
	concurrency := fs.Int("concurrency", 0, "churn: flows open at a time (0 = workload default)")
	faults := fs.Bool("faults", false, "churn: inject seeded ToR reboots and a link flap")
	tableBudget := fs.Int("table-budget", 0, "flow-table budget per Themis instance, bytes (0 = unbounded)")
	idleTimeout := fs.Int64("idle-timeout", 0, "evict flow-table entries idle this long, microseconds (0 = off)")
	relearn := fs.Bool("relearn", false, "re-register evicted/lost flows from live data packets")
	distributed := fs.Bool("distributed", false, "run the per-switch BGP-style routing plane instead of the oracle")
	convergenceDelay := fs.Int64("convergence-delay", 0, "per-hop routing-message delay, microseconds (implies -distributed when > 0)")
	drain := fs.Bool("drain", false, "convergence: append a maintenance drain to the fault schedule")
	jsonOut := fs.String("json", "", "write the trial as a JSON report to this path")
	metrics := fs.Bool("metrics", false, "snapshot the metrics registry into the trial record")
	flightDir := fs.String("flight-dir", "", "arm a flight recorder; dump a JSONL trace here on failure")
	pf := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := exp.ParseWorkload(*wl)
	if err != nil {
		return err
	}
	p, err := collective.ParsePattern(*pattern)
	if err != nil {
		return err
	}
	lbMode, err := workload.ParseLB(*lbs)
	if err != nil {
		return err
	}
	tr, err := rnic.ParseTransport(*transport)
	if err != nil {
		return err
	}
	// The chaos workload's LB arm is opt-in (see exp.Scenario.LBArmed): arm it
	// exactly when the user passed -lb explicitly.
	lbArmed := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "lb" {
			lbArmed = true
		}
	})
	sc := exp.Scenario{
		Workload: w, Seed: *seed, Shards: *shards,
		Pattern: p, LB: lbMode, LBArmed: lbArmed, Transport: tr,
		RepsCache: *repsCache, PathBuckets: *pathBuckets,
		MessageBytes: *bytes,
		Leaves:       *leaves, Spines: *spines, HostsPerLeaf: *hosts,
		FatTreeK:  *fatTreeK,
		Bandwidth: int64(*bw * 1e9),
		QPs:       *qps, Concurrency: *concurrency, Faults: *faults,

		DistributedRouting: *distributed || *convergenceDelay > 0,
		ConvergenceDelay:   sim.Duration(*convergenceDelay) * sim.Microsecond,
		Drain:              *drain,
	}
	sc.Themis.TableBudgetBytes = *tableBudget
	sc.Themis.IdleTimeout = sim.Duration(*idleTimeout) * sim.Microsecond
	sc.Themis.Relearn = *relearn
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
	shards := fs.Int("shards", 0, "spray grid: space-parallel engine shards per trial (0 = one; reports are byte-identical for any value; an error at N > 1: -flight-dir, -distributed, a scenario's DropEveryNData; other grids run on one engine and ignore it)")
	jsonOut := fs.String("json", "", "write the aggregated report JSON to this path")
	metrics := fs.Bool("metrics", false, "snapshot a per-trial metrics registry into each record")
	flightDir := fs.String("flight-dir", "", "arm per-trial flight recorders; dump JSONL traces here on failure")
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
	arms := themis.Fig5Arms()
	fmt.Printf("%-12s %10s %10s %10s %12s\n", "(TI,TD) us", "ecmp", "adaptive", "themis", "themis-vs-AR")
	for si, s := range themis.PaperDCQCNSettings() {
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

func runChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "first scenario seed")
	seeds := fs.Int("seeds", 50, "number of consecutive seeds to run")
	bytes := fs.Int64("bytes", 2<<20, "message size per flow")
	flows := fs.Int("flows", 0, "cross-rack flows (0 = one per host)")
	leaves := fs.Int("leaves", 3, "leaf switches")
	spines := fs.Int("spines", 3, "spine switches")
	hosts := fs.Int("hosts", 2, "hosts per leaf")
	verbose := fs.Bool("v", false, "print every scenario, not just violations")
	flightDir := fs.String("flight-dir", "", "arm per-scenario flight recorders; dump JSONL traces here on violation")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seeds < 1 {
		return fmt.Errorf("chaos: -seeds must be at least 1, got %d", *seeds)
	}
	opt := themis.ChaosOptions{
		ClusterConfig: themis.ClusterConfig{Leaves: *leaves, Spines: *spines, HostsPerLeaf: *hosts},
		Flows:         *flows, MessageBytes: *bytes,
		FlightDir: *flightDir,
	}
	results, err := themis.ChaosSoak(*seed, *seeds, opt)
	if err != nil {
		return err
	}
	violated := 0
	for _, res := range results {
		bad := len(res.Violations) > 0
		if bad {
			violated++
		}
		if bad || *verbose {
			fmt.Printf("%v\n", res.Scenario)
			fmt.Printf("  end=%.3fms completions=%d retransmits=%d timeouts=%d\n",
				res.End.Seconds()*1e3, res.Sender.Completions, res.Sender.Retransmits, res.Sender.Timeouts)
			fmt.Printf("  drops: data=%d ctrl=%d link=%d  themis: blocked=%d compensated=%d reboots=%d relearns=%d\n",
				res.Net.DataDrops, res.Net.CtrlDrops, res.Net.LinkDrops,
				res.Middleware.NacksBlocked, res.Middleware.Compensations,
				res.Middleware.Reboots, res.Middleware.Relearns)
			for _, v := range res.Violations {
				fmt.Printf("  VIOLATION: %s\n", v)
			}
			if res.FlightDump != "" {
				fmt.Printf("  flight dump: %s\n", res.FlightDump)
			}
		}
	}
	fmt.Printf("chaos soak: %d scenarios, %d with invariant violations\n", len(results), violated)
	if violated > 0 {
		return fmt.Errorf("%d scenarios violated invariants (replay with -seed <seed> -seeds 1)", violated)
	}
	return nil
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

func runTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	qp := fs.Int("qp", 0, "restrict the dump to one QP (0 = all)")
	last := fs.Int("last", 60, "print only the last N events")
	jsonOut := fs.String("json", "", "export the full trace as a JSONL dump to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tr := trace.New(1 << 16)
	cl, err := workload.BuildCluster(workload.ClusterConfig{
		Seed: 42, Leaves: 2, Spines: 2, HostsPerLeaf: 4, Bandwidth: 100e9,
		LB: workload.Themis, Tracer: tr,
	})
	if err != nil {
		return err
	}
	done := 0
	for i := 0; i < 4; i++ {
		cl.Conn(packet.NodeID(i), packet.NodeID(4+i)).Send(2<<20, func() { done++ })
	}
	cl.Run(sim.Second)
	if done != 4 {
		return fmt.Errorf("scenario incomplete (%d/4 flows)", done)
	}
	evs := tr.Events()
	if *qp > 0 {
		evs = tr.ByQP(packet.QPID(*qp))
	}
	if len(evs) > *last {
		fmt.Printf("... (%d earlier events elided)\n", len(evs)-*last)
		evs = evs[len(evs)-*last:]
	}
	for _, ev := range evs {
		fmt.Println(ev)
	}
	fmt.Println()
	fmt.Print(tr.Summary())
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		defer f.Close()
		d := obs.NewDump("trace", 42, tr, nil)
		if err := obs.WriteJSONL(f, d); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d events)\n", *jsonOut, len(d.Events))
	}
	return nil
}

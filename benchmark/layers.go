package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"themis/internal/exp"
	"themis/internal/trace"
)

// layerRun is the -trace mode: every per-layer metric of BENCHMARK.json.
// Exact counts (C) come from two plain repetitions of the workload, ns/op
// figures (P) from the layer probes, and the shares (T) from one seam-traced
// repetition of the cells the benchmark can assemble itself.
func layerRun(l *ledger, w workloadDef, o options) error {
	cells := o.cells(w)
	calibBefore := calibrate()
	warmUp(cells)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	times := newCellTimes(cells, 2)
	runs := runCells(l, cells, times)
	runtime.ReadMemStats(&after)
	checkTrials(l, runs)

	countMetrics(l, runs, times, &before, &after)
	routeMetrics(l, cells)
	spans := seamTrace(l, runs, times)
	obsOverhead(l, runs, times)
	runProbes(l, o.smoke)

	l.set("exp.peak_rss_mb", peakRSSMiB(), "MiB")
	l.printf("sim_digest=%s\n", simDigest(runs))
	printCalibration(l, calibBefore, calibrate())
	return writeSpans(o, w.name, spans)
}

// countMetrics derives the (C) metrics: exact counters summed over the first
// repetition's trials, plus the allocation and wall figures of the two plain
// repetitions.
func countMetrics(l *ledger, runs []cellRun, times []cellTimes, before, after *runtime.MemStats) {
	var (
		executed, cancelled, allocs, pkts, pktEvents uint64
		highWater                                    int
		wall                                         time.Duration
		spread                                       float64
		trialMs                                      []float64
		all                                          []exp.Trial
	)
	var net struct{ delivered, dataDrops, ecn, linkDrops, loopDrops, watchdog uint64 }
	var mw struct{ sprayed, seen, blocked, comp, misses, overflows, evictions, relearns uint64 }
	var snd struct{ data, retx, nacks, cnps, timeouts, completions uint64 }
	for i := range runs {
		lo, hi := times[i].walls[0], times[i].walls[0]
		for _, d := range times[i].walls {
			lo, hi = min(lo, d), max(hi, d)
		}
		wall += lo
		spread = max(spread, float64(hi-lo)/float64(lo))
		for _, ds := range times[i].trials {
			for _, d := range ds {
				trialMs = append(trialMs, d.Seconds()*1e3)
			}
		}
		for _, t := range runs[i].trials {
			all = append(all, t)
			executed += t.Engine.EventsExecuted
			cancelled += t.Engine.EventsCancelled
			allocs += t.Engine.EventAllocs
			highWater = max(highWater, t.Engine.HeapHighWater)
			if p := payloadPkts(t); p > 0 {
				pkts += p
				pktEvents += t.Engine.EventsExecuted
			}
			net.delivered += t.Net.Delivered
			net.dataDrops += t.Net.DataDrops
			net.ecn += t.Net.EcnMarks
			net.linkDrops += t.Net.LinkDrops
			net.loopDrops += t.Net.LoopDrops
			net.watchdog += t.Net.WatchdogFires
			mw.sprayed += t.Middleware.Sprayed
			mw.seen += t.Middleware.NacksSeen
			mw.blocked += t.Middleware.NacksBlocked
			mw.comp += t.Middleware.Compensations
			mw.misses += t.Middleware.ScanMisses
			mw.overflows += t.Middleware.RingOverflows
			mw.evictions += t.Middleware.Evictions
			mw.relearns += t.Middleware.Relearns
			snd.data += t.Sender.DataPackets
			snd.retx += t.Sender.Retransmits
			snd.nacks += t.Sender.NacksRx
			snd.cnps += t.Sender.CnpsRx
			snd.timeouts += t.Sender.Timeouts
			snd.completions += t.Sender.Completions
		}
	}
	count := func(name string, v uint64) { l.set(name, float64(v), "count") }

	count("sim.events_executed", executed)
	count("sim.events_cancelled", cancelled)
	count("sim.event_allocs", allocs)
	count("sim.queue_high_water", uint64(highWater))
	l.set("sim.cancel_ratio", ratio(cancelled, executed), "ratio")
	l.set("sim.events_per_pkt", ratio(pktEvents, pkts), "ratio")
	l.set("sim.events_per_wall_s", float64(executed)/wall.Seconds(), "1/s")

	count("fabric.delivered", net.delivered)
	count("fabric.data_drops", net.dataDrops)
	count("fabric.ecn_marks", net.ecn)
	count("fabric.link_drops", net.linkDrops)
	count("fabric.loop_drops", net.loopDrops)
	count("fabric.watchdog_fires", net.watchdog)

	count("core.sprayed", mw.sprayed)
	count("core.nacks_seen", mw.seen)
	count("core.nacks_blocked", mw.blocked)
	l.set("core.block_ratio", ratio(mw.blocked, mw.seen), "ratio")
	count("core.compensations", mw.comp)
	count("core.scan_misses", mw.misses)
	count("core.ring_overflows", mw.overflows)
	count("core.evictions", mw.evictions)
	count("core.relearns", mw.relearns)

	count("rnic.data_pkts", snd.data)
	l.set("rnic.retrans_ratio", ratio(snd.retx, snd.data), "ratio")
	count("rnic.nacks_rx", snd.nacks)
	count("rnic.cnps_rx", snd.cnps)
	count("rnic.timeouts", snd.timeouts)
	count("rnic.completions", snd.completions)

	// Both plain repetitions allocate alike, so halve the process-wide deltas.
	l.set("exp.allocs_per_pkt", float64(after.Mallocs-before.Mallocs)/2/float64(max(pkts, 1)), "ratio")
	l.set("exp.alloc_bytes_per_pkt", float64(after.TotalAlloc-before.TotalAlloc)/2/float64(max(pkts, 1)), "B")
	count("exp.gc_cycles", uint64(after.NumGC-before.NumGC))
	l.set("exp.cell_wall_spread", spread, "ratio")
	sort.Float64s(trialMs)
	l.set("exp.trial_wall_ms.p50", quantile(trialMs, 0.50), "ms")
	l.set("exp.trial_wall_ms.p98", quantile(trialMs, 0.98), "ms")

	l.attempted++
	ns, _, err := measure(5, 1, func(int) (func(), func() error) {
		var err error
		return func() { _, err = exp.NewReport("probe", all).JSON() }, func() error { return err }
	})
	if err != nil {
		l.fail("exp.report_json_ms: %v", err)
	}
	l.set("exp.report_json_ms", ns/1e6, "ms")
}

// quantile reads the q-quantile of sorted xs (nearest rank). Host times do
// not go through stats.Percentile: the simulation's own reports call it, and
// the context-insensitive taint analysis would then see wall-clock values
// reaching them.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[min(int(q*float64(len(xs))), len(xs)-1)]
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// routeMetrics re-runs the cells that use the distributed control plane with
// a metrics registry attached and sums the route plane's message and episode
// gauges. The registry is pull-based, so the observed run simulates exactly
// what the plain one did.
func routeMetrics(l *ledger, cells []cell) {
	var msgs, episodes float64
	for _, c := range cells {
		for _, sc := range c.grid {
			if !sc.DistributedRouting {
				continue
			}
			t := exp.RunObserved(sc, exp.Obs{Metrics: true})
			if v, ok := t.Metrics.Lookup("route.msgs"); ok {
				msgs += v
			}
			if v, ok := t.Metrics.Lookup("route.episodes"); ok {
				episodes += v
			}
		}
	}
	l.set("route.msgs", msgs, "count")
	l.set("route.episodes", episodes, "count")
}

// obsOverhead measures what switching the observability harness on costs:
// the workload's last seam-traceable scenario run with a packet tracer and a
// metrics registry, over the faster of its two plain repetitions.
func obsOverhead(l *ledger, runs []cellRun, times []cellTimes) {
	for i := len(runs) - 1; i >= 0; i-- {
		for j := len(runs[i].grid) - 1; j >= 0; j-- {
			sc := runs[i].grid[j]
			if !traceable(sc) {
				continue
			}
			l.attempted++
			t0 := time.Now()
			t := exp.RunObserved(sc, exp.Obs{Tracer: trace.New(1 << 16), Metrics: true})
			on := time.Since(t0)
			if t.Err != "" {
				l.fail("%s observed: %s", t.Name, t.Err)
			}
			walls := times[i].trials[j]
			l.set("obs.on_overhead_ratio", float64(on)/float64(min(walls[0], walls[1])), "ratio")
			return
		}
	}
	l.set("obs.on_overhead_ratio", 0, "ratio")
}

// peakRSSMiB reads the process's resident-set high-water mark. Diagnostic
// only: it varied 70–88 MB across identical processes when the benchmark was
// sized, which is why memory's end-to-end metric is the live heap instead.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

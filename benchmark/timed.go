package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"

	"themis/internal/exp"
)

// cellRun is one cell's simulated record: each scenario's trial from the first
// repetition and the SHA-256 of its JSON.
type cellRun struct {
	cell
	trials  []exp.Trial
	digests [][sha256.Size]byte
}

// cellTimes is one cell's host-time record. It is a separate value from
// cellRun on purpose: a wall-clock reading must never share a container with
// anything the simulation reads (themis-lint's taint analysis holds the
// benchmark to that, like the rest of the module).
type cellTimes struct {
	walls  []time.Duration   // per repetition: summed exp.Run wall time of the cell's trials
	trials [][]time.Duration // per trial, per repetition
}

// best is the cell's time estimate: the second-fastest repetition. Brief
// interference on the shared 2-core container only ever adds time, so the
// fast end of the sample is the steadier one (the same cell repeated in four
// processes: medians 11 % apart, minima 2.3 %); the second-fastest keeps that
// without resting on a single lucky sample. Drift of the whole host over
// tens of seconds is beyond any estimator inside one run: calib_ns records it
// and the metric bounds in BENCHMARK.json are sized for it.
func (t *cellTimes) best() time.Duration {
	return secondFastest(t.walls)
}

func secondFastest(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s) > 1 {
		return s[1]
	}
	return s[0]
}

// runCells executes reps repetitions of the cells, interleaved (A B C A B C
// …) so slow drift of the host lands on every cell alike, one trial at a
// time. Only exp.Run is inside the timed window; digests are taken outside
// it. A trial whose digest differs between repetitions is reported as
// nondeterministic. Host times go into times, which the caller makes with
// newCellTimes; they are not a second return value because the taint analysis
// does not tell a function's results apart.
func runCells(l *ledger, cells []cell, times []cellTimes) []cellRun {
	runs := make([]cellRun, len(cells))
	for i, c := range cells {
		runs[i] = cellRun{cell: c, trials: make([]exp.Trial, len(c.grid)), digests: make([][sha256.Size]byte, len(c.grid))}
	}
	for rep := range times[0].walls {
		for i := range runs {
			c := &runs[i]
			for j, sc := range c.grid {
				t0 := time.Now()
				trial := exp.Run(sc)
				wall := time.Since(t0)
				times[i].walls[rep] += wall
				times[i].trials[j] = append(times[i].trials[j], wall)
				digest := trialDigest(trial)
				if rep == 0 {
					c.trials[j], c.digests[j] = trial, digest
				} else if digest != c.digests[j] {
					l.fail("%s: report differs between repetitions 0 and %d (nondeterministic)", trial.Name, rep)
				}
			}
		}
	}
	return runs
}

// newCellTimes makes the empty host-time record for reps repetitions of cells.
func newCellTimes(cells []cell, reps int) []cellTimes {
	times := make([]cellTimes, len(cells))
	for i, c := range cells {
		times[i] = cellTimes{walls: make([]time.Duration, reps), trials: make([][]time.Duration, len(c.grid))}
	}
	return times
}

func trialDigest(t exp.Trial) [sha256.Size]byte {
	b, err := json.Marshal(t)
	if err != nil {
		panic(err) // Trial is plain data; Marshal cannot fail on it
	}
	return sha256.Sum256(b)
}

// checkTrials applies the correctness gate to every trial of the first
// repetition: no error, no invariant violation, and on the paper workloads
// payload conservation against the pattern-derived expectation.
func checkTrials(l *ledger, runs []cellRun) {
	for i := range runs {
		c := &runs[i]
		var bytes, completions uint64
		for _, t := range c.trials {
			l.attempted++
			if t.Err != "" {
				l.fail("%s: %s", t.Name, t.Err)
			}
			for _, v := range t.Violations {
				l.fail("%s: violation: %s", t.Name, v)
			}
			bytes += t.Sender.GoodputBytes
			completions += t.Sender.Completions
		}
		if c.wantBytes != 0 && (bytes != c.wantBytes || completions != c.wantCompletions) {
			l.fail("%s: payload conservation: goodput %d B in %d completions, pattern says %d B in %d",
				c.name, bytes, completions, c.wantBytes, c.wantCompletions)
		}
	}
}

// simDigest is SHA-256 over the cells' trial digests in order: equal digests
// on a parent and a change mean every simulated statistic is identical.
func simDigest(runs []cellRun) string {
	h := sha256.New()
	for i := range runs {
		for _, d := range runs[i].digests {
			h.Write(d[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// payloadPkts is the trial's distinct payload packets. Spray trials report no
// per-packet sender counters and contribute zero.
func payloadPkts(t exp.Trial) uint64 {
	if t.Sender.DataPackets < t.Sender.Retransmits {
		return 0
	}
	return t.Sender.DataPackets - t.Sender.Retransmits
}

// timedRun is the default mode: tracing off, end-to-end metrics.
func timedRun(l *ledger, w workloadDef, o options) {
	cells := o.cells(w)

	calibBefore := calibrate()
	setup := measureSetup(l, w, simSeed(o.seed), o.smoke)
	warmUp(cells)

	poll := startHeapPoller()
	times := newCellTimes(cells, o.reps())
	runs := runCells(l, cells, times)
	heapPeak := poll.stop()
	calibAfter := calibrate()

	checkTrials(l, runs)
	if w.verify != nil {
		w.verify(l, o.root)
	}

	var wall time.Duration
	var pkts uint64
	byName := map[string]exp.Trial{}
	l.printf("%-14s %7s %12s  %s\n", "cell", "trials", "best_s", "repetitions_s")
	for i := range runs {
		c, t := &runs[i], &times[i]
		wall += t.best()
		for _, trial := range c.trials {
			pkts += payloadPkts(trial)
		}
		byName[c.name] = c.trials[0]
		l.printf("%-14s %7d %12.4f  %s\n", c.name, len(c.trials), t.best().Seconds(), fmtSeconds(t.walls))
	}
	l.set("wall_s", wall.Seconds(), "s")
	l.set("pkts_per_wall_s", float64(pkts)/wall.Seconds(), "1/s")
	l.set("heap_live_peak_mb", float64(heapPeak)/(1<<20), "MiB")
	l.set("setup_s", setup.Seconds(), "s")

	l.printf("sim_digest=%s\n", simDigest(runs))
	l.printf("trial_fail_share=%d/%d\n", min(len(l.failures), l.attempted), l.attempted)
	if w.paperGap != nil {
		gap, note := w.paperGap(byName)
		l.printf("paper_gap=%.6f (%s)\n", gap, note)
	} else {
		l.printf("paper_gap=n/a (no paper reference for this workload: the model is unvalidated here)\n")
	}
	printCalibration(l, calibBefore, calibAfter)
}

// warmUp runs the first scenario at a quarter of its size, untimed, so the
// first repetition does not pay for page faults and lazy runtime set-up.
func warmUp(cells []cell) {
	sc := cells[0].grid[0]
	sc.MessageBytes /= 4
	exp.Run(sc)
}

// measureSetup reports the median of nine blocks of w.setupBuilds cluster
// constructions each. Construction is allocation-bound, so every block starts
// from a collected heap: otherwise a block's time depends on where in a GC
// cycle its predecessor stopped. Work a change moves out of the event loop
// into construction shows here.
func measureSetup(l *ledger, w workloadDef, seed int64, smoke bool) time.Duration {
	builds := w.setupBuilds
	if smoke {
		builds = max(builds/20, 1)
	}
	blocks := make([]time.Duration, 9)
	for b := range blocks {
		runtime.GC()
		t0 := time.Now()
		for i := 0; i < builds; i++ {
			if err := w.setupOnce(seed); err != nil {
				l.attempted++
				l.fail("setup: %v", err)
				return time.Since(t0)
			}
		}
		blocks[b] = time.Since(t0)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	return blocks[len(blocks)/2]
}

// checkArtifacts re-derives the committed BENCH_*.json artifacts (the five
// bench-smoke grids at seeds 1 and 2) and compares bytes. The artifacts are
// the repo's frozen simulated reference; the spray grid runs on two shards
// here, so a match also proves shard invariance.
func checkArtifacts(l *ledger, root string) {
	for _, c := range soakCells(1, 2) {
		l.attempted++
		trials := make([]exp.Trial, len(c.grid))
		for i, sc := range c.grid {
			trials[i] = exp.Run(sc)
		}
		got, err := exp.NewReport(c.name, trials).JSON()
		if err != nil {
			l.fail("%s: %v", exp.FileName(c.name), err)
			continue
		}
		want, err := os.ReadFile(filepath.Join(root, exp.FileName(c.name)))
		if err != nil {
			l.fail("%v", err)
			continue
		}
		if !bytes.Equal(got, want) {
			l.fail("%s: regenerated report differs from the committed artifact", exp.FileName(c.name))
		}
	}
}

func fmtSeconds(ds []time.Duration) string {
	var b bytes.Buffer
	for i, d := range ds {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.4f", d.Seconds())
	}
	return b.String()
}

// calibSink keeps the calibration loop's result observable.
var calibSink uint64

// calibrate times a fixed pure-Go loop — an integer mix plus a strided walk
// over 64 MiB — and returns the fastest of three passes. It is the run's
// yardstick for the host: two runs whose calib_ns differ were not measured on
// the same machine state. The buffer is dropped and collected before
// returning so it never counts towards heap_live_peak_mb.
func calibrate() time.Duration {
	buf := make([]uint64, 8<<20)
	best := time.Duration(math.MaxInt64)
	for pass := 0; pass < 3; pass++ {
		t0 := time.Now()
		x := uint64(0x9E3779B97F4A7C15)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		idx := 0
		for i := 0; i < 1_000_000; i++ {
			buf[idx] += x
			idx += 4099 // odd stride: visits a new cache line and page each step
			if idx >= len(buf) {
				idx -= len(buf)
			}
		}
		calibSink += x + buf[0]
		best = min(best, time.Since(t0))
	}
	buf = nil
	runtime.GC()
	return best
}

// printCalibration prints calib_ns and marks the run noisy when the host's
// speed changed by more than 5 % between its start and its end.
func printCalibration(l *ledger, before, after time.Duration) {
	drift := math.Abs(float64(after-before)) / float64(before)
	l.printf("calib_ns=%d calib_after_ns=%d noisy=%t\n", before.Nanoseconds(), after.Nanoseconds(), drift > 0.05)
}

// heapPoller samples the runtime's live-heap gauge every 10 ms. The gauge
// changes only at GC-cycle boundaries, so the peak is the largest heap any
// completed cycle found live.
type heapPoller struct {
	peak atomic.Uint64
	quit chan struct{}
	done chan struct{}
}

func startHeapPoller() *heapPoller {
	p := &heapPoller{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		for {
			select {
			case <-p.quit:
				return
			case <-tick.C:
				metrics.Read(sample)
				if v := sample[0].Value.Uint64(); v > p.peak.Load() {
					p.peak.Store(v)
				}
			}
		}
	}()
	return p
}

// stop ends the polling goroutine, waits for it and returns the peak.
func (p *heapPoller) stop() uint64 {
	close(p.quit)
	<-p.done
	return p.peak.Load()
}

// Benchmarks regenerating every table and figure of the paper. The root of
// the module is a test-only package: it exports nothing, and each benchmark
// builds the corresponding scenario grid and drives it through the experiment
// harness (internal/exp), the same front door `themis-sim run`/`sweep` use.
// `go test -bench=. -benchmem .` therefore doubles as the reproduction
// harness (see EXPERIMENTS.md for recorded outputs). The Fig. 1b/1c time series are emitted by
// `themis-sim run -workload motivation -series`; the benchmarks report the scalar averages.
//
// Scale: by default messages are scaled down from the paper (10 MB instead
// of 100 MB for Fig. 1, 3 MB instead of 300 MB for Fig. 5) so the whole
// suite finishes in minutes. Set THEMIS_FULL=1 to run the paper's sizes.
package themis_test

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"themis/internal/collective"
	"themis/internal/exp"
	"themis/internal/memmodel"
	"themis/internal/rnic"
	"themis/internal/workload"
)

func fullScale() bool { return os.Getenv("THEMIS_FULL") == "1" }

func fig1Bytes() int64 {
	if fullScale() {
		return 100 << 20
	}
	return 10 << 20
}

func fig5Bytes(pattern collective.Pattern) int64 {
	if fullScale() {
		return 300 << 20
	}
	if pattern == collective.AllToAll {
		// Alltoall splits the group size across G-1 peer messages; below
		// ~12 MB the per-pair messages are too small for the transport
		// dynamics to differentiate the arms (see EXPERIMENTS.md).
		return 12 << 20
	}
	return 3 << 20
}

// benchRunner is the worker pool every benchmark sweep shares: one worker
// per core, since each trial owns a whole engine.
func benchRunner() exp.Runner { return exp.Runner{Parallel: runtime.GOMAXPROCS(0)} }

// mustTrials fails the benchmark on the first errored trial.
func mustTrials(b *testing.B, trials []exp.Trial) []exp.Trial {
	b.Helper()
	for _, t := range trials {
		if t.Err != "" {
			b.Fatalf("%s: %s", t.Name, t.Err)
		}
	}
	return trials
}

// BenchmarkFig1b_RetransRatio regenerates Fig. 1b: the average retransmission
// ratio under random packet spraying + NIC-SR (paper: ≈ 0.16 average; ours is
// lower but decisively non-zero — see EXPERIMENTS.md).
func BenchmarkFig1b_RetransRatio(b *testing.B) {
	grid := []exp.Scenario{exp.Fig1Scenario(1, fig1Bytes(), rnic.SelectiveRepeat)}
	for i := 0; i < b.N; i++ {
		t := mustTrials(b, benchRunner().Run(grid))[0]
		if i == 0 {
			fmt.Printf("\n# Fig 1b: retransmission ratio, NIC-SR + random spraying (series: themis-sim run -workload motivation -series)\n")
			fmt.Printf("# average retransmission ratio (all flows): %.4f\n", t.RetransRatio)
		}
		b.ReportMetric(t.RetransRatio, "retrans/pkt")
	}
}

// BenchmarkFig1c_SendRate regenerates Fig. 1c: the average sending rate of
// flow 0→2 (paper: NACK-triggered drops, average ≈ 86 Gbps of 100 Gbps).
func BenchmarkFig1c_SendRate(b *testing.B) {
	grid := []exp.Scenario{exp.Fig1Scenario(1, fig1Bytes(), rnic.SelectiveRepeat)}
	for i := 0; i < b.N; i++ {
		t := mustTrials(b, benchRunner().Run(grid))[0]
		if i == 0 {
			fmt.Printf("\n# Fig 1c: sending rate (flow 0->2), NIC-SR + random spraying (series: themis-sim run -workload motivation -series)\n")
			fmt.Printf("# average rate: %.1f Gbps (line rate 100 Gbps)\n", t.AvgRateGbps)
		}
		b.ReportMetric(t.AvgRateGbps, "Gbps")
	}
}

// BenchmarkFig1d_Throughput regenerates Fig. 1d: average flow throughput of
// NIC-SR vs an ideal transport under random spraying (paper: 68.09 vs 95.43
// Gbps, a 0.71 ratio).
func BenchmarkFig1d_Throughput(b *testing.B) {
	grid := exp.Fig1Grid(fig1Bytes(), 1) // [nic-sr, ideal]
	for i := 0; i < b.N; i++ {
		trials := mustTrials(b, benchRunner().Run(grid))
		nicsr, ideal := trials[0], trials[1]
		if i == 0 {
			fmt.Printf("\n# Fig 1d: average throughput (Gbps), NIC-SR vs Ideal reliable transport\n")
			fmt.Printf("nic-sr %.2f\nideal  %.2f\nratio  %.2f (paper: 68.09/95.43 = 0.71)\n",
				nicsr.GoodputGbps, ideal.GoodputGbps, nicsr.GoodputGbps/ideal.GoodputGbps)
		}
		b.ReportMetric(nicsr.GoodputGbps, "Gbps-nicsr")
		b.ReportMetric(ideal.GoodputGbps, "Gbps-ideal")
	}
}

// BenchmarkTable1_MemoryModel regenerates Table 1 and the §4 worked example
// (paper: M_total ≈ 193 KB for a k=32 fat-tree ToR).
func BenchmarkTable1_MemoryModel(b *testing.B) {
	var total int
	for i := 0; i < b.N; i++ {
		m := memmodel.PaperDefaults()
		total = m.TotalBytes()
		if i == 0 {
			fmt.Printf("\n%s", m.Report())
		}
	}
	b.ReportMetric(float64(total)/1024, "KB")
}

// fig5 sweeps the Fig. 5 matrix for one pattern through the parallel runner
// and prints the paper's rows.
func fig5(b *testing.B, pattern collective.Pattern, label string) {
	grid := exp.Fig5Grid(1, fig5Bytes(pattern), pattern)
	arms := workload.Fig5Arms()
	for i := 0; i < b.N; i++ {
		trials := mustTrials(b, benchRunner().Run(grid))
		minRed, maxRed := 1.0, 0.0
		for s := 0; s < len(trials); s += len(arms) {
			arCCT, themisCCT := trials[s+1].CCTMillis, trials[s+2].CCTMillis
			red := (arCCT - themisCCT) / arCCT
			if red < minRed {
				minRed = red
			}
			if red > maxRed {
				maxRed = red
			}
		}
		if i == 0 {
			fmt.Printf("\n# Fig 5%s: %s tail completion time (ms), %d MB per group\n", label, pattern, fig5Bytes(pattern)>>20)
			fmt.Printf("%-12s %10s %10s %10s\n", "(TI,TD) us", "ecmp", "adaptive", "themis")
			for j, s := range workload.PaperDCQCNSettings() {
				row := trials[j*len(arms) : (j+1)*len(arms)]
				fmt.Printf("(%d,%d)%*s %10.3f %10.3f %10.3f\n",
					int64(s.TI.Microseconds()), int64(s.TD.Microseconds()),
					12-len(fmt.Sprintf("(%d,%d)", int64(s.TI.Microseconds()), int64(s.TD.Microseconds()))), "",
					row[0].CCTMillis, row[1].CCTMillis, row[2].CCTMillis)
			}
			fmt.Printf("# themis vs adaptive reduction: %.1f%% .. %.1f%%", minRed*100, maxRed*100)
			if pattern == collective.RingAllreduce {
				fmt.Printf(" (paper: 15.6%% .. 75.3%%)\n")
			} else {
				fmt.Printf(" (paper: 11.5%% .. 40.7%%)\n")
			}
		}
		b.ReportMetric(minRed*100, "minRed%")
		b.ReportMetric(maxRed*100, "maxRed%")
	}
}

// BenchmarkFig5a_Allreduce regenerates Fig. 5a: Allreduce tail CCT across
// DCQCN (TI,TD) settings for ECMP / adaptive routing / Themis.
func BenchmarkFig5a_Allreduce(b *testing.B) { fig5(b, collective.RingAllreduce, "a") }

// BenchmarkFig5b_Alltoall regenerates Fig. 5b: Alltoall tail CCT across
// DCQCN (TI,TD) settings for ECMP / adaptive routing / Themis.
func BenchmarkFig5b_Alltoall(b *testing.B) { fig5(b, collective.AllToAll, "b") }

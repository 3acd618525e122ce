// Ablation and extension benchmarks for the design choices DESIGN.md calls
// out, expressed as declarative scenario grids driven through internal/exp.
// These use a reduced 4x4x4 cluster (100 Gbps) so each runs in seconds.
package themis_test

import (
	"fmt"
	"testing"

	"themis/internal/core"
	"themis/internal/exp"
	"themis/internal/packet"
	"themis/internal/rnic"
	"themis/internal/sim"
	"themis/internal/workload"
)

// BenchmarkAblation_NoCompensation isolates §3.4: with NACK compensation
// disabled, blocked-but-real losses are only repaired by the sender's RTO.
// Measured under injected loss (every 500th data packet dropped).
func BenchmarkAblation_NoCompensation(b *testing.B) {
	grid := exp.LossRecoveryGrid(7) // [compensation on, compensation off]
	for i := 0; i < b.N; i++ {
		trials := mustTrials(b, benchRunner().Run(grid))
		on, off := trials[0], trials[1]
		if i == 0 {
			fmt.Printf("\n# Ablation §3.4: NACK compensation under real loss\n")
			fmt.Printf("compensation on : timeouts=%d cct=%.3fms\n", on.Sender.Timeouts, on.CCTMillis)
			fmt.Printf("compensation off: timeouts=%d cct=%.3fms\n", off.Sender.Timeouts, off.CCTMillis)
		}
		b.ReportMetric(float64(off.Sender.Timeouts), "timeouts-off")
		b.ReportMetric(float64(on.Sender.Timeouts), "timeouts-on")
	}
}

// BenchmarkAblation_GBNSpray shows the previous-generation (CX-4/5) RNIC
// behaviour the paper's §1 describes: Go-Back-N under spraying collapses.
func BenchmarkAblation_GBNSpray(b *testing.B) {
	sr := exp.AblationCell(7, workload.RandomSpray)
	sr.Name = "gbn-spray/nic-sr"
	sr.MessageBytes = 4 << 20
	gbn := sr
	gbn.Name = "gbn-spray/gbn"
	gbn.Transport = rnic.GoBackN
	grid := []exp.Scenario{sr, gbn}
	for i := 0; i < b.N; i++ {
		trials := mustTrials(b, benchRunner().Run(grid))
		if i == 0 {
			fmt.Printf("\n# Ablation §1: NIC-SR vs Go-Back-N under random packet spraying (allreduce, ms)\n")
			fmt.Printf("nic-sr %.3f (retrans ratio %.4f)\ngbn    %.3f (retrans ratio %.4f)\n",
				trials[0].CCTMillis, trials[0].RetransRatio,
				trials[1].CCTMillis, trials[1].RetransRatio)
		}
		b.ReportMetric(trials[1].CCTMillis/trials[0].CCTMillis, "gbn/sr")
	}
}

// BenchmarkAblation_Flowlet shows §2.3: RNIC hardware pacing leaves no
// flowlet gaps, so flowlet switching degenerates to flow-level balancing.
func BenchmarkAblation_Flowlet(b *testing.B) {
	grid := []exp.Scenario{
		exp.AblationCell(7, workload.Flowlet),
		exp.AblationCell(7, workload.ECMP),
		exp.AblationCell(7, workload.Themis),
	}
	for i := 0; i < b.N; i++ {
		trials := mustTrials(b, benchRunner().Run(grid))
		if i == 0 {
			fmt.Printf("\n# Ablation §2.3: flowlet vs ECMP vs Themis (allreduce tail CCT, ms)\n")
			fmt.Printf("flowlet %.3f\necmp    %.3f\nthemis  %.3f\n",
				trials[0].CCTMillis, trials[1].CCTMillis, trials[2].CCTMillis)
		}
		b.ReportMetric(trials[0].CCTMillis, "ms-flowlet")
	}
}

// BenchmarkAblation_QueueFactor sweeps §4's F: an undersized PSN ring evicts
// tPSNs before their NACK returns, forcing conservative forwarding.
func BenchmarkAblation_QueueFactor(b *testing.B) {
	grid := exp.QueueFactorGrid(7, []float64{0.05, 0.2, 0.5, 1.5, 3.0})
	for i := 0; i < b.N; i++ {
		trials := mustTrials(b, benchRunner().Run(grid))
		if i == 0 {
			fmt.Printf("\n# Ablation §4: PSN ring capacity factor F (allreduce)\n")
			fmt.Printf("%-6s %12s %12s %12s\n", "F", "cct_ms", "blocked", "scanMisses")
			for j, t := range trials {
				fmt.Printf("%-6.2f %12.3f %12d %12d\n", grid[j].Themis.QueueFactor,
					t.CCTMillis, t.Middleware.NacksBlocked, t.Middleware.ScanMisses)
			}
		}
	}
}

// BenchmarkExt_LinkFailure exercises the §6 failure response: a ToR with a
// failed uplink reverts to ECMP and the collective still completes.
func BenchmarkExt_LinkFailure(b *testing.B) {
	grid := []exp.Scenario{exp.LinkFailureScenario(7)}
	for i := 0; i < b.N; i++ {
		t := mustTrials(b, benchRunner().Run(grid))[0]
		if i == 0 {
			fmt.Printf("\n# Extension §6: link failure mid-collective (Themis -> ECMP fallback)\n")
			fmt.Printf("cct=%.3fms bypassed=%d sprayed=%d\n", t.CCTMillis, t.Middleware.Bypassed, t.Middleware.Sprayed)
		}
		b.ReportMetric(t.CCTMillis, "ms")
	}
}

// BenchmarkExt_Chaos runs a slice of the deterministic fault-injection soak
// (internal/chaos): seeded scenarios mixing link flaps, drop/corruption
// rates, control-plane loss, ToR reboots and blackholes against the hardened
// cluster, asserting the graceful-degradation invariants on every run.
func BenchmarkExt_Chaos(b *testing.B) {
	const seeds = 8
	grid := exp.ChaosGrid(1, seeds)
	for i := 0; i < b.N; i++ {
		trials := mustTrials(b, benchRunner().Run(grid))
		var worst float64
		var retrans, timeouts uint64
		for _, t := range trials {
			if len(t.Violations) != 0 {
				b.Fatalf("%s: %v", t.Name, t.Violations)
			}
			if t.CCTMillis > worst {
				worst = t.CCTMillis
			}
			retrans += t.Sender.Retransmits
			timeouts += t.Sender.Timeouts
		}
		if i == 0 {
			fmt.Printf("\n# Chaos soak: %d seeded fault scenarios, invariants audited\n", seeds)
			fmt.Printf("worst-case end=%.3fms retransmits=%d timeouts=%d\n", worst, retrans, timeouts)
		}
		b.ReportMetric(worst, "worst-ms")
	}
}

// BenchmarkExt_RandomLoss measures recovery with random corruption loss:
// valid NACKs must still pass Themis-D and repair promptly.
func BenchmarkExt_RandomLoss(b *testing.B) {
	grid := exp.LossRecoveryGrid(7)[:1] // the compensation-on arm
	for i := 0; i < b.N; i++ {
		t := mustTrials(b, benchRunner().Run(grid))[0]
		if i == 0 {
			fmt.Printf("\n# Extension: 1/500 packet loss under Themis spraying\n")
			fmt.Printf("cct=%.3fms retrans=%d timeouts=%d forwarded=%d compensated=%d\n",
				t.CCTMillis, t.Sender.Retransmits, t.Sender.Timeouts,
				t.Middleware.NacksForwarded, t.Middleware.Compensations)
		}
		b.ReportMetric(t.CCTMillis, "ms")
	}
}

// BenchmarkPathMapConstruction measures the offline §3.2 PathMap probe on a
// k=8 fat-tree (16 cross-pod paths). A micro-benchmark of the construction
// algorithm itself, not an experiment — it stays off the harness.
func BenchmarkPathMapConstruction(b *testing.B) {
	tp, err := workload.BuildCluster(workload.ClusterConfig{Seed: 1, FatTreeK: 8, Bandwidth: 100e9})
	if err != nil {
		b.Fatal(err)
	}
	key := packet.FlowKey{Src: 0, Dst: 127, SPort: 1000, DPort: 4791}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildPathMap(tp.Topo, key, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExt_PathSubset sweeps the §6 future-work extension: restricting
// each flow to k of the N equal-cost paths. k=1 degenerates to ECMP-like
// single-path; k=N is full spraying.
func BenchmarkExt_PathSubset(b *testing.B) {
	grid := exp.PathSubsetGrid(7, []int{1, 2, 4, 8, 16})
	for i := 0; i < b.N; i++ {
		trials := mustTrials(b, benchRunner().Run(grid))
		if i == 0 {
			fmt.Printf("\n# Extension §6: spray width k of N=16 paths (allreduce tail CCT, ms)\n")
			fmt.Printf("%-6s %12s %12s\n", "k", "cct_ms", "blocked")
			for j, t := range trials {
				fmt.Printf("%-6d %12.3f %12d\n", grid[j].Themis.PathSubset,
					t.CCTMillis, t.Middleware.NacksBlocked)
			}
		}
	}
}

// BenchmarkExt_PFC compares lossless (PFC) vs lossy fabric under a true
// 15:1 incast (everyone sends to host 0 at once). ECN needs a feedback RTT
// to throttle senders; during that dead time the burst overflows a shallow
// buffer unless PFC pauses hop-by-hop.
func BenchmarkExt_PFC(b *testing.B) {
	cell := exp.Scenario{
		Name:     "pfc/on",
		Workload: exp.Incast,
		ClusterConfig: workload.ClusterConfig{
			Seed:        7,
			Bandwidth:   100e9,
			LinkDelay:   5 * sim.Microsecond, // long feedback loop: ECN reacts late
			BufferBytes: 4 << 20,             // PFC headroom fits; the pre-CNP burst does not
			LB:          workload.Themis,
		},
		Shape: workload.Shape{Senders: 15, MessageBytes: 2 << 20},
	}
	lossy := cell
	lossy.Name = "pfc/off"
	lossy.DisablePFC = true
	grid := []exp.Scenario{cell, lossy}
	for i := 0; i < b.N; i++ {
		trials := mustTrials(b, benchRunner().Run(grid))
		lossless, lossyT := trials[0], trials[1]
		if i == 0 {
			fmt.Printf("\n# Extension: PFC (lossless) vs lossy fabric under 15:1 incast\n")
			fmt.Printf("pfc on : cct=%.3fms drops=%d retransmits=%d\n",
				lossless.CCTMillis, lossless.Net.DataDrops, lossless.Sender.Retransmits)
			fmt.Printf("pfc off: cct=%.3fms drops=%d retransmits=%d\n",
				lossyT.CCTMillis, lossyT.Net.DataDrops, lossyT.Sender.Retransmits)
		}
		b.ReportMetric(lossyT.CCTMillis/lossless.CCTMillis, "lossy/lossless")
	}
}

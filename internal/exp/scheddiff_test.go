package exp

import (
	"bytes"
	"testing"

	"themis/internal/sim"
)

// TestGridSchedulerEquivalence is the acceptance gate for the timing-wheel
// swap at the artifact level: every named grid's aggregated report must be
// BYTE-identical whether the engines underneath run on the hierarchical
// wheel or on the binary-heap oracle. The unit-level differential tests
// (sim/contract_test.go, sim/wheel_test.go, FuzzWheelHeapEquivalence) prove
// pop-order equivalence for arbitrary op sequences; this one proves the
// property composes through the full stack — fabric, transport, Themis
// middleware, metrics serialization — for the exact workloads whose
// BENCH_<name>.json artifacts CI publishes.
func TestGridSchedulerEquivalence(t *testing.T) {
	cases := []struct {
		name string
		grid []Scenario
	}{
		{"smoke", SmokeGrid(1, 2)},
		{"churn", ChurnGrid(1, 1)},
		{"convergence", ConvergenceGrid(1, 1)},
		{"spray", SprayGrid(1)},
	}
	runUnder := func(s sim.Scheduler, name string, grid []Scenario) []byte {
		prev := sim.SetDefaultScheduler(s)
		defer sim.SetDefaultScheduler(prev)
		out, err := NewReport(name, Runner{Parallel: 2}.Run(grid)).JSON()
		if err != nil {
			t.Fatalf("%s under %v: %v", name, s, err)
		}
		return out
	}
	for _, c := range cases {
		heap := runUnder(sim.SchedulerHeap, c.name, c.grid)
		wheel := runUnder(sim.SchedulerWheel, c.name, c.grid)
		if !bytes.Equal(heap, wheel) {
			t.Fatalf("grid %s: heap and wheel reports diverge at %s", c.name, firstDiff(heap, wheel))
		}
	}
}

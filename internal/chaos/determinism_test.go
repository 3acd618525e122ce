package chaos

import (
	"testing"

	"themis/internal/trace"
	"themis/internal/workload"
)

// runTraced executes one generated scenario with a tracer installed and
// returns the full result plus the retained event stream.
func runTraced(t *testing.T, seed int64) (workload.Outcome, []trace.Event) {
	t.Helper()
	opt := Options{ClusterConfig: workload.ClusterConfig{Tracer: trace.New(1 << 14)}}
	res, err := RunGenerated(seed, Generate, opt)
	if err != nil {
		t.Fatalf("run scenario: %v", err)
	}
	return res, opt.Tracer.Events()
}

// TestRunDeterminism is the regression test behind themis-lint's whole reason
// to exist: the same chaos seed must reproduce the run bit for bit. It runs
// one fault-heavy scenario twice and requires the retained trace-ring
// contents — every packet hop, verdict and fault, in order — and the final
// aggregate stats to be identical. Any wall-clock read, global-rand call or
// map-order leak into the event queue shows up here as a diff.
func TestRunDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		resA, evA := runTraced(t, seed)
		resB, evB := runTraced(t, seed)

		if resA.CCTMillis != resB.CCTMillis {
			t.Errorf("seed %d: end time differs: %vms vs %vms", seed, resA.CCTMillis, resB.CCTMillis)
		}
		if resA.Sender != resB.Sender {
			t.Errorf("seed %d: sender stats differ:\n  %+v\n  %+v", seed, resA.Sender, resB.Sender)
		}
		if resA.Middleware != resB.Middleware {
			t.Errorf("seed %d: middleware stats differ:\n  %+v\n  %+v", seed, resA.Middleware, resB.Middleware)
		}
		if resA.Net != resB.Net {
			t.Errorf("seed %d: fabric counters differ:\n  %+v\n  %+v", seed, resA.Net, resB.Net)
		}

		if len(evA) != len(evB) {
			t.Fatalf("seed %d: trace length differs: %d vs %d events", seed, len(evA), len(evB))
		}
		for i := range evA {
			if evA[i] != evB[i] {
				t.Fatalf("seed %d: trace diverges at event %d:\n  run A: %v\n  run B: %v",
					seed, i, evA[i], evB[i])
			}
		}
		if len(evA) == 0 {
			t.Errorf("seed %d: empty trace — tracer not wired through the run", seed)
		}
	}
}

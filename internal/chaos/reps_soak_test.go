package chaos

import (
	"testing"

	"themis/internal/sim"
	"themis/internal/workload"
)

// blackholeScenario is the recovery benchmark fault: leaf 1's first uplink
// silently eats every packet for 300 µs starting at 20 µs — long enough that
// spraying arms keep losing ~1/3 of their packets until their feedback reacts
// — and is then failed over and repaired by the detector.
func blackholeScenario(seed int64) Scenario {
	return Scenario{Seed: seed, Faults: []workload.Fault{
		{Kind: workload.Blackhole, At: 20 * sim.Microsecond, Duration: 300 * sim.Microsecond, Sw: 1, Port: 2},
	}}
}

// TestREPSRecoversFasterThanRPSUnderBlackhole is the REPS acceptance soak:
// across 50 seeds of the same silent-blackhole fault, the entropy cache must
// finish measurably sooner on average than feedback-blind random spraying.
// The mechanism: REPS' NACK/RTO feedback evicts entropy pointing into the
// hole and recycles only ACKed (known-good) values, so retransmissions steer
// around the dead spine, while RPS keeps spraying ~1/3 of every window into
// it until the detector fails the link over.
func TestREPSRecoversFasterThanRPSUnderBlackhole(t *testing.T) {
	const seeds = 50
	run := func(mode workload.LBMode) (meanMillis float64) {
		opt := Options{
			ClusterConfig: workload.ClusterConfig{LB: mode},
			Shape:         workload.Shape{LBArmed: true, MessageBytes: 256 << 10},
		}
		var total float64
		for seed := int64(1); seed <= seeds; seed++ {
			res, err := RunScenario(blackholeScenario(seed), opt)
			if err != nil {
				t.Fatalf("%v seed %d: %v", mode, seed, err)
			}
			if len(res.Violations) != 0 {
				t.Fatalf("%v seed %d violations: %v", mode, seed, res.Violations)
			}
			total += res.CCTMillis
		}
		return total / seeds
	}
	reps := run(workload.REPS)
	rps := run(workload.RandomSpray)
	t.Logf("mean completion: reps=%.3fms rps=%.3fms", reps, rps)
	if reps >= rps {
		t.Fatalf("REPS (%.3fms) did not beat RPS (%.3fms) under a blackhole", reps, rps)
	}
	// "Measurably": at least a few percent, not a rounding artifact.
	if margin := rps - reps; margin*100 < rps*2 {
		t.Fatalf("REPS margin %.3fms over RPS %.3fms is below 2%%", margin, rps)
	}
}

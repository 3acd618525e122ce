package workload

import (
	"reflect"
	"strings"
	"testing"

	"themis/internal/obs"
	"themis/internal/trace"
)

// TestArmTable: every row round-trips String↔ParseLB, builds a switch
// selector and a cluster, and only Themis installs ToR pipelines.
func TestArmTable(t *testing.T) {
	if len(arms) != int(CongestionAware)+1 {
		t.Fatalf("arm table has %d rows, constants end at %d", len(arms), int(CongestionAware))
	}
	seen := map[string]bool{}
	for i := range arms {
		m := LBMode(i)
		name := m.String()
		if name == "" || seen[name] {
			t.Fatalf("mode %d: empty or duplicate name %q", int(m), name)
		}
		seen[name] = true
		if got, err := ParseLB(name); err != nil || got != m {
			t.Fatalf("ParseLB(%q) = %v, %v; want %v", name, got, err, m)
		}
		cl, err := BuildCluster(ClusterConfig{Seed: 1, Leaves: 2, Spines: 2, HostsPerLeaf: 1, LB: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		a, _ := m.arm()
		if a.selector(&cl.Config) == nil {
			t.Fatalf("%v: nil selector", m)
		}
		if a.pipeline != (m == Themis) || (len(cl.Themis) > 0) != (m == Themis) {
			t.Fatalf("%v: pipeline=%v with %d ToR instances", m, a.pipeline, len(cl.Themis))
		}
	}
}

// TestUnknownArmIsAnError: an out-of-range LBMode (a hand-edited scenario)
// comes back as an error, never a panic, and ParseLB names the valid arms.
func TestUnknownArmIsAnError(t *testing.T) {
	for _, bad := range []LBMode{-1, LBMode(len(arms)), 99} {
		if _, err := BuildCluster(ClusterConfig{Leaves: 2, Spines: 2, HostsPerLeaf: 1, LB: bad}); err == nil {
			t.Fatalf("BuildCluster accepted LB %d", int(bad))
		}
		if _, err := RunSpray(SprayConfig{ClusterConfig: ClusterConfig{LB: bad}}); err == nil {
			t.Fatalf("RunSpray accepted LB %d", int(bad))
		}
		if !strings.HasPrefix(bad.String(), "LBMode(") {
			t.Fatalf("String() of %d = %q", int(bad), bad.String())
		}
	}
	_, err := ParseLB("nope")
	if err == nil {
		t.Fatal("ParseLB accepted an unknown name")
	}
	for i := range arms {
		if !strings.Contains(err.Error(), arms[i].name) {
			t.Fatalf("ParseLB error %q does not list %q", err, arms[i].name)
		}
	}
}

// sentinelCluster returns a ClusterConfig with every field set to a non-zero
// value, so a runner that drops or overrides one shows up in a comparison.
func sentinelCluster() ClusterConfig {
	var c ClusterConfig
	fillSentinel(reflect.ValueOf(&c).Elem())
	return c
}

func fillSentinel(v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	case reflect.Float64:
		v.SetFloat(7)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).CanSet() {
				fillSentinel(v.Field(i))
			}
		}
	}
}

// TestRunnerPins is the workload half of the "no silently dropped knob"
// contract (exp.TestScenarioLoweringTotal is the other): every ClusterConfig
// field a caller sets survives the runner's resolve untouched, except the
// pins each runner documents.
func TestRunnerPins(t *testing.T) {
	cases := []struct {
		name    string
		resolve func(ClusterConfig) ClusterConfig
		pin     func(*ClusterConfig)
	}{
		{"collective", func(c ClusterConfig) ClusterConfig {
			cfg := CollectiveConfig{ClusterConfig: c}
			cfg.resolve()
			return cfg.ClusterConfig
		}, func(c *ClusterConfig) { c.FatTreeK = 0 }},
		{"motivation", func(c ClusterConfig) ClusterConfig {
			cfg := MotivationConfig{ClusterConfig: c}
			cfg.resolve()
			return cfg.ClusterConfig
		}, func(c *ClusterConfig) {
			c.Leaves, c.Spines, c.HostsPerLeaf, c.FatTreeK, c.Bandwidth = 4, 4, 2, 0, 100e9
		}},
		{"incast", func(c ClusterConfig) ClusterConfig {
			cfg := IncastConfig{ClusterConfig: c, Senders: 5}
			cfg.resolve()
			return cfg.ClusterConfig
		}, func(c *ClusterConfig) { c.Leaves, c.Spines, c.HostsPerLeaf, c.FatTreeK = 6, 6, 1, 0 }},
		{"churn", func(c ClusterConfig) ClusterConfig {
			cfg := ChurnConfig{ClusterConfig: c}
			cfg.resolve()
			return cfg.ClusterConfig
		}, func(*ClusterConfig) {}},
		{"spray", func(c ClusterConfig) ClusterConfig {
			cfg := SprayConfig{ClusterConfig: c}
			cfg.resolve()
			return cfg.ClusterConfig
		}, func(*ClusterConfig) {}},
	}
	for _, c := range cases {
		want := sentinelCluster()
		c.pin(&want)
		if got := c.resolve(sentinelCluster()); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: resolve changed more than its pins:\n got  %+v\n want %+v", c.name, got, want)
		}
	}
	// Motivation's one value-dependent pin: the zero arm means RandomSpray.
	cfg := MotivationConfig{}
	cfg.resolve()
	if cfg.LB != RandomSpray {
		t.Fatalf("motivation default arm = %v", cfg.LB)
	}
}

// TestSprayRejectsUnshardableKnobs: what more than one shard cannot host is
// an error there, not a silently ignored knob — and is not refused where
// nothing is shared, nor is what shards never shared refused anywhere.
func TestSprayRejectsUnshardableKnobs(t *testing.T) {
	// Keyed by the words the error must carry. DropEveryNData is refused by
	// the cluster builder (the loss hook is the cluster's), the rest by the
	// fabric.
	for want, c := range map[string]ClusterConfig{
		"tracing":             {Tracer: trace.New(16)},
		"DropEveryNData":      {DropEveryNData: 100},
		"distributed routing": {DistributedRouting: true},
	} {
		_, err := RunSpray(SprayConfig{ClusterConfig: c, Shards: 2, MessageBytes: 4 << 10})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: RunSpray returned %v", want, err)
		}
	}

	// The refusals are causes, not workloads: on one shard the paper's own
	// arm runs the permutation traced, metered and under injected loss; on
	// several it runs metered — a ToR pipeline and a registry are per-ToR and
	// pull-based, nothing two shards share.
	for _, shards := range []int{0, 1, 2, 4} {
		c := ClusterConfig{Seed: 3, LB: Themis, Metrics: obs.NewRegistry()}
		if shards <= 1 {
			c.Tracer, c.DropEveryNData = trace.New(1<<16), 100
		}
		res, err := RunSpray(SprayConfig{ClusterConfig: c, Shards: shards, MessageBytes: 64 << 10})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		flows, _ := c.Metrics.Snapshot().Lookup("themis.flows")
		if res.Middleware.Sprayed == 0 || flows == 0 {
			t.Errorf("shards=%d: sprayed %d, themis.flows %v", shards, res.Middleware.Sprayed, flows)
		}
		if shards <= 1 && (res.Net.DataDrops == 0 || len(c.Tracer.ByOp(trace.Spray)) == 0) {
			t.Errorf("shards=%d: dropped %d, %d spray events in the trace", shards,
				res.Net.DataDrops, len(c.Tracer.ByOp(trace.Spray)))
		}
	}
}

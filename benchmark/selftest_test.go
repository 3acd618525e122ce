package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// manifest mirrors the fields of BENCHMARK.json the self-test checks.
type manifest struct {
	Workloads []struct{ Name string }
	EndToEnd  []manifestMetric `json:"end_to_end"`
	PerLayer  []manifestMetric `json:"per_layer"`
}

type manifestMetric struct{ Name, Unit string }

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// smokeRun runs the benchmark in-process at -smoke scale and returns the
// contract's last output line, decoded.
func smokeRun(t *testing.T, args ...string) result {
	t.Helper()
	var out bytes.Buffer
	if err := run(append(args, "-smoke"), &out); err != nil {
		t.Fatalf("run %v: %v\n%s", args, err, out.String())
	}
	if !strings.Contains(out.String(), "smoke (not comparable)") {
		t.Errorf("run %v: output is not labelled smoke", args)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("run %v: last line is not the result object: %v", args, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("run %v: correct=%t attempted=%d failed=%d\n%s", args, res.Correct, res.Attempted, res.Failed, out.String())
	}
	return res
}

// sameMetrics requires the printed metrics to be exactly the declared ones,
// name and unit.
func sameMetrics(t *testing.T, what string, got map[string]metric, want []manifestMetric) {
	t.Helper()
	declared := map[string]string{}
	for _, m := range want {
		declared[m.Name] = m.Unit
	}
	for name, m := range got {
		if unit, ok := declared[name]; !ok {
			t.Errorf("%s: printed metric %q is not in BENCHMARK.json", what, name)
		} else if unit != m.Unit {
			t.Errorf("%s: metric %q printed in %q, declared in %q", what, name, m.Unit, unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %q is %v", what, name, m.Value)
		}
	}
	for name := range declared {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: declared metric %q was not printed", what, name)
		}
	}
}

func TestManifestNames(t *testing.T) {
	m := readManifest(t)
	var declared []string
	for _, w := range m.Workloads {
		declared = append(declared, w.Name)
	}
	got := workloadNames()
	sort.Strings(declared)
	sort.Strings(got)
	if strings.Join(declared, " ") != strings.Join(got, " ") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", declared, got)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, name := range declared {
		if !valid.MatchString(name) {
			t.Errorf("workload name %q", name)
		}
	}
	for _, mm := range append(m.EndToEnd, m.PerLayer...) {
		if !valid.MatchString(mm.Name) {
			t.Errorf("metric name %q", mm.Name)
		}
	}
}

// TestEveryWorkloadAndMode runs each workload's timed and per-layer run and
// checks the printed metric set against BENCHMARK.json.
func TestEveryWorkloadAndMode(t *testing.T) {
	m := readManifest(t)
	for _, w := range workloadNames() {
		timed := smokeRun(t, "-workload", w, "-seed", "7")
		sameMetrics(t, w+" timed", timed.Metrics, m.EndToEnd)
		for name, v := range timed.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", w, name, v.Value)
			}
		}

		layers := smokeRun(t, "-workload", w, "-seed", "7", "-trace", "1")
		sameMetrics(t, w+" per-layer", layers.Metrics, m.PerLayer)
		sum := 0.0
		for name, v := range layers.Metrics {
			if strings.HasPrefix(name, "trace.share.") {
				sum += v.Value
			}
		}
		if math.Abs(sum-1) > 0.02 {
			t.Errorf("%s: seam-trace shares sum to %.4f, want 1 ± 0.02", w, sum)
		}
	}
}

func TestProbesAlone(t *testing.T) {
	res := smokeRun(t, "-probes")
	m := readManifest(t)
	declared := map[string]bool{}
	for _, mm := range m.PerLayer {
		declared[mm.Name] = true
	}
	for name := range res.Metrics {
		if !declared[name] {
			t.Errorf("probe metric %q is not in BENCHMARK.json", name)
		}
	}
}

func TestSimSeedStaysInVettedRange(t *testing.T) {
	for _, seed := range []int64{-130, -1, 0, 1, 7, 64, 65, 1 << 40} {
		if s := simSeed(seed); s < 1 || s > vettedSeeds {
			t.Errorf("simSeed(%d) = %d", seed, s)
		}
	}
	if simSeed(1) != 1 || simSeed(7) != 7 {
		t.Error("seeds inside the vetted range must map to themselves")
	}
}

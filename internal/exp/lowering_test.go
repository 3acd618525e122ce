package exp

import (
	"reflect"
	"strings"
	"testing"

	"themis/internal/workload"
)

// lowerings maps every table row to the shape lowering its run calls; a row
// missing here fails TestScenarioLoweringTotal.
var lowerings = map[Workload]any{
	Motivation: Scenario.motivation, Collective: Scenario.collective, Incast: Scenario.incast,
	Chaos: Scenario.chaos, Churn: Scenario.churn, Convergence: Scenario.chaos, Spray: Scenario.spray,
}

// lowered returns what sc's table row hands to its runner: the runner config
// first, then (collective) the fault schedule.
func lowered(t *testing.T, sc Scenario) []any {
	fn, ok := lowerings[sc.Workload]
	if !ok {
		t.Fatalf("no lowering listed for workload %q", sc.Workload)
	}
	var out []any
	for _, v := range reflect.ValueOf(fn).Call([]reflect.Value{reflect.ValueOf(sc), reflect.ValueOf(sc.ClusterConfig)}) {
		out = append(out, v.Interface())
	}
	return out
}

// setSentinel makes one leaf field non-zero.
func setSentinel(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
	default:
		t.Fatalf("setSentinel: unhandled kind %v", v.Kind())
	}
}

// TestScenarioLoweringTotal is the exp half of the "no silently dropped knob"
// contract (workload.TestRunnerPins and chaos.TestHarnessPins are the other).
// A cluster knob cannot be dropped here: the scenario embeds the
// ClusterConfig every runner config embeds, and run hands it over whole. What
// is left is the workload shape: set one shape field at a time to a sentinel
// and lower the scenario for every workload; it must reach at least one
// runner config. A new shape field with no lowering line fails here instead of
// being dropped.
func TestScenarioLoweringTotal(t *testing.T) {
	// Not shape: the trial's identity, the cluster, and Drain, which the
	// convergence row applies to the fault schedule itself.
	skip := map[string]bool{"Name": true, "Workload": true, "ClusterConfig": true, "Drain": true}
	st := reflect.TypeOf(Scenario{})
	shape := 0
	for i := 0; i < st.NumField(); i++ {
		name := st.Field(i).Name
		if skip[name] {
			continue
		}
		shape++
		reached := 0
		for _, row := range workloads {
			base := Scenario{Workload: row.name}
			sc := base
			setSentinel(t, reflect.ValueOf(&sc).Elem().Field(i))
			if !reflect.DeepEqual(lowered(t, sc), lowered(t, base)) {
				reached++
			}
		}
		if reached == 0 {
			t.Errorf("Scenario.%s reaches no workload's runner config", name)
		}
	}
	if shape < 10 {
		t.Fatalf("only %d Scenario shape fields found; the reflection walk is broken", shape)
	}
}

// TestUnknownArmIsATrialError: a hand-edited scenario with an out-of-range
// "lb" fails every workload with Trial.Err from Validate, before anything is
// built — run is called directly, so RunObserved's recover is not what
// catches it.
func TestUnknownArmIsATrialError(t *testing.T) {
	for _, row := range workloads {
		w := row.name
		tr := run(Scenario{
			Workload: w, ClusterConfig: workload.ClusterConfig{Seed: 1, LB: workload.LBMode(99)},
			LBArmed: true, MessageBytes: 4 << 10,
		}, nil, nil, 1)
		if !strings.Contains(tr.Err, "unknown LB mode 99") {
			t.Errorf("%s: Err = %q", w, tr.Err)
		}
	}
}

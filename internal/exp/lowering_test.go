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
	for _, v := range reflect.ValueOf(fn).Call([]reflect.Value{reflect.ValueOf(sc), reflect.ValueOf(sc.cluster())}) {
		out = append(out, v.Interface())
	}
	return out
}

// setSentinel makes one leaf field non-zero.
func setSentinel(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	case reflect.Float64:
		v.SetFloat(7)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
	default:
		t.Fatalf("setSentinel: unhandled kind %v", v.Kind())
	}
}

// TestScenarioLoweringTotal is the exp half of the "no silently dropped knob"
// contract (workload.TestRunnerPins and chaos.TestHarnessPins are the other):
// set one Scenario field at a time to a sentinel and lower the scenario for
// every workload. A cluster knob must change the lowered ClusterConfig of
// every workload — whatever a runner then pins is the runner's documented
// business — and a shape field must reach at least one runner config. A new
// Scenario field with no lowering line therefore fails here instead of being
// dropped.
func TestScenarioLoweringTotal(t *testing.T) {
	// Fields that are not cluster knobs: the trial's identity, the workload
	// shape, and Drain, which exp.run applies to the fault schedule itself.
	identity := map[string]bool{"Name": true, "Workload": true, "Drain": true}
	shape := map[string]bool{
		"LBArmed": true, "Pattern": true, "MessageBytes": true, "Groups": true,
		"Senders": true, "Flows": true, "QPs": true, "Concurrency": true,
		"Faults": true, "Horizon": true, "LinkFail": true,
	}
	// leaves lists the settable leaf fields of Scenario, descending into the
	// ThemisKnobs block so each knob is checked on its own.
	type leaf struct {
		name string
		get  func(*Scenario) reflect.Value
	}
	var leaves []leaf
	st := reflect.TypeOf(Scenario{})
	for i := 0; i < st.NumField(); i++ {
		i, f := i, st.Field(i)
		if identity[f.Name] {
			continue
		}
		if f.Type.Kind() != reflect.Struct {
			leaves = append(leaves, leaf{f.Name, func(s *Scenario) reflect.Value {
				return reflect.ValueOf(s).Elem().Field(i)
			}})
			continue
		}
		for j := 0; j < f.Type.NumField(); j++ {
			j := j
			leaves = append(leaves, leaf{f.Name + "." + f.Type.Field(j).Name, func(s *Scenario) reflect.Value {
				return reflect.ValueOf(s).Elem().Field(i).Field(j)
			}})
		}
	}
	if len(leaves) < 30 {
		t.Fatalf("only %d Scenario leaves found; the reflection walk is broken", len(leaves))
	}
	for _, lf := range leaves {
		reached := 0
		for _, row := range workloads {
			w := row.name
			base := Scenario{Workload: w}
			sc := base
			setSentinel(t, lf.get(&sc))
			got, zero := lowered(t, sc), lowered(t, base)
			if !reflect.DeepEqual(got, zero) {
				reached++
			}
			if shape[lf.name] {
				continue
			}
			cc := func(v []any) any { return reflect.ValueOf(v[0]).FieldByName("ClusterConfig").Interface() }
			if reflect.DeepEqual(cc(got), cc(zero)) {
				t.Errorf("Scenario.%s never reaches the %s workload's ClusterConfig: add it to Scenario.cluster()", lf.name, w)
			}
		}
		if reached == 0 {
			t.Errorf("Scenario.%s reaches no workload's runner config", lf.name)
		}
	}
}

// TestUnknownArmIsATrialError: a hand-edited scenario with an out-of-range
// "lb" fails every workload with Trial.Err straight from the runner — run is
// called directly, so RunObserved's recover is not what catches it.
func TestUnknownArmIsATrialError(t *testing.T) {
	for _, row := range workloads {
		w := row.name
		tr := run(Scenario{Workload: w, Seed: 1, LB: workload.LBMode(99), LBArmed: true, MessageBytes: 4 << 10}, nil, nil, 1)
		if !strings.Contains(tr.Err, "unknown LB mode 99") {
			t.Errorf("%s: Err = %q", w, tr.Err)
		}
	}
}

package exp

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"themis/internal/workload"
)

// TestRowsReceiveTheScenario is the exp half of the "no silently dropped
// knob" contract (workload.TestRunnerPins and chaos.TestHarnessPins are the
// rest): every row of the workload table is handed the scenario's Shape
// unchanged, and its ClusterConfig unchanged but for the hooks run attaches —
// the metrics registry and the trial's Cores. Every Shape field is set, by
// reflection, so a field added later is covered without being listed.
func TestRowsReceiveTheScenario(t *testing.T) {
	var shape workload.Shape
	sv := reflect.ValueOf(&shape).Elem()
	for i := 0; i < sv.NumField(); i++ {
		switch f := sv.Field(i); f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(1) // Pattern 1 is a valid pattern; Horizon 1 ps ends each run at once
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
		default:
			t.Fatalf("Shape.%s: unhandled kind %v", sv.Type().Field(i).Name, f.Kind())
		}
	}
	var got []workload.Config
	restore := ObserveClusters(func(c workload.Config) { got = append(got, c) })
	defer restore()
	for _, row := range workloads {
		sc := Scenario{
			Workload: row.name,
			ClusterConfig: workload.ClusterConfig{
				Seed: 5, Leaves: 2, Spines: 2, HostsPerLeaf: 2, Bandwidth: 100e9, LB: workload.Flowlet,
			},
			Shape: shape,
		}
		got = got[:0]
		RunObserved(sc, Obs{Metrics: true})
		if len(got) != 1 {
			t.Fatalf("%s: the row ran %d times", row.name, len(got))
		}
		want := workload.Config{ClusterConfig: sc.ClusterConfig, Shape: sc.Shape}
		want.Metrics, want.Cores = got[0].Metrics, runtime.GOMAXPROCS(0)
		if got[0].Metrics == nil || !reflect.DeepEqual(got[0], want) {
			t.Errorf("%s: row received\n %+v\nwant\n %+v", row.name, got[0], want)
		}
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
			Shape: workload.Shape{LBArmed: true, MessageBytes: 4 << 10},
		}, nil, nil, 1)
		if !strings.Contains(tr.Err, "unknown LB mode 99") {
			t.Errorf("%s: Err = %q", w, tr.Err)
		}
	}
}

package exp

import (
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"themis/internal/collective"
	"themis/internal/workload"
)

// TestRowsReceiveTheScenario is the exp half of the "no silently dropped
// knob" contract (workload.TestRunnerPins and chaos.TestHarnessPins are the
// rest): every row of the workload table is handed the scenario's Shape
// unchanged, and its ClusterConfig unchanged but for the hooks run attaches —
// the metrics registry and the trial's Cores. Every Shape field the row reads
// is set, by reflection, so a field added later is covered once a row lists
// it (a field no row reads is rejected, see TestUnreadShapeFieldIsAnError).
func TestRowsReceiveTheScenario(t *testing.T) {
	var got []workload.Config
	restore := ObserveClusters(func(c workload.Config) { got = append(got, c) })
	defer restore()
	for _, row := range workloads {
		var shape workload.Shape
		sv := reflect.ValueOf(&shape).Elem()
		for _, name := range row.reads {
			switch f := sv.FieldByName(name); f.Kind() {
			case reflect.Bool:
				f.SetBool(true)
			case reflect.Int, reflect.Int64:
				f.SetInt(1) // Pattern 1 is a valid pattern; Horizon 1 ps ends each run at once
			case reflect.Slice:
				f.Set(reflect.MakeSlice(f.Type(), 1, 1))
			default:
				t.Fatalf("%s reads Shape.%s: unhandled kind %v", row.name, name, f.Kind())
			}
		}
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

// TestUnreadShapeFieldIsAnError is the table of which workload.Shape fields
// each workload reads. Set alone, a field its workload reads validates, and
// any other is an error naming the field and its JSON key — a spray scenario
// with a link_fail schedule would otherwise run as if it had none.
func TestUnreadShapeFieldIsAnError(t *testing.T) {
	reads := map[Workload]string{
		Motivation:  "LBArmed MessageBytes Horizon",
		Collective:  "Pattern MessageBytes Groups Horizon LinkFail",
		Incast:      "MessageBytes Senders Horizon",
		Chaos:       "LBArmed MessageBytes Flows Horizon",
		Churn:       "MessageBytes QPs Concurrency Faults Horizon",
		Convergence: "MessageBytes Flows Horizon Drain",
		Spray:       "MessageBytes Horizon",
	}
	if len(reads) != len(workloads) {
		t.Fatalf("the table covers %d workloads, the workload table has %d", len(reads), len(workloads))
	}
	st := reflect.TypeOf(workload.Shape{})
	for _, row := range workloads {
		for i := 0; i < st.NumField(); i++ {
			field := st.Field(i)
			sc := Scenario{Workload: row.name}
			switch f := reflect.ValueOf(&sc.Shape).Elem().Field(i); f.Kind() {
			case reflect.Bool:
				f.SetBool(true)
			case reflect.Int, reflect.Int64:
				f.SetInt(1)
			case reflect.Slice:
				f.Set(reflect.MakeSlice(f.Type(), 1, 1))
			default:
				t.Fatalf("Shape.%s: unhandled kind %v", field.Name, f.Kind())
			}
			err := sc.Validate()
			if slices.Contains(strings.Fields(reads[row.name]), field.Name) {
				if err != nil {
					t.Errorf("%s with %s set: %v", row.name, field.Name, err)
				}
				continue
			}
			key := strings.Split(field.Tag.Get("json"), ",")[0]
			if err == nil || !strings.Contains(err.Error(), field.Name) || !strings.Contains(err.Error(), key) {
				t.Errorf("%s with %s set: err %v, want one naming %s and %q", row.name, field.Name, err, field.Name, key)
			}
		}
	}
	// An empty, non-nil schedule is no schedule.
	if err := (Scenario{Workload: Spray, Shape: workload.Shape{LinkFail: []workload.Fault{}}}).Validate(); err != nil {
		t.Errorf("spray with an empty link_fail: %v", err)
	}
}

// TestCommittedScenariosValidate: every committed grid, the Fig. 1 and Fig. 5
// cells and the §5.3 link-failure scenario set only shape fields their
// workloads read — the benchmark runs them, its warm-up changing only
// MessageBytes.
func TestCommittedScenariosValidate(t *testing.T) {
	scenarios := []Scenario{LinkFailureScenario(1)}
	for _, tr := range Fig1Arms() {
		scenarios = append(scenarios, Fig1Scenario(1, 1<<20, tr))
	}
	for _, p := range []collective.Pattern{collective.RingAllreduce, collective.AllToAll} {
		for _, lb := range workload.Fig5Arms() {
			scenarios = append(scenarios, Fig5Cell(1, 1<<20, p, workload.PaperDCQCNSettings()[0], lb))
		}
	}
	for _, g := range grids {
		scenarios = append(scenarios, g.Scenarios(1, 2, 0, collective.AllToAll)...)
	}
	for _, sc := range scenarios {
		if err := sc.Validate(); err != nil {
			t.Errorf("%s: %v", sc.Label(), err)
		}
		sc.MessageBytes /= 4
		if err := sc.Validate(); err != nil {
			t.Errorf("%s at a quarter size: %v", sc.Label(), err)
		}
	}
}

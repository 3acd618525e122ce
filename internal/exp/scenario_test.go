package exp

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"themis/internal/collective"
	"themis/internal/obs"
	"themis/internal/rnic"
	"themis/internal/trace"
	"themis/internal/workload"
)

// artifactScenarios returns the "scenario" record of every trial in the
// committed BENCH_*.json artifacts, as written.
func artifactScenarios(tb testing.TB) []json.RawMessage {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil || len(paths) < 5 {
		tb.Fatalf("committed artifacts: %v (%d found)", err, len(paths))
	}
	var out []json.RawMessage
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		var r struct {
			Trials []struct{ Scenario json.RawMessage }
		}
		if err := json.Unmarshal(raw, &r); err != nil {
			tb.Fatalf("%s: %v", path, err)
		}
		for _, tr := range r.Trials {
			out = append(out, tr.Scenario)
		}
	}
	return out
}

// TestScenarioWireFormatRoundTrips: every scenario the committed artifacts
// hold decodes into Scenario and re-encodes to the same bytes — the one wire
// format reads back what it wrote.
func TestScenarioWireFormatRoundTrips(t *testing.T) {
	for _, raw := range artifactScenarios(t) {
		var sc Scenario
		if err := json.Unmarshal(raw, &sc); err != nil {
			t.Fatalf("%s: %v", raw, err)
		}
		got, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.Compact(&want, raw); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("scenario does not round-trip:\nread  %s\nwrote %s", want.Bytes(), got)
		}
	}
}

// TestScenarioFieldsAreTagged: every exported leaf of Scenario, through the
// embedded ClusterConfig and its Themis block, states its wire form — a JSON
// key or json:"-" — so no knob serializes under a Go field name by accident.
func TestScenarioFieldsAreTagged(t *testing.T) {
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			_, tagged := f.Tag.Lookup("json")
			switch {
			case f.Anonymous:
				walk(f.Type, path)
			case !tagged:
				t.Errorf("%s%s has no json tag", path, f.Name)
			case f.Type.Kind() == reflect.Struct && f.Tag.Get("json") != "-":
				walk(f.Type, path+f.Name+".")
			}
		}
	}
	walk(reflect.TypeOf(Scenario{}), "Scenario.")
}

// numericLeaves returns the dotted path of every numeric leaf of Scenario —
// through ClusterConfig (embedded, so unprefixed) and its Themis block — with
// a setter, except Seed (any value is a seed) and RTOBackoff (<= 1 means a
// fixed RTO).
func numericLeaves() map[string]func(*Scenario, int64) {
	out := map[string]func(*Scenario, int64){}
	var walk func(typ reflect.Type, path string, idx []int)
	walk = func(typ reflect.Type, path string, idx []int) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			at := append(append([]int(nil), idx...), i)
			name := path + f.Name
			switch kind := f.Type.Kind(); {
			case !f.IsExported() || name == "Seed" || name == "RTOBackoff":
			case f.Anonymous:
				walk(f.Type, path, at)
			case kind == reflect.Struct:
				walk(f.Type, name+".", at)
			case kind == reflect.Int || kind == reflect.Int64:
				out[name] = func(s *Scenario, v int64) { reflect.ValueOf(s).Elem().FieldByIndex(at).SetInt(v) }
			case kind == reflect.Float64:
				out[name] = func(s *Scenario, v int64) { reflect.ValueOf(s).Elem().FieldByIndex(at).SetFloat(float64(v)) }
			}
		}
	}
	walk(reflect.TypeOf(Scenario{}), "", nil)
	return out
}

// TestOutOfRangeKnobsAreTrialErrors: every numeric leaf of a scenario at -1,
// and an unknown transport or pattern, is a Trial.Err naming the field on
// every workload — never a panic and never a "result". Validate is asked
// first and a value it accepts is not run: a bad knob that slipped through
// could simulate for minutes or exhaust memory.
func TestOutOfRangeKnobsAreTrialErrors(t *testing.T) {
	cases := map[string]func(*Scenario){
		"Transport": func(s *Scenario) { s.Transport = rnic.Transport(99) },
		"Pattern":   func(s *Scenario) { s.Pattern = collective.Pattern(99) },
	}
	for name, set := range numericLeaves() {
		cases[name] = func(s *Scenario) { set(s, -1) }
	}
	if len(cases) < 30 {
		t.Fatalf("only %d cases; the reflection walk is broken", len(cases))
	}
	for name, set := range cases {
		for _, row := range workloads {
			sc := Scenario{Workload: row.name, ClusterConfig: workload.ClusterConfig{Seed: 1}}
			set(&sc)
			if err := sc.Validate(); err == nil {
				t.Errorf("%s: Validate accepts %s out of range", row.name, name)
				continue
			}
			tr := RunObserved(sc, Obs{})
			if !strings.Contains(tr.Err, name) || strings.HasPrefix(tr.Err, "panic:") {
				t.Errorf("%s with %s out of range: Err = %q, want an error naming it", row.name, name, tr.Err)
			}
		}
	}
}

// TestScenarioHooksComeFromObs: a scenario that carries its own tracer or
// metrics registry is a Trial.Err naming exp.Obs — run wires both from Obs,
// and used to overwrite the scenario's silently.
func TestScenarioHooksComeFromObs(t *testing.T) {
	for name, cc := range map[string]workload.ClusterConfig{
		"Tracer":  {Seed: 1, Tracer: trace.New(16)},
		"Metrics": {Seed: 1, Metrics: obs.NewRegistry()},
	} {
		tr := Run(Scenario{Workload: Collective, ClusterConfig: cc})
		if !strings.Contains(tr.Err, "exp.Obs") {
			t.Errorf("scenario with its own %s: Err = %q, want one naming exp.Obs", name, tr.Err)
		}
	}
}

// FuzzScenarioJSON feeds the scenario decoder arbitrary bytes, seeded with
// every scenario the committed artifacts hold: whatever decodes must survive
// Validate without a panic and round-trip through encode and decode to an
// equal Scenario. It never runs a trial.
func FuzzScenarioJSON(f *testing.F) {
	for _, raw := range artifactScenarios(f) {
		f.Add([]byte(raw))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sc Scenario
		if json.Unmarshal(data, &sc) != nil {
			return
		}
		_ = sc.Validate()
		if len(sc.LinkFail) == 0 {
			sc.LinkFail = nil // omitempty writes an empty schedule as none
		}
		enc, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("decoded scenario does not encode: %v", err)
		}
		var back Scenario
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("%s does not decode: %v", enc, err)
		}
		if !reflect.DeepEqual(back, sc) {
			t.Fatalf("round trip changed the scenario:\n%+v\n%+v", sc, back)
		}
	})
}

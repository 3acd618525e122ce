package obs

import (
	"os"
	"path/filepath"
	"testing"

	"themis/internal/trace"
)

func TestFlightRecorderDumpAndReload(t *testing.T) {
	dir := t.TempDir()
	fr := NewFlightRecorder(dir)
	for _, ev := range sampleEvents() {
		fr.Tracer().Record(ev)
	}
	path, err := fr.Dump("smoke/seed 3", 3, []string{"boom"})
	if err != nil {
		t.Fatalf("dump: %v", err)
	}
	if filepath.Base(path) != "flight-smoke_seed_3.jsonl" {
		t.Fatalf("unexpected dump name: %s", path)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open dump: %v", err)
	}
	defer f.Close()
	d, err := ReadJSONL(f)
	if err != nil {
		t.Fatalf("reload dump: %v", err)
	}
	if d.Label != "smoke/seed 3" || d.Seed != 3 {
		t.Fatalf("metadata lost: %+v", d)
	}
	if len(d.Violations) != 1 || d.Violations[0] != "boom" {
		t.Fatalf("violations lost: %v", d.Violations)
	}
	if len(d.Events) != len(sampleEvents()) {
		t.Fatalf("events lost: got %d want %d", len(d.Events), len(sampleEvents()))
	}
	// No temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("dump dir should hold exactly the dump, got %d entries", len(entries))
	}
}

func TestFlightRecorderDefaultCapacity(t *testing.T) {
	fr := NewFlightRecorder(t.TempDir())
	for i := 0; i < DefaultFlightCapacity+5; i++ {
		fr.Tracer().Record(trace.Event{Op: trace.HostTx})
	}
	if got := fr.Tracer().Len(); got != DefaultFlightCapacity {
		t.Fatalf("default capacity: retained %d want %d", got, DefaultFlightCapacity)
	}
}

func TestFlightFileName(t *testing.T) {
	cases := map[string]string{
		"smoke":    "flight-smoke.jsonl",
		"a b/c:d":  "flight-a_b_c_d.jsonl",
		"":         "flight-unnamed.jsonl",
		"ok-1_2.x": "flight-ok-1_2.x.jsonl",
	}
	for in, want := range cases {
		if got := FlightFileName(in); got != want {
			t.Errorf("FlightFileName(%q) = %q, want %q", in, got, want)
		}
	}
}

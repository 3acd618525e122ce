package obs

import (
	"os"
	"path/filepath"
	"strings"

	"themis/internal/trace"
)

// DefaultFlightCapacity is the ring size of a flight recorder: large enough
// to hold the full event history of the harness's small scenarios, small
// enough (a few MB) to keep one per parallel trial.
const DefaultFlightCapacity = 1 << 16

// FlightRecorder couples a bounded trace ring with a dump directory. The
// experiment harness arms one only for a trial that already failed, on its
// one-shard replay (see exp.Obs.FlightDir), and Dump writes the retained
// window as a schema-v1 JSONL artifact; `themis-sim inspect` reconstructs the
// offending flow's timeline from the file.
type FlightRecorder struct {
	tracer *trace.Tracer
	dir    string
}

// NewFlightRecorder creates a recorder ringing the last DefaultFlightCapacity
// events and dumping into dir.
func NewFlightRecorder(dir string) *FlightRecorder {
	return &FlightRecorder{tracer: trace.New(DefaultFlightCapacity), dir: dir}
}

// Tracer returns the recording ring; install it as the cluster's tracer.
func (f *FlightRecorder) Tracer() *trace.Tracer { return f.tracer }

// Dump writes the retained events as <dir>/flight-<label>.jsonl, renamed into
// place so a reader never sees half a dump, and returns the path. The label
// is sanitized for use as a file name.
func (f *FlightRecorder) Dump(label string, seed int64, violations []string) (string, error) {
	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(f.dir, FlightFileName(label))
	d := NewDump(label, seed, f.tracer, violations)
	tmp, err := os.CreateTemp(f.dir, ".flight-*")
	if err != nil {
		return "", err
	}
	defer os.Remove(tmp.Name())
	if err := WriteJSONL(tmp, d); err != nil {
		tmp.Close()
		return "", err
	}
	if err := tmp.Close(); err != nil {
		return "", err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", err
	}
	return path, nil
}

// FlightFileName derives the dump file name for a run label:
// "flight-<sanitized label>.jsonl".
func FlightFileName(label string) string {
	s := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, label)
	if s == "" {
		s = "unnamed"
	}
	return "flight-" + s + ".jsonl"
}

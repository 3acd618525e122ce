package exp

import (
	"encoding/json"
	"os"
	"path/filepath"

	"themis/internal/stats"
)

// Aggregate digests a set of trials: per-metric summaries of the per-trial
// scalars (stats.Summarize, so p50/p99 are percentiles across trials), plus
// sweep-level counts.
type Aggregate struct {
	CCTMillis    stats.Summary `json:"cct_ms"`
	RetransRatio stats.Summary `json:"retrans_ratio"`
	GoodputGbps  stats.Summary `json:"goodput_gbps"`
	// Engine-wide event-loop totals across all trials.
	EventsExecuted uint64 `json:"events_executed"`
	EventAllocs    uint64 `json:"event_allocs"`
	EventReuses    uint64 `json:"event_reuses"`
	// Errors counts trials with a non-empty Err; Violations counts chaos
	// invariant violations across all trials.
	Errors     int `json:"errors"`
	Violations int `json:"violations"`
}

// Report is the serialized artifact of one sweep: the grid's trials in input
// order plus their aggregate. Marshal it with JSON() for a byte-stable form.
type Report struct {
	Name      string    `json:"name"`
	Trials    []Trial   `json:"trials"`
	Aggregate Aggregate `json:"aggregate"`
}

// NewReport aggregates trials into a named report. Failed trials count in
// Aggregate.Errors and are excluded from the metric summaries.
func NewReport(name string, trials []Trial) *Report {
	r := &Report{Name: name, Trials: trials}
	agg := &r.Aggregate
	var cct, retrans, goodput []float64
	for _, t := range trials {
		agg.EventsExecuted += t.Engine.EventsExecuted
		agg.EventAllocs += t.Engine.EventAllocs
		agg.EventReuses += t.Engine.EventReuses
		agg.Violations += len(t.Violations)
		if t.Err != "" {
			agg.Errors++
			continue
		}
		cct = append(cct, t.CCTMillis)
		retrans = append(retrans, t.RetransRatio)
		if t.GoodputGbps != 0 {
			goodput = append(goodput, t.GoodputGbps)
		}
	}
	agg.CCTMillis = stats.Summarize(cct)
	agg.RetransRatio = stats.Summarize(retrans)
	agg.GoodputGbps = stats.Summarize(goodput)
	return r
}

// JSON returns the canonical serialized form: indented, fixed field order,
// trailing newline. Byte-identical for identical trials.
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// FileName is the artifact naming convention: BENCH_<name>.json.
func FileName(name string) string { return "BENCH_" + name + ".json" }

// WriteFile serializes the report to dir/BENCH_<name>.json and returns the
// path written.
func (r *Report) WriteFile(dir string) (string, error) {
	b, err := r.JSON()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, FileName(r.Name))
	return path, os.WriteFile(path, b, 0o644)
}

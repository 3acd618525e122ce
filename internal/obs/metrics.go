package obs

import (
	"sort"

	"themis/internal/stats"
)

// Registry is a per-trial metrics registry. Components register instruments
// by name at construction time; the harness snapshots the registry into the
// trial record after the run. The registry is deliberately pull-oriented:
// gauge callbacks read the counter blocks components already maintain, so
// enabling metrics adds no per-event work to the simulation hot path at all —
// values are materialized once, at Snapshot time.
//
// All methods are nil-safe: a nil *Registry returns nil instruments (whose
// methods are also nil-safe no-ops), so instrumented code carries no guards
// and disabled metrics cost one predictable branch per observation.
//
// The registry is not safe for concurrent use and need not be: components
// register at build time and Snapshot runs after the run, both on the
// caller's goroutine, and in between each component touches only instruments
// of its own — nothing here is written by two shards. Each parallel trial
// owns its own instance.
type Registry struct {
	gauges map[string][]func() float64
	hists  map[string][]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		gauges: make(map[string][]func() float64),
		hists:  make(map[string][]*Histogram),
	}
}

// GaugeFunc registers a gauge callback under name. Gauges are additive:
// multiple callbacks under one name (e.g. one per ToR) are summed at
// Snapshot time, which is how per-instance counter blocks aggregate to
// cluster-wide metrics without any hot-path cost. No-op on nil.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.gauges[name] = append(r.gauges[name], fn)
}

// Histogram registers a new histogram under name and returns it. Histograms
// are additive like gauges: every caller gets its own instance (e.g. one per
// NIC) and the instances under one name are digested as one, their samples
// concatenated in registration order at Snapshot time. Nil registry returns a
// nil (no-op) histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h := &Histogram{}
	r.hists[name] = append(r.hists[name], h)
	return h
}

// Histogram accumulates samples; the registry digests them into percentiles
// at Snapshot time (via stats.Percentile).
type Histogram struct {
	samples []float64
}

// Observe records one sample. Safe on nil.
func (h *Histogram) Observe(v float64) {
	if h != nil {
		h.samples = append(h.samples, v)
	}
}

// Count returns the number of samples observed (0 on nil).
func (h *Histogram) Count() int {
	if h == nil {
		return 0
	}
	return len(h.samples)
}

// MetricValue is one named scalar in a snapshot.
type MetricValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistogramValue is one digested histogram in a snapshot.
type HistogramValue struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// Snapshot is the materialized state of a registry: every instrument,
// sorted by name, with gauge callbacks evaluated and histograms digested.
// Fixed field order and sorted names keep the JSON form byte-identical for
// identical runs (the report artifacts depend on this).
type Snapshot struct {
	Gauges     []MetricValue    `json:"gauges,omitempty"`
	Histograms []HistogramValue `json:"histograms,omitempty"`
}

// Snapshot materializes the registry. Nil registry yields nil.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	s := &Snapshot{}
	// Map iteration order is irrelevant here: the slices are sorted by name
	// before the snapshot is returned.
	for name, fns := range r.gauges { //lint:ordered snapshot slices are sorted by name before return
		sum := 0.0
		for _, fn := range fns {
			sum += fn()
		}
		s.Gauges = append(s.Gauges, MetricValue{Name: name, Value: sum})
	}
	for name, hs := range r.hists { //lint:ordered snapshot slices are sorted by name before return
		var samples []float64
		for _, h := range hs {
			samples = append(samples, h.samples...)
		}
		hv := HistogramValue{Name: name, Count: len(samples)}
		if len(samples) > 0 {
			hv.Mean = stats.Mean(samples)
			hv.P50 = stats.Percentile(samples, 50)
			hv.P90 = stats.Percentile(samples, 90)
			hv.P99 = stats.Percentile(samples, 99)
			hv.Max = stats.Percentile(samples, 100)
		}
		s.Histograms = append(s.Histograms, hv)
	}
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// Lookup returns the snapshot value of a named gauge, with ok reporting
// whether the name exists. Convenience for tests and tools; nil-safe.
func (s *Snapshot) Lookup(name string) (float64, bool) {
	if s == nil {
		return 0, false
	}
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value, true
		}
	}
	return 0, false
}

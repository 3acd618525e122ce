package obs

import (
	"encoding/json"
	"testing"
)

func TestGaugesAreAdditive(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("fabric.drops", func() float64 { return 2 })
	r.GaugeFunc("fabric.drops", func() float64 { return 5 })
	s := r.Snapshot()
	if v, ok := s.Lookup("fabric.drops"); !ok || v != 7 {
		t.Fatalf("additive gauge: got %v,%v want 7,true", v, ok)
	}
}

func TestGaugesPullAtSnapshotTime(t *testing.T) {
	r := NewRegistry()
	n := 0.0
	r.GaugeFunc("live", func() float64 { return n })
	n = 41
	if v, _ := r.Snapshot().Lookup("live"); v != 41 {
		t.Fatalf("gauge should be read at snapshot time: got %v", v)
	}
	n = 42
	if v, _ := r.Snapshot().Lookup("live"); v != 42 {
		t.Fatalf("gauge should be re-read per snapshot: got %v", v)
	}
}

func TestHistogramDigest(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := r.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("want 1 histogram, got %d", len(s.Histograms))
	}
	hv := s.Histograms[0]
	if hv.Count != 100 || hv.Max != 100 {
		t.Fatalf("digest: %+v", hv)
	}
	if hv.P50 < 49 || hv.P50 > 51 || hv.P99 < 98 {
		t.Fatalf("percentiles off: %+v", hv)
	}
}

// Histograms are additive like gauges: every Histogram(name) call is a new
// instance (no two components share one), and the instances under a name
// digest as one — count the sum, percentiles over the union of the samples.
func TestHistogramsAreAdditive(t *testing.T) {
	r := NewRegistry()
	a, b := r.Histogram("x"), r.Histogram("x")
	if a == b {
		t.Fatal("Histogram returned an instance it had returned before")
	}
	for i := 1; i <= 50; i++ {
		a.Observe(float64(i))
		b.Observe(float64(50 + i))
	}
	if a.Count() != 50 || b.Count() != 50 {
		t.Fatalf("instances share samples: counts %d, %d", a.Count(), b.Count())
	}
	s := r.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("want one digest for one name, got %+v", s.Histograms)
	}
	want := HistogramValue{Name: "x", Count: 100, Mean: 50.5, P50: 50, P90: 90, P99: 99, Max: 100}
	if s.Histograms[0] != want {
		t.Fatalf("digest %+v, want %+v", s.Histograms[0], want)
	}
}

func TestSnapshotSortedAndStable(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("m", func() float64 { return 1 })
	r.GaugeFunc("b", func() float64 { return 1 })
	r.Histogram("y").Observe(1)
	r.Histogram("c").Observe(1)
	first, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatalf("snapshot JSON not stable:\n%s\n%s", first, second)
	}
	s := r.Snapshot()
	if s.Gauges[0].Name != "b" || s.Histograms[0].Name != "c" {
		t.Fatalf("snapshot not sorted: %+v", s)
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.GaugeFunc("g", func() float64 { return 1 })
	h := r.Histogram("h")
	h.Observe(1)
	if h.Count() != 0 {
		t.Fatal("nil histogram should count 0")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot should be nil")
	}
	var s *Snapshot
	if _, ok := s.Lookup("x"); ok {
		t.Fatal("nil snapshot lookup should miss")
	}
}

func TestDisabledInstrumentsAllocateNothing(t *testing.T) {
	var r *Registry
	h := r.Histogram("off")
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(1.5)
	})
	if allocs != 0 {
		t.Fatalf("disabled metrics path allocates: %v allocs/op", allocs)
	}
}

package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"themis/internal/sim"
)

func TestSeriesBasics(t *testing.T) {
	s := NewSeries("x")
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Min()) || !math.IsNaN(s.Max()) {
		t.Fatal("empty series stats should be NaN")
	}
	s.Add(0, 1)
	s.Add(10, 3)
	s.Add(20, 2)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Mean() != 2 {
		t.Fatalf("Mean = %g", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 3 {
		t.Fatalf("Min/Max = %g/%g", s.Min(), s.Max())
	}
}

func TestSeriesTable(t *testing.T) {
	s := NewSeries("rate")
	s.Add(sim.Time(2*sim.Microsecond), 42)
	out := s.Table()
	if !strings.Contains(out, "# rate") || !strings.Contains(out, "2.000 42") {
		t.Fatalf("Table output:\n%s", out)
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	if Percentile(vals, 0) != 1 {
		t.Fatal("p0")
	}
	if Percentile(vals, 100) != 5 {
		t.Fatal("p100")
	}
	if Percentile(vals, 50) != 3 {
		t.Fatalf("p50 = %g", Percentile(vals, 50))
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("empty percentile should be NaN")
	}
	// Input must not be mutated.
	if vals[0] != 5 {
		t.Fatal("Percentile mutated input")
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean")
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("empty mean should be NaN")
	}
}

// Property: percentile is always within [min, max] and monotone in p.
func TestPercentileProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		va, vb := Percentile(vals, pa), Percentile(vals, pb)
		lo, hi := Percentile(vals, 0), Percentile(vals, 100)
		return va <= vb && va >= lo && vb <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRatioMeter(t *testing.T) {
	m := NewRatioMeter("retrans", sim.Microsecond)
	m.Observe(0, 1, 10)                            // 10% in window 0
	m.Observe(sim.Time(1100*sim.Nanosecond), 2, 4) // 50% in window 1
	// window 2 empty -> skipped
	m.Observe(sim.Time(3200*sim.Nanosecond), 0, 5) // 0% in window 3
	s := m.Finish(sim.Time(4 * sim.Microsecond))
	if s.Len() != 3 {
		t.Fatalf("windows = %d: %+v", s.Len(), s.Samples)
	}
	want := []float64{0.1, 0.5, 0}
	for i, w := range want {
		if math.Abs(s.Samples[i].V-w) > 1e-12 {
			t.Fatalf("window %d ratio = %g want %g", i, s.Samples[i].V, w)
		}
	}
}

func TestRatioMeterZeroWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRatioMeter("x", 0)
}

func TestPercentileSingleton(t *testing.T) {
	one := []float64{42}
	for _, p := range []float64{0, 1, 50, 99, 100} {
		if got := Percentile(one, p); got != 42 {
			t.Fatalf("p%g of singleton = %g, want 42", p, got)
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s != (Summary{}) {
		t.Fatalf("empty Summarize = %+v, want zero value", s)
	}
	// The zero summary is JSON-clean (no NaNs), unlike raw Percentile/Mean.
	if s.Count != 0 || s.Mean != 0 || s.P50 != 0 {
		t.Fatalf("empty summary not zeroed: %+v", s)
	}
}

func TestSummarizeSingleton(t *testing.T) {
	s := Summarize([]float64{7})
	want := Summary{Count: 1, Sum: 7, Mean: 7, Min: 7, Max: 7, P50: 7, P99: 7}
	if s != want {
		t.Fatalf("Summarize([7]) = %+v, want %+v", s, want)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.Count != 4 || s.Sum != 10 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("Summarize = %+v", s)
	}
	if s.P50 != 2 || s.P99 != 4 {
		t.Fatalf("percentiles = p50 %g p99 %g", s.P50, s.P99)
	}
}

// Package stats provides the measurement primitives used by the experiment
// harness: time series of samples, windowed rate meters, and summary
// statistics (mean/percentiles) for reproducing the paper's time-series
// figures (Fig. 1b, 1c) and scalar results (Fig. 1d, Fig. 5).
package stats

import (
	"fmt"
	"math"
	"sort"

	"themis/internal/sim"
)

// Sample is one (time, value) observation.
type Sample struct {
	T sim.Time
	V float64
}

// Series is an append-only time series.
type Series struct {
	Name    string
	Samples []Sample
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends an observation.
func (s *Series) Add(t sim.Time, v float64) {
	s.Samples = append(s.Samples, Sample{T: t, V: v})
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Samples) }

// Mean returns the arithmetic mean of the sample values (NaN if empty).
func (s *Series) Mean() float64 {
	if len(s.Samples) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range s.Samples {
		sum += x.V
	}
	return sum / float64(len(s.Samples))
}

// Min returns the minimum sample value (NaN if empty).
func (s *Series) Min() float64 {
	if len(s.Samples) == 0 {
		return math.NaN()
	}
	m := s.Samples[0].V
	for _, x := range s.Samples[1:] {
		if x.V < m {
			m = x.V
		}
	}
	return m
}

// Max returns the maximum sample value (NaN if empty).
func (s *Series) Max() float64 {
	if len(s.Samples) == 0 {
		return math.NaN()
	}
	m := s.Samples[0].V
	for _, x := range s.Samples[1:] {
		if x.V > m {
			m = x.V
		}
	}
	return m
}

// Table renders the series as "t_us value" rows, one per sample, suitable for
// plotting the paper's time-series figures.
func (s *Series) Table() string {
	out := fmt.Sprintf("# %s: time_us value\n", s.Name)
	for _, x := range s.Samples {
		out += fmt.Sprintf("%.3f %.6g\n", x.T.Microseconds(), x.V)
	}
	return out
}

// Percentile returns the p-th percentile (0..100) of values using nearest-rank
// on a sorted copy. NaN if values is empty.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// Mean returns the arithmetic mean of values (NaN if empty).
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

package stats

import "themis/internal/sim"

// RatioMeter measures the ratio of two counters (e.g. retransmitted packets /
// total packets) per window.
type RatioMeter struct {
	window     sim.Duration
	start      sim.Time
	num, denom float64
	series     *Series
}

// NewRatioMeter returns a per-window ratio meter.
func NewRatioMeter(name string, window sim.Duration) *RatioMeter {
	if window <= 0 {
		panic("stats: ratio meter window must be positive")
	}
	return &RatioMeter{window: window, series: NewSeries(name)}
}

// Observe adds num/denom contributions at time t.
func (m *RatioMeter) Observe(t sim.Time, num, denom float64) {
	m.advance(t)
	m.num += num
	m.denom += denom
}

func (m *RatioMeter) advance(t sim.Time) {
	for t >= m.start.Add(m.window) {
		m.flushWindow()
	}
}

func (m *RatioMeter) flushWindow() {
	if m.denom > 0 {
		m.series.Add(m.start, m.num/m.denom)
	}
	m.start = m.start.Add(m.window)
	m.num, m.denom = 0, 0
}

// Finish closes the trailing window and returns the series. Windows with a
// zero denominator are skipped (no traffic, no ratio).
func (m *RatioMeter) Finish(t sim.Time) *Series {
	m.advance(t)
	if m.denom > 0 {
		m.flushWindow()
	}
	return m.series
}

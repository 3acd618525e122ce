package stats

import "themis/internal/sim"

// RateMeter measures a byte (or event) rate over fixed windows, producing a
// time series of per-window rates. It reproduces the windowed measurements in
// Fig. 1b (retransmission ratio over time) and Fig. 1c (rate over time).
type RateMeter struct {
	window  sim.Duration
	start   sim.Time // start of current window
	current float64  // accumulated in current window
	series  *Series
}

// NewRateMeter returns a meter that closes a window every window duration.
func NewRateMeter(name string, window sim.Duration) *RateMeter {
	if window <= 0 {
		panic("stats: rate meter window must be positive")
	}
	return &RateMeter{window: window, series: NewSeries(name)}
}

// Observe adds amount at time t, closing any windows that have elapsed.
// Observations must be non-decreasing in time.
func (m *RateMeter) Observe(t sim.Time, amount float64) {
	m.advance(t)
	m.current += amount
}

// advance closes windows up to time t. Empty windows emit zero samples so
// idle periods are visible in the series.
func (m *RateMeter) advance(t sim.Time) {
	for t >= m.start.Add(m.window) {
		m.flushWindow()
	}
}

func (m *RateMeter) flushWindow() {
	end := m.start.Add(m.window)
	rate := m.current / m.window.Seconds() // per-second rate
	m.series.Add(m.start, rate)
	m.start = end
	m.current = 0
}

// Finish closes the window containing t (if it has content) and returns the
// series of per-second rates, one sample per window, stamped with the window
// start time.
func (m *RateMeter) Finish(t sim.Time) *Series {
	m.advance(t)
	if m.current != 0 {
		m.flushWindow()
	}
	return m.series
}

// Series returns the samples accumulated so far without closing the current
// window.
func (m *RateMeter) Series() *Series { return m.series }

// Reset discards all accumulated samples and pending window content and
// rewinds the window clock to zero, keeping the name and window size. The
// meter behaves as if freshly constructed (reused across trials).
func (m *RateMeter) Reset() {
	m.start = 0
	m.current = 0
	m.series = NewSeries(m.series.Name)
}

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

// Series returns the samples accumulated so far without closing the current
// window.
func (m *RatioMeter) Series() *Series { return m.series }

// Reset discards accumulated samples and pending contributions and rewinds
// the window clock to zero; see RateMeter.Reset.
func (m *RatioMeter) Reset() {
	m.start = 0
	m.num, m.denom = 0, 0
	m.series = NewSeries(m.series.Name)
}

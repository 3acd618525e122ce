package sim

// Timer is a restartable one-shot timer bound to an Engine, analogous to
// time.Timer. It is the building block for retransmission timeouts and
// DCQCN's periodic rate-increase events.
type Timer struct {
	engine *Engine
	fn     func()
	ev     *Event
}

// NewTimer returns a stopped timer that will run fn when it fires.
func NewTimer(e *Engine, fn func()) *Timer {
	return &Timer{engine: e, fn: fn}
}

// Reset (re)arms the timer to fire after d, cancelling any pending firing.
// The sender re-arms its RTO on every cumulative ACK, so this is per-packet
// work: the callback is the shared timerFire with the timer as its argument (a
// *Timer in an interface is a direct pointer), not a closure built per call.
func (t *Timer) Reset(d Duration) {
	t.Stop()
	t.ev = t.engine.ScheduleArg(d, timerFire, t)
}

func timerFire(a any) {
	t := a.(*Timer)
	t.ev = nil
	t.fn()
}

// Stop cancels the pending firing, if any. It reports whether a firing was
// pending.
func (t *Timer) Stop() bool {
	if t.ev == nil {
		return false
	}
	t.engine.Cancel(t.ev)
	t.ev = nil
	return true
}

// Active reports whether the timer currently has a pending firing.
func (t *Timer) Active() bool { return t.ev != nil }

// Deadline returns the time of the pending firing; valid only if Active.
func (t *Timer) Deadline() Time {
	if t.ev == nil {
		return Forever
	}
	return t.ev.Time()
}

// Ticker repeatedly invokes fn with a fixed period until stopped. The
// callback runs strictly periodically in virtual time (no drift).
type Ticker struct {
	engine  *Engine
	period  Duration
	fn      func()
	ev      *Event
	running bool
}

// NewTicker returns a stopped ticker. Call Start to begin ticking.
func NewTicker(e *Engine, period Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	return &Ticker{engine: e, period: period, fn: fn}
}

// Start arms the ticker; the first tick fires one period from now.
// Starting a running ticker restarts its phase.
func (t *Ticker) Start() {
	t.Stop()
	t.running = true
	t.arm()
}

func (t *Ticker) arm() { t.ev = t.engine.ScheduleArg(t.period, tickerFire, t) }

func tickerFire(a any) {
	t := a.(*Ticker)
	t.ev = nil
	t.fn()
	// Re-arm unless the callback stopped or restarted the ticker. The
	// callback runs before re-arming so SetPeriod applies to the very
	// next tick.
	if t.running && t.ev == nil {
		t.arm()
	}
}

// Stop cancels future ticks.
func (t *Ticker) Stop() {
	t.running = false
	if t.ev != nil {
		t.engine.Cancel(t.ev)
		t.ev = nil
	}
}

// SetPeriod changes the tick period; takes effect for the next tick.
func (t *Ticker) SetPeriod(p Duration) {
	if p <= 0 {
		panic("sim: ticker period must be positive")
	}
	t.period = p
}

// Active reports whether the ticker is running.
func (t *Ticker) Active() bool { return t.running }

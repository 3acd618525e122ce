// Package cc implements DCQCN [Zhu et al., SIGCOMM'15], the congestion
// control that commodity RNICs run and that the paper's evaluation sweeps
// (§5): the rate increase timer TI sets how quickly a sender recovers its
// rate, and the rate decrease interval TD bounds how often it cuts.
//
// The rate machine follows the published algorithm: a multiplicative
// decrease driven by CNPs with an EWMA congestion estimate α, and a
// three-phase increase (fast recovery, additive increase, hyper increase)
// driven by a timer and a byte counter. The paper's key observation (§2.2)
// is wired in through OnNack: commodity NICs treat NACKs as congestion, so a
// NACK triggers the same rate cut — the "unnecessary slow start" Themis
// eliminates.
package cc

import "themis/internal/sim"

// Config parameterizes DCQCN. Zero fields take the published defaults.
type Config struct {
	LineRate int64 // link rate in bits per second (required)
	MinRate  int64 // floor rate; default LineRate/1000

	// TI is the rate-increase timer period (the paper's T_I, default 900us:
	// the "recommended" setting of [27] used in Fig. 5's first column).
	TI sim.Duration
	// TD is the minimum interval between consecutive rate decreases (the
	// paper's T_D, default 4us).
	TD sim.Duration

	// AlphaG is the EWMA gain g for the congestion estimate (default 1/256).
	AlphaG float64
	// AlphaTimer is the α-decay period when no CNP arrives (default 55us).
	AlphaTimer sim.Duration
	// ByteCounter is the byte-counter threshold B for rate increases
	// (default 10 MB).
	ByteCounter int64
	// FastRecovery is the number of increase events in fast recovery
	// (default 5).
	FastRecovery int
	// RAI and RHAI are the additive and hyper increase steps (defaults
	// LineRate/100 and LineRate/20, matching the common practice of scaling
	// the published 40/400 Mbps steps to the link rate).
	RAI, RHAI int64
	// PathBuckets, when positive, enables per-path congestion estimates: one
	// α EWMA per entropy bucket (see PathAlpha). A CNP attributed to bucket b
	// (via OnCNPPath) marks and cuts by α_b instead of the flow-global α, so
	// a spraying flow crossing one congested path no longer cuts as if every
	// path were congested. Zero keeps the published flow-global behavior.
	PathBuckets int
	// NackFactor is the multiplicative cut applied when the transport
	// reports a NACK (the paper's "unnecessary slow start", §2.2). NACK
	// cuts are gated by TD like CNP cuts but are loss-signal responses:
	// they do not update α and do not restart the increase timer phase —
	// they only re-enter fast recovery towards the pre-cut rate. Default
	// 0.75.
	NackFactor float64

	// RateListener, if set, is invoked after every rate change (for the
	// Fig. 1c rate-over-time series).
	RateListener func(t sim.Time, rate int64)
}

func (c Config) withDefaults() Config {
	if c.LineRate <= 0 {
		panic("cc: Config.LineRate is required")
	}
	if c.MinRate == 0 {
		c.MinRate = c.LineRate / 1000
	}
	if c.MinRate <= 0 {
		c.MinRate = 1
	}
	if c.TI == 0 {
		c.TI = 900 * sim.Microsecond
	}
	if c.TD == 0 {
		c.TD = 4 * sim.Microsecond
	}
	if c.AlphaG == 0 {
		c.AlphaG = 1.0 / 256
	}
	if c.AlphaTimer == 0 {
		c.AlphaTimer = 55 * sim.Microsecond
	}
	if c.ByteCounter == 0 {
		c.ByteCounter = 10 << 20
	}
	if c.FastRecovery == 0 {
		c.FastRecovery = 5
	}
	if c.RAI == 0 {
		c.RAI = c.LineRate / 100
	}
	if c.RHAI == 0 {
		c.RHAI = c.LineRate / 20
	}
	if c.NackFactor == 0 {
		c.NackFactor = 0.75
	}
	return c
}

// Stats counts rate-machine events.
type Stats struct {
	Decreases      uint64 // rate cuts applied
	SuppressedCuts uint64 // decrease requests ignored inside a TD interval
	IncreaseEvents uint64 // timer/byte-counter increase events
	CNPs           uint64 // congestion notifications seen
	Nacks          uint64 // NACK-triggered decrease requests seen
}

// DCQCN is one sender's rate machine. It is bound to a sim.Engine for its
// timers; all methods must be called on the simulation goroutine.
type DCQCN struct {
	engine *sim.Engine
	cfg    Config

	rc    int64   // current rate
	rt    int64   // target rate
	alpha float64 // flow-global congestion estimate

	// paths holds the per-entropy-bucket estimates when Config.PathBuckets
	// is set; nil runs the published flow-global algorithm.
	paths *PathAlpha

	lastDecrease  sim.Time
	everDecreased bool

	// Increase machinery.
	timerStage int
	byteStage  int
	bytesAcc   int64

	incTimer   *sim.Ticker
	alphaTimer *sim.Timer

	stats Stats
}

// New returns a DCQCN instance at line rate.
func New(engine *sim.Engine, cfg Config) *DCQCN {
	cfg = cfg.withDefaults()
	d := &DCQCN{
		engine: engine,
		cfg:    cfg,
		rc:     cfg.LineRate,
		rt:     cfg.LineRate,
		alpha:  1,
	}
	if cfg.PathBuckets > 0 {
		d.paths = NewPathAlpha(cfg.PathBuckets, cfg.AlphaG)
	}
	d.incTimer = sim.NewTicker(engine, cfg.TI, d.onTimerIncrease)
	d.alphaTimer = sim.NewTimer(engine, d.onAlphaTimer)
	return d
}

// Rate returns the current sending rate in bits per second.
func (d *DCQCN) Rate() int64 { return d.rc }

// TargetRate returns the current target rate (for tests/introspection).
func (d *DCQCN) TargetRate() int64 { return d.rt }

// Alpha returns the congestion estimate (for tests/introspection).
func (d *DCQCN) Alpha() float64 { return d.alpha }

// Stats returns a snapshot of event counters.
func (d *DCQCN) Stats() Stats { return d.stats }

// Paths returns the per-bucket estimates, or nil when PathBuckets is unset
// (for tests/introspection).
func (d *DCQCN) Paths() *PathAlpha { return d.paths }

// OnCNP processes a congestion notification against the flow-global α.
func (d *DCQCN) OnCNP() {
	d.onCNP(-1)
}

// OnCNPPath processes a congestion notification attributed to an entropy
// bucket. With PathBuckets configured, the mark and the cut use that
// bucket's α; otherwise (or for an out-of-range bucket) it degrades to the
// flow-global OnCNP.
func (d *DCQCN) OnCNPPath(bucket int) {
	d.onCNP(bucket)
}

func (d *DCQCN) onCNP(bucket int) {
	d.stats.CNPs++
	if d.paths != nil && bucket >= 0 && bucket < d.paths.Buckets() {
		d.paths.OnMark(bucket)
	} else {
		bucket = -1
	}
	d.decrease(bucket)
}

// OnNack processes a NACK: commodity RNICs treat it as a congestion/loss
// signal and cut the rate — the paper's "unnecessary slow start" (§2.2).
// The cut is TD-gated like a CNP cut, but it neither updates α nor restarts
// the increase-timer phase: the rate dips by NackFactor and fast recovery
// pulls it back towards the pre-cut rate.
func (d *DCQCN) OnNack() {
	d.stats.Nacks++
	now := d.engine.Now()
	if d.everDecreased && now.Sub(d.lastDecrease) < d.cfg.TD {
		d.stats.SuppressedCuts++
		return
	}
	d.lastDecrease = now
	d.everDecreased = true
	d.stats.Decreases++

	if d.rc > d.rt {
		d.rt = d.rc
	}
	d.setRate(int64(float64(d.rc) * d.cfg.NackFactor))
	// Re-enter fast recovery without disturbing the running timer phase.
	d.timerStage = 0
	d.byteStage = 0
	d.bytesAcc = 0
	if !d.incTimer.Active() {
		d.incTimer.SetPeriod(d.cfg.TI)
		d.incTimer.Start()
	}
}

// OnTimeout processes a retransmission timeout with a full cut to MinRate
// (the most conservative slow start).
func (d *DCQCN) OnTimeout() {
	d.setRate(d.cfg.MinRate)
	d.rt = d.cfg.MinRate
	d.alpha = 1
	if d.paths != nil {
		d.paths.Reset()
	}
	d.resetIncreaseState()
}

// OnBytesSent advances the byte counter.
func (d *DCQCN) OnBytesSent(n int) {
	d.bytesAcc += int64(n)
	for d.bytesAcc >= d.cfg.ByteCounter {
		d.bytesAcc -= d.cfg.ByteCounter
		d.byteStage++
		d.increase()
	}
}

// decrease applies the CNP/NACK multiplicative decrease, rate-limited to one
// cut per TD. bucket >= 0 selects the per-path α for the cut (the bucket has
// already been marked by onCNP); -1 uses the flow-global α.
func (d *DCQCN) decrease(bucket int) {
	now := d.engine.Now()
	if d.everDecreased && now.Sub(d.lastDecrease) < d.cfg.TD {
		d.stats.SuppressedCuts++
		// α still tracks congestion inside the TD window.
		d.updateAlphaUp()
		return
	}
	d.lastDecrease = now
	d.everDecreased = true
	d.stats.Decreases++

	d.updateAlphaUp()
	alpha := d.alpha
	if bucket >= 0 {
		alpha = d.paths.Alpha(bucket)
	}
	d.rt = d.rc
	newRate := int64(float64(d.rc) * (1 - alpha/2))
	d.setRate(newRate)
	d.resetIncreaseState()
}

func (d *DCQCN) updateAlphaUp() {
	g := d.cfg.AlphaG
	d.alpha = (1-g)*d.alpha + g
	d.alphaTimer.Reset(d.cfg.AlphaTimer)
}

// onAlphaTimer decays α after a CNP-free period: every CNP re-arms the timer
// through updateAlphaUp, so it only fires a full period after the last one.
// The timer self-cancels once α has fully decayed so an idle sender leaves
// the event queue quiescent.
func (d *DCQCN) onAlphaTimer() {
	d.alpha = (1 - d.cfg.AlphaG) * d.alpha
	live := d.alpha >= 1e-4
	if d.paths != nil {
		d.paths.Decay()
		live = live || d.paths.Max() >= 1e-4
	}
	if live {
		d.alphaTimer.Reset(d.cfg.AlphaTimer)
	}
}

// resetIncreaseState restarts the increase machinery after a decrease.
func (d *DCQCN) resetIncreaseState() {
	d.timerStage = 0
	d.byteStage = 0
	d.bytesAcc = 0
	d.incTimer.SetPeriod(d.cfg.TI)
	d.incTimer.Start()
}

func (d *DCQCN) onTimerIncrease() {
	d.timerStage++
	d.increase()
}

// increase applies one rate-increase event per the DCQCN phases.
func (d *DCQCN) increase() {
	d.stats.IncreaseEvents++
	f := d.cfg.FastRecovery
	switch {
	case d.timerStage <= f && d.byteStage <= f:
		// Fast recovery: halve the gap to the target.
	case d.timerStage > f && d.byteStage > f:
		// Hyper increase.
		d.rt += d.cfg.RHAI
	default:
		// Additive increase.
		d.rt += d.cfg.RAI
	}
	if d.rt > d.cfg.LineRate {
		d.rt = d.cfg.LineRate
	}
	// Ceiling division so the rate actually reaches the target instead of
	// stalling one bit-per-second below it.
	d.setRate((d.rc + d.rt + 1) / 2)
	// Fully recovered: stop the increase timer so an idle simulation can
	// drain. The next decrease restarts it.
	if d.rc >= d.cfg.LineRate && d.rt >= d.cfg.LineRate {
		d.incTimer.Stop()
	}
}

func (d *DCQCN) setRate(r int64) {
	if r < d.cfg.MinRate {
		r = d.cfg.MinRate
	}
	if r > d.cfg.LineRate {
		r = d.cfg.LineRate
	}
	if r == d.rc {
		return
	}
	d.rc = r
	if d.cfg.RateListener != nil {
		d.cfg.RateListener(d.engine.Now(), r)
	}
}

// Stop cancels the rate machine's timers (a QP teardown hook).
func (d *DCQCN) Stop() {
	d.incTimer.Stop()
	d.alphaTimer.Stop()
}

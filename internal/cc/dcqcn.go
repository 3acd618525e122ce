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

// The rate machine's fixed parameters: the published DCQCN values [Zhu et
// al., SIGCOMM'15] and the NACK cut. A commodity RNIC's firmware fixes them;
// only TI and TD are settable (Config), and a sweep of one of these edits the
// constant.
const (
	// alphaG is the EWMA gain g for the congestion estimate α.
	alphaG = 1.0 / 256
	// alphaTimer is the α-decay period when no CNP arrives.
	alphaTimer = 55 * sim.Microsecond
	// byteCounter is the byte-counter threshold B for rate increases.
	byteCounter = 10 << 20
	// fastRecovery is the number of increase events in fast recovery (F).
	fastRecovery = 5
	// nackFactor is the multiplicative cut applied when the transport
	// reports a NACK (the paper's "unnecessary slow start", §2.2). NACK cuts
	// are gated by TD like CNP cuts but are loss-signal responses: they do
	// not update α and do not restart the increase timer phase — they only
	// re-enter fast recovery towards the pre-cut rate.
	nackFactor = 0.75
)

// Config parameterizes DCQCN. Zero fields take the published defaults.
type Config struct {
	LineRate int64 // link rate in bits per second (required)

	// TI is the rate-increase timer period (the paper's T_I, default 900us:
	// the "recommended" setting of [27] used in Fig. 5's first column).
	TI sim.Duration
	// TD is the minimum interval between consecutive rate decreases (the
	// paper's T_D, default 4us).
	TD sim.Duration

	// PathBuckets, when positive, enables per-path congestion estimates: one
	// α EWMA per entropy bucket (see PathAlpha). A CNP attributed to bucket b
	// (via OnCNPPath) marks and cuts by α_b instead of the flow-global α, so
	// a spraying flow crossing one congested path no longer cuts as if every
	// path were congested. Zero keeps the published flow-global behavior.
	PathBuckets int
}

func (c Config) withDefaults() Config {
	if c.LineRate <= 0 {
		panic("cc: Config.LineRate is required")
	}
	if c.TI == 0 {
		c.TI = 900 * sim.Microsecond
	}
	if c.TD == 0 {
		c.TD = 4 * sim.Microsecond
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

	// minRate (LineRate/1000, at least 1 bit/s) is the rate floor; rai and
	// rhai are the additive and hyper increase steps, LineRate/100 and
	// LineRate/20, matching the common practice of scaling the published
	// 40/400 Mbps steps to the link rate.
	minRate, rai, rhai int64

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
		engine:  engine,
		cfg:     cfg,
		minRate: max(cfg.LineRate/1000, 1),
		rai:     cfg.LineRate / 100,
		rhai:    cfg.LineRate / 20,
		rc:      cfg.LineRate,
		rt:      cfg.LineRate,
		alpha:   1,
	}
	if cfg.PathBuckets > 0 {
		d.paths = NewPathAlpha(cfg.PathBuckets, alphaG)
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
// the increase-timer phase: the rate dips by nackFactor and fast recovery
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
	d.setRate(int64(float64(d.rc) * nackFactor))
	// Re-enter fast recovery without disturbing the running timer phase.
	d.timerStage = 0
	d.byteStage = 0
	d.bytesAcc = 0
	if !d.incTimer.Active() {
		d.incTimer.SetPeriod(d.cfg.TI)
		d.incTimer.Start()
	}
}

// OnTimeout processes a retransmission timeout with a full cut to the floor
// (the most conservative slow start).
func (d *DCQCN) OnTimeout() {
	d.setRate(d.minRate)
	d.rt = d.minRate
	d.alpha = 1
	if d.paths != nil {
		d.paths.Reset()
	}
	d.resetIncreaseState()
}

// OnBytesSent advances the byte counter.
func (d *DCQCN) OnBytesSent(n int) {
	d.bytesAcc += int64(n)
	for d.bytesAcc >= byteCounter {
		d.bytesAcc -= byteCounter
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
	d.alpha = (1-alphaG)*d.alpha + alphaG
	d.alphaTimer.Reset(alphaTimer)
}

// onAlphaTimer decays α after a CNP-free period: every CNP re-arms the timer
// through updateAlphaUp, so it only fires a full period after the last one.
// The timer self-cancels once α has fully decayed so an idle sender leaves
// the event queue quiescent.
func (d *DCQCN) onAlphaTimer() {
	d.alpha = (1 - alphaG) * d.alpha
	live := d.alpha >= 1e-4
	if d.paths != nil {
		d.paths.Decay()
		live = live || d.paths.Max() >= 1e-4
	}
	if live {
		d.alphaTimer.Reset(alphaTimer)
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
	switch {
	case d.timerStage <= fastRecovery && d.byteStage <= fastRecovery:
		// Fast recovery: halve the gap to the target.
	case d.timerStage > fastRecovery && d.byteStage > fastRecovery:
		// Hyper increase.
		d.rt += d.rhai
	default:
		// Additive increase.
		d.rt += d.rai
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
	d.rc = min(max(r, d.minRate), d.cfg.LineRate)
}

// Stop cancels the rate machine's timers (a QP teardown hook).
func (d *DCQCN) Stop() {
	d.incTimer.Stop()
	d.alphaTimer.Stop()
}

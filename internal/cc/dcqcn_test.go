package cc

import (
	"testing"

	"themis/internal/sim"
)

const line = int64(100e9)

func newD(e *sim.Engine, mut func(*Config)) *DCQCN {
	cfg := Config{LineRate: line}
	if mut != nil {
		mut(&cfg)
	}
	return New(e, cfg)
}

func TestStartsAtLineRate(t *testing.T) {
	e := sim.NewEngine(1)
	d := newD(e, nil)
	if d.Rate() != line {
		t.Fatalf("rate = %d", d.Rate())
	}
	if d.Alpha() != 1 {
		t.Fatalf("alpha = %g", d.Alpha())
	}
}

func TestRequiresLineRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(sim.NewEngine(1), Config{})
}

func TestCNPCutsRate(t *testing.T) {
	e := sim.NewEngine(1)
	d := newD(e, nil)
	d.OnCNP()
	// alpha was updated to (1-g)*1+g = 1, cut = rc*(1-1/2) = 50G.
	if d.Rate() != line/2 {
		t.Fatalf("rate after CNP = %d, want %d", d.Rate(), line/2)
	}
	if d.TargetRate() != line {
		t.Fatalf("target = %d, want old rate", d.TargetRate())
	}
	if d.Stats().Decreases != 1 {
		t.Fatal("decrease not counted")
	}
}

func TestNackCutsRateByFactor(t *testing.T) {
	e := sim.NewEngine(1)
	d := newD(e, nil)
	a0 := d.Alpha()
	d.OnNack()
	if d.Rate() != int64(float64(line)*0.75) {
		t.Fatalf("rate after NACK = %d, want 75%% of line", d.Rate())
	}
	if d.Alpha() != a0 {
		t.Fatal("NACK cut must not update alpha")
	}
	if d.TargetRate() != line {
		t.Fatalf("target = %d, want pre-cut rate", d.TargetRate())
	}
	if d.Stats().Nacks != 1 || d.Stats().Decreases != 1 {
		t.Fatalf("stats = %+v", d.Stats())
	}
}

func TestNackCutRecoversViaFastRecovery(t *testing.T) {
	e := sim.NewEngine(1)
	d := newD(e, func(c *Config) { c.TI = 50 * sim.Microsecond })
	d.OnNack()
	e.Run(sim.Time(3 * sim.Millisecond))
	if d.Rate() != line {
		t.Fatalf("rate did not recover after NACK cut: %d", d.Rate())
	}
}

func TestNackCutDoesNotRestartTimerPhase(t *testing.T) {
	e := sim.NewEngine(1)
	d := newD(e, func(c *Config) { c.TI = 100 * sim.Microsecond; c.TD = sim.Microsecond })
	d.OnNack() // starts the timer at t=0; next tick at 100us
	// A second NACK at t=90us must not push the tick to t=190us.
	e.At(sim.Time(90*sim.Microsecond), func() { d.OnNack() })
	e.Run(sim.Time(105 * sim.Microsecond))
	if d.Stats().IncreaseEvents == 0 {
		t.Fatal("increase timer was restarted by the NACK cut")
	}
}

func TestTDGatesDecreases(t *testing.T) {
	e := sim.NewEngine(1)
	d := newD(e, func(c *Config) { c.TD = 10 * sim.Microsecond })
	var rates []int64
	e.At(0, func() { d.OnCNP() })
	e.At(sim.Time(2*sim.Microsecond), func() { d.OnCNP() })  // inside TD: suppressed
	e.At(sim.Time(5*sim.Microsecond), func() { d.OnCNP() })  // inside TD: suppressed
	e.At(sim.Time(15*sim.Microsecond), func() { d.OnCNP() }) // outside: cuts
	e.At(sim.Time(16*sim.Microsecond), func() { rates = append(rates, d.Rate()) })
	e.Run(sim.Time(20 * sim.Microsecond))
	st := d.Stats()
	if st.Decreases != 2 {
		t.Fatalf("decreases = %d, want 2", st.Decreases)
	}
	if st.SuppressedCuts != 2 {
		t.Fatalf("suppressed = %d, want 2", st.SuppressedCuts)
	}
}

func TestLargerTDMeansFewerCuts(t *testing.T) {
	run := func(td sim.Duration) uint64 {
		e := sim.NewEngine(1)
		d := newD(e, func(c *Config) { c.TD = td })
		for i := 0; i < 100; i++ {
			e.At(sim.Time(i)*sim.Time(2*sim.Microsecond), func() { d.OnNack() })
		}
		e.RunAll()
		return d.Stats().Decreases
	}
	small, big := run(4*sim.Microsecond), run(200*sim.Microsecond)
	if big >= small {
		t.Fatalf("TD=200us gave %d cuts, TD=4us gave %d", big, small)
	}
}

func TestFastRecoveryHalvesGap(t *testing.T) {
	e := sim.NewEngine(1)
	d := newD(e, func(c *Config) { c.TI = 100 * sim.Microsecond })
	d.OnCNP() // rc = 50G, rt = 100G
	rc0 := d.Rate()
	e.Run(sim.Time(100 * sim.Microsecond)) // one timer increase
	want := (rc0 + line) / 2
	if d.Rate() != want {
		t.Fatalf("after 1 FR event rate = %d, want %d", d.Rate(), want)
	}
	// After 5 fast-recovery rounds the rate is within 2^-5 of target.
	e.Run(sim.Time(500 * sim.Microsecond))
	if gap := line - d.Rate(); gap > line/32+1 {
		t.Fatalf("gap after FR = %d", gap)
	}
}

func TestSmallerTIRecoversFaster(t *testing.T) {
	recovery := func(ti sim.Duration) int64 {
		e := sim.NewEngine(1)
		d := newD(e, func(c *Config) { c.TI = ti })
		d.OnCNP()
		e.Run(sim.Time(900 * sim.Microsecond))
		return d.Rate()
	}
	fast, slow := recovery(10*sim.Microsecond), recovery(900*sim.Microsecond)
	if fast <= slow {
		t.Fatalf("TI=10us recovered to %d, TI=900us to %d", fast, slow)
	}
}

func TestByteCounterDrivesIncrease(t *testing.T) {
	e := sim.NewEngine(1)
	d := newD(e, func(c *Config) {
		c.TI = sim.Second // effectively disable the timer path
	})
	d.OnCNP()
	rc0 := d.Rate()
	d.OnBytesSent(byteCounter - 1)
	if d.Rate() != rc0 || d.Stats().IncreaseEvents != 0 {
		t.Fatal("increase before a full byte counter")
	}
	d.OnBytesSent(1) // one byte-counter event
	if d.Rate() <= rc0 {
		t.Fatal("byte counter did not increase rate")
	}
	if d.Stats().IncreaseEvents != 1 {
		t.Fatalf("increase events = %d", d.Stats().IncreaseEvents)
	}
}

// TestHyperIncreaseAfterBothExceedF walks the three increase phases from the
// floor, where the target is far below line rate: fastRecovery byte stages
// leave the target alone, the next adds RAI, timer stages add RAI while the
// timer is still in fast recovery, and once both are past it the step is
// RHAI.
func TestHyperIncreaseAfterBothExceedF(t *testing.T) {
	e := sim.NewEngine(1)
	d := newD(e, func(c *Config) { c.TI = 10 * sim.Microsecond })
	d.OnTimeout() // rc = rt = floor; the timer ticks at 10us, 20us, ...
	floor, rai, rhai := line/1000, line/100, line/20
	for i := 0; i < fastRecovery; i++ {
		d.OnBytesSent(byteCounter)
	}
	if d.TargetRate() != floor {
		t.Fatalf("target after %d fast-recovery stages = %d, want %d", fastRecovery, d.TargetRate(), floor)
	}
	d.OnBytesSent(byteCounter) // byte stage 6: additive
	if d.TargetRate() != floor+rai {
		t.Fatalf("target after byte stage %d = %d, want %d", fastRecovery+1, d.TargetRate(), floor+rai)
	}
	e.Run(sim.Time(fastRecovery * 10 * sim.Microsecond)) // timer stages 1-5: additive
	if want := floor + (fastRecovery+1)*rai; d.TargetRate() != want {
		t.Fatalf("target after %d timer stages = %d, want %d", fastRecovery, d.TargetRate(), want)
	}
	e.Run(sim.Time((fastRecovery + 1) * 10 * sim.Microsecond)) // both past F: hyper
	if want := floor + (fastRecovery+1)*rai + rhai; d.TargetRate() != want {
		t.Fatalf("target after hyper increase = %d, want %d", d.TargetRate(), want)
	}
	if d.Rate() > d.TargetRate() {
		t.Fatalf("rate %d above target %d", d.Rate(), d.TargetRate())
	}
}

func TestAlphaDecaysWithoutCNPs(t *testing.T) {
	e := sim.NewEngine(1)
	d := newD(e, nil)
	d.OnCNP()
	a0 := d.Alpha()
	e.Run(sim.Time(sim.Millisecond)) // many alpha periods, no CNPs
	if d.Alpha() >= a0 {
		t.Fatalf("alpha did not decay: %g -> %g", a0, d.Alpha())
	}
	// A later cut is therefore gentler than a half cut.
	r0 := d.Rate()
	d.OnCNP()
	if d.Rate() <= r0/2 {
		t.Fatalf("cut with decayed alpha too deep: %d -> %d", r0, d.Rate())
	}
}

func TestTimeoutResetsToMinRate(t *testing.T) {
	e := sim.NewEngine(1)
	d := newD(e, nil)
	d.OnCNP()
	d.OnTimeout()
	if d.Rate() != line/1000 || d.TargetRate() != line/1000 {
		t.Fatalf("rate/target after timeout = %d/%d, want %d", d.Rate(), d.TargetRate(), line/1000)
	}
	if d.Alpha() != 1 {
		t.Fatal("alpha not reset")
	}
}

func TestRateFloorAndCeiling(t *testing.T) {
	e := sim.NewEngine(1)
	d := newD(e, nil)
	for i := 0; i < 100; i++ {
		d.OnCNP()
		// Space the cuts out past TD, well inside one TI.
		next := e.Now().Add(5 * sim.Microsecond)
		e.At(next, func() {})
		e.Run(next)
	}
	if d.Rate() != line/1000 {
		t.Fatalf("rate %d after 100 cuts, want the floor %d", d.Rate(), line/1000)
	}
	e.RunAll()
	if d.Rate() != line {
		t.Fatalf("rate %d after recovery, want line rate %d", d.Rate(), line)
	}
}

func TestTinyLineRateFloorIsOne(t *testing.T) {
	e := sim.NewEngine(1)
	d := New(e, Config{LineRate: 999})
	d.OnTimeout()
	if d.Rate() != 1 {
		t.Fatalf("floor = %d, want 1 bit/s", d.Rate())
	}
}

func TestStopCancelsTimers(t *testing.T) {
	e := sim.NewEngine(1)
	d := newD(e, func(c *Config) { c.TI = 10 * sim.Microsecond })
	d.OnCNP()
	d.Stop()
	if e.Pending() != 0 {
		t.Fatalf("pending events after Stop = %d", e.Pending())
	}
}

func TestRecoveryToLineRateEventually(t *testing.T) {
	e := sim.NewEngine(1)
	d := newD(e, func(c *Config) { c.TI = 50 * sim.Microsecond })
	d.OnCNP()
	// Simulate sending while recovering.
	tick := sim.NewTicker(e, 10*sim.Microsecond, func() { d.OnBytesSent(125000) })
	tick.Start()
	e.Run(sim.Time(20 * sim.Millisecond))
	tick.Stop()
	d.Stop()
	if d.Rate() != line {
		t.Fatalf("rate did not recover to line: %d", d.Rate())
	}
}

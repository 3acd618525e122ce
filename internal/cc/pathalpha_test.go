package cc

import (
	"testing"

	"themis/internal/sim"
)

func TestPathAlphaStartsCautious(t *testing.T) {
	p := NewPathAlpha(4, 1.0/256)
	if p.Buckets() != 4 {
		t.Fatalf("buckets = %d", p.Buckets())
	}
	for b := 0; b < 4; b++ {
		if p.Alpha(b) != 1 {
			t.Fatalf("bucket %d starts at %g, want 1", b, p.Alpha(b))
		}
	}
	if p.Max() != 1 {
		t.Fatalf("max = %g", p.Max())
	}
}

func TestPathAlphaMarkAndDecayAreLocal(t *testing.T) {
	g := 0.5
	p := NewPathAlpha(3, g)
	// Decay all, then mark only bucket 1: its estimate rises while the others
	// keep falling — the independence that motivates per-path state.
	p.Decay() // all 0.5
	p.OnMark(1)
	if got, want := p.Alpha(1), (1-g)*0.5+g; got != want {
		t.Fatalf("marked bucket = %g, want %g", got, want)
	}
	if p.Alpha(0) != 0.5 || p.Alpha(2) != 0.5 {
		t.Fatalf("mark leaked: %g, %g", p.Alpha(0), p.Alpha(2))
	}
	p.Decay()
	if p.Alpha(1) <= p.Alpha(0) {
		t.Fatalf("ordering lost after decay: %g vs %g", p.Alpha(1), p.Alpha(0))
	}
	if p.Max() != p.Alpha(1) {
		t.Fatalf("max = %g, want bucket 1's %g", p.Max(), p.Alpha(1))
	}
	p.Reset()
	for b := 0; b < 3; b++ {
		if p.Alpha(b) != 1 {
			t.Fatalf("reset left bucket %d at %g", b, p.Alpha(b))
		}
	}
}

// TestCNPPathCutsByBucketAlpha: with per-path estimates enabled, the cut uses
// the attributed bucket's α — a decayed clean-path estimate cuts far less
// than the flow-global α=1 would.
func TestCNPPathCutsByBucketAlpha(t *testing.T) {
	e := sim.NewEngine(1)
	d := newD(e, func(c *Config) { c.PathBuckets = 4 })
	if d.Paths() == nil || d.Paths().Buckets() != 4 {
		t.Fatal("per-path estimates not armed")
	}
	// Decay bucket 2 well below 1 without touching the machine's rate.
	for i := 0; i < 600; i++ {
		d.Paths().Decay()
	}
	a2 := d.Paths().Alpha(2) // (1-g)^600 ≈ 0.096
	d.OnCNPPath(2)
	// The mark runs first: α₂ ← (1-g)α₂+g, then the cut is rc·(1-α₂/2).
	marked := (1-alphaG)*a2 + alphaG
	want := int64(float64(line) * (1 - marked/2))
	if d.Rate() != want {
		t.Fatalf("rate = %d, want %d (cut by bucket α %g)", d.Rate(), want, marked)
	}
	// The flow-global α was still EWMA'd up (it feeds the legacy quiescence
	// logic), but the cut must not have used it: a flow-global cut from α=1
	// would have halved the rate.
	if d.Rate() <= line/2 {
		t.Fatalf("cut used flow-global alpha: rate = %d", d.Rate())
	}
}

// TestCNPPathOutOfRangeDegradesToGlobal: buckets outside [0, PathBuckets)
// fall back to the published flow-global behavior instead of panicking.
func TestCNPPathOutOfRangeDegradesToGlobal(t *testing.T) {
	e := sim.NewEngine(1)
	d := newD(e, func(c *Config) { c.PathBuckets = 2 })
	d.OnCNPPath(7)
	if d.Rate() != line/2 {
		t.Fatalf("rate = %d, want flow-global halving", d.Rate())
	}
	for b := 0; b < 2; b++ {
		if d.Paths().Alpha(b) != 1 {
			t.Fatalf("out-of-range CNP marked bucket %d", b)
		}
	}
}

// TestCNPPathWithoutBucketsIsGlobal: OnCNPPath on an unarmed machine is
// exactly OnCNP — the sender-side hook can call it unconditionally.
func TestCNPPathWithoutBucketsIsGlobal(t *testing.T) {
	e := sim.NewEngine(1)
	d := newD(e, nil)
	if d.Paths() != nil {
		t.Fatal("paths armed without PathBuckets")
	}
	d.OnCNPPath(3)
	if d.Rate() != line/2 {
		t.Fatalf("rate = %d, want flow-global halving", d.Rate())
	}
}

// TestPathAlphaDecaysOverQuietPeriods: the α timer decays every bucket during
// CNP-free periods, so clean paths forget old congestion; and the timer stays
// alive until the per-path estimates have fully decayed too.
func TestPathAlphaDecaysOverQuietPeriods(t *testing.T) {
	e := sim.NewEngine(1)
	d := newD(e, func(c *Config) { c.PathBuckets = 2 })
	d.OnCNPPath(0) // mark bucket 0, arm the timer
	before := d.Paths().Alpha(1)
	e.Run(sim.Time(2 * sim.Millisecond))
	if got := d.Paths().Alpha(1); got >= before {
		t.Fatalf("clean bucket did not decay: %g -> %g", before, got)
	}
	// After a long quiet window every estimate is negligible: the timer was
	// kept alive long enough to decay the per-path state (about 2 350 α
	// periods, 130 ms), then went quiescent.
	e.Run(sim.Time(200 * sim.Millisecond))
	if m := d.Paths().Max(); m >= 1e-4 {
		t.Fatalf("per-path estimates never fully decayed: max %g", m)
	}
}

// TestTimeoutResetsPathAlpha: an RTO is a feedback-loop failure — every
// per-path estimate returns to the maximally-cautious 1.
func TestTimeoutResetsPathAlpha(t *testing.T) {
	e := sim.NewEngine(1)
	d := newD(e, func(c *Config) { c.PathBuckets = 3 })
	for i := 0; i < 4; i++ {
		d.Paths().Decay()
	}
	d.OnTimeout()
	for b := 0; b < 3; b++ {
		if d.Paths().Alpha(b) != 1 {
			t.Fatalf("bucket %d = %g after RTO, want 1", b, d.Paths().Alpha(b))
		}
	}
	if d.Rate() != line/1000 {
		t.Fatalf("rate = %d, want the floor", d.Rate())
	}
}

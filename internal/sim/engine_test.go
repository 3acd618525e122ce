package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(5 * Microsecond)
	if t1 != Time(5*Microsecond) {
		t.Fatalf("Add: got %d", t1)
	}
	if d := t1.Sub(t0); d != 5*Microsecond {
		t.Fatalf("Sub: got %v", d)
	}
	if s := t1.Seconds(); s != 5e-6 {
		t.Fatalf("Seconds: got %g", s)
	}
	if us := t1.Microseconds(); us != 5 {
		t.Fatalf("Microseconds: got %g", us)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{0, "0s"},
		{Second, "1s"},
		{3 * Millisecond, "3ms"},
		{7 * Microsecond, "7us"},
		{9 * Nanosecond, "9ns"},
		{5, "5ps"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d ps: got %q want %q", int64(c.d), got, c.want)
		}
	}
}

func TestDurationStdRoundTrip(t *testing.T) {
	d := 1500 * Nanosecond
	if d.Std() != 1500*time.Nanosecond {
		t.Fatalf("Std: got %v", d.Std())
	}
	if FromStd(2*time.Microsecond) != 2*Microsecond {
		t.Fatalf("FromStd: got %v", FromStd(2*time.Microsecond))
	}
}

func TestTransmitTime(t *testing.T) {
	// 1500 bytes at 400 Gbps = 12000 bits / 4e11 bps = 30 ns exactly.
	if got := TransmitTime(1500, 400e9); got != 30*Nanosecond {
		t.Fatalf("1500B@400G: got %v want 30ns", got)
	}
	// 1 byte at 100 Gbps = 8 bits / 1e11 = 80 ps exactly.
	if got := TransmitTime(1, 100e9); got != 80*Picosecond {
		t.Fatalf("1B@100G: got %v want 80ps", got)
	}
	// Rounds up: 1 byte at 3 bps -> ceil(8e12/3) ps.
	if got := TransmitTime(1, 3); got != Duration((8*int64(Second)+2)/3) {
		t.Fatalf("rounding: got %v", got)
	}
}

func TestTransmitTimePanicsOnZeroRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TransmitTime(1, 0)
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("now = %v", e.Now())
	}
	if e.Executed() != 3 {
		t.Fatalf("executed = %d", e.Executed())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: order[%d]=%d", i, v)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.At(10, func() { fired++ })
	e.At(20, func() { fired++ })
	e.At(30, func() { fired++ })
	e.Run(20)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.RunAll()
	if fired != 3 {
		t.Fatalf("fired = %d, want 3", fired)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.At(10, func() { fired = true })
	e.Cancel(ev)
	e.Cancel(ev) // double-cancel is a no-op
	e.Cancel(nil)
	e.RunAll()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("event not marked cancelled")
	}
}

func TestEngineCancelReturnsPending(t *testing.T) {
	e := NewEngine(1)
	ev := e.At(10, func() {})
	if !e.Cancel(ev) {
		t.Fatal("Cancel of a pending event should return true")
	}
	if e.Cancel(ev) {
		t.Fatal("second Cancel should return false")
	}
	if e.Cancel(nil) {
		t.Fatal("Cancel(nil) should return false")
	}
}

// The popped-then-cancelled path: once an event fires, Cancel must be a no-op
// that does NOT mark it cancelled — Fired/Cancelled stay mutually exclusive.
func TestEngineCancelAfterFire(t *testing.T) {
	e := NewEngine(1)
	ev := e.At(10, func() {})
	if ev.Fired() {
		t.Fatal("pending event reports Fired")
	}
	e.RunAll()
	if !ev.Fired() {
		t.Fatal("executed event not marked fired")
	}
	if e.Cancel(ev) {
		t.Fatal("Cancel of a fired event should return false")
	}
	if ev.Cancelled() {
		t.Fatal("fired event marked cancelled by late Cancel")
	}
	if !ev.Fired() {
		t.Fatal("late Cancel cleared the fired flag")
	}
}

// A callback cancelling its own (already-firing) event must not corrupt the
// free list: the event is released exactly once.
func TestEngineSelfCancelInCallback(t *testing.T) {
	e := NewEngine(1)
	var ev *Event
	ev = e.At(10, func() {
		if e.Cancel(ev) {
			t.Error("self-cancel during fire should return false")
		}
	})
	other := e.At(20, func() {})
	e.RunAll()
	if !ev.Fired() || ev.Cancelled() {
		t.Fatalf("fired=%v cancelled=%v", ev.Fired(), ev.Cancelled())
	}
	if !other.Fired() {
		t.Fatal("subsequent event did not fire")
	}
}

func TestEngineEventReuse(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 100; i++ {
		e.Schedule(1, func() {})
		e.RunAll()
	}
	m := e.Metrics()
	if m.EventAllocs != 1 {
		t.Fatalf("EventAllocs = %d, want 1 (free list should recycle)", m.EventAllocs)
	}
	if m.EventReuses != 99 {
		t.Fatalf("EventReuses = %d, want 99", m.EventReuses)
	}
	if m.EventsExecuted != 100 {
		t.Fatalf("EventsExecuted = %d, want 100", m.EventsExecuted)
	}
}

func TestEngineMetricsCounters(t *testing.T) {
	e := NewEngine(1)
	ev := e.At(5, func() {})
	e.At(10, func() {})
	e.At(15, func() {})
	if m := e.Metrics(); m.HeapHighWater != 3 {
		t.Fatalf("HeapHighWater = %d, want 3", m.HeapHighWater)
	}
	e.Cancel(ev)
	e.RunAll()
	m := e.Metrics()
	if m.EventsCancelled != 1 {
		t.Fatalf("EventsCancelled = %d, want 1", m.EventsCancelled)
	}
	if m.EventsExecuted != 2 {
		t.Fatalf("EventsExecuted = %d, want 2", m.EventsExecuted)
	}
}

func TestEngineScheduleArg(t *testing.T) {
	e := NewEngine(1)
	var got []int
	fn := func(a any) { got = append(got, a.(int)) }
	e.ScheduleArg(20, fn, 2)
	e.AtArg(10, fn, 1)
	e.ScheduleArg(30, fn, 3)
	e.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got = %v", got)
	}
}

func TestEngineCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine(1)
	var fired []int
	evs := make([]*Event, 10)
	for i := 0; i < 10; i++ {
		i := i
		evs[i] = e.At(Time(i+1), func() { fired = append(fired, i) })
	}
	e.Cancel(evs[4])
	e.Cancel(evs[7])
	e.RunAll()
	want := []int{0, 1, 2, 3, 5, 6, 8, 9}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v", fired)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestEngineScheduleFromCallback(t *testing.T) {
	e := NewEngine(1)
	var times []Time
	var recur func()
	n := 0
	recur = func() {
		times = append(times, e.Now())
		n++
		if n < 5 {
			e.Schedule(7, recur)
		}
	}
	e.Schedule(7, recur)
	e.RunAll()
	for i, tm := range times {
		if tm != Time(7*(i+1)) {
			t.Fatalf("times = %v", times)
		}
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.At(1, func() { fired++; e.Stop() })
	e.At(2, func() { fired++ })
	e.RunAll()
	if fired != 1 {
		t.Fatalf("fired = %d after Stop, want 1", fired)
	}
	// Run can be resumed.
	e.RunAll()
	if fired != 2 {
		t.Fatalf("fired = %d after resume, want 2", fired)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(5, func() {})
	})
	e.RunAll()
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Schedule(-1, func() {})
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []int64 {
		e := NewEngine(42)
		var draws []int64
		for i := 0; i < 10; i++ {
			d := Duration(e.Rand().Intn(1000) + 1)
			e.Schedule(d, func() { draws = append(draws, int64(e.Now())) })
		}
		e.RunAll()
		return draws
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic: %v vs %v", a, b)
		}
	}
}

// Property: for any set of non-negative delays, events fire in sorted order.
func TestEngineOrderingProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(1)
		var fired []Time
		for _, d := range delays {
			e.Schedule(Duration(d), func() { fired = append(fired, e.Now()) })
		}
		e.RunAll()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimer(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	tm := NewTimer(e, func() { fired++ })
	if tm.Active() {
		t.Fatal("new timer should be stopped")
	}
	if tm.Deadline() != Forever {
		t.Fatal("stopped timer deadline should be Forever")
	}
	tm.Reset(10)
	if !tm.Active() || tm.Deadline() != 10 {
		t.Fatalf("active=%v deadline=%v", tm.Active(), tm.Deadline())
	}
	e.RunAll()
	if fired != 1 || tm.Active() {
		t.Fatalf("fired=%d active=%v", fired, tm.Active())
	}
}

func TestTimerResetSupersedes(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	tm := NewTimer(e, func() { fired++ })
	tm.Reset(10)
	tm.Reset(50) // supersedes the first arm
	e.Run(20)
	if fired != 0 {
		t.Fatal("superseded firing ran")
	}
	e.RunAll()
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine(1)
	tm := NewTimer(e, func() { t.Fatal("stopped timer fired") })
	tm.Reset(10)
	if !tm.Stop() {
		t.Fatal("Stop should report a pending firing")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report nothing pending")
	}
	e.RunAll()
}

func TestTicker(t *testing.T) {
	e := NewEngine(1)
	var ticks []Time
	tk := NewTicker(e, 10, func() { ticks = append(ticks, e.Now()) })
	tk.Start()
	e.Run(35)
	tk.Stop()
	e.RunAll()
	if len(ticks) != 3 || ticks[0] != 10 || ticks[1] != 20 || ticks[2] != 30 {
		t.Fatalf("ticks = %v", ticks)
	}
}

func TestTickerSetPeriod(t *testing.T) {
	e := NewEngine(1)
	var ticks []Time
	var tk *Ticker
	tk = NewTicker(e, 10, func() {
		ticks = append(ticks, e.Now())
		tk.SetPeriod(20)
	})
	tk.Start()
	e.Run(55)
	tk.Stop()
	// first tick at 10, then every 20: 30, 50.
	if len(ticks) != 3 || ticks[0] != 10 || ticks[1] != 30 || ticks[2] != 50 {
		t.Fatalf("ticks = %v", ticks)
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTicker(e, 0, func() {})
}

// TestTimerTickerAllocs gates the timer layer at zero steady-state
// allocations: the sender re-arms its RTO on every cumulative ACK and DCQCN
// its α timer on every congestion signal, so a closure built per Reset (or per
// tick) is a heap allocation per packet.
func TestTimerTickerAllocs(t *testing.T) {
	e := NewEngine(1)
	tm := NewTimer(e, func() {})
	tm.Reset(10) // warm the event free list
	if n := testing.AllocsPerRun(200, func() { tm.Reset(10) }); n != 0 {
		t.Fatalf("Timer.Reset allocates %.1f/op, want 0", n)
	}
	tm.Stop()
	ticks := 0
	tk := NewTicker(e, 10, func() { ticks++ })
	tk.Start()
	e.Run(e.Now().Add(100))
	if n := testing.AllocsPerRun(200, func() { e.Run(e.Now().Add(100)) }); n != 0 {
		t.Fatalf("a running Ticker allocates %.1f per 10 ticks, want 0", n)
	}
	if ticks < 2000 {
		t.Fatalf("ticker ticked %d times, want >= 2000", ticks)
	}
}

// BenchmarkEngineScheduleCancel measures the schedule-then-cancel cycle that
// dominates transport timer traffic: every ack progress re-arms the RTO timer
// (Timer.Reset = Cancel + Schedule), so this pair is the hottest engine
// operation after plain event execution.
func BenchmarkEngineScheduleCancel(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev := e.Schedule(Duration(100), fn)
		e.Cancel(ev)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(Duration(i%100), func() {})
		if e.Pending() > 1024 {
			e.RunAll()
		}
	}
	e.RunAll()
}

// BenchmarkEngineRunDense measures the pop side at the depth and spacing of
// the Fig. 5 allreduce cells: ~2000 pending events, each rescheduling itself
// 40–400 ns ahead (LCG-drawn), so every level-0 granule the frontier crosses
// holds a few events and the whole population sits within one or two level-0
// windows. BenchmarkEngineScheduleRun drains bursts of near-simultaneous
// events and cannot see a pop cost that grows with the number of events the
// run heap holds at once; this one does. One op = one executed event.
func BenchmarkEngineRunDense(b *testing.B) {
	e := NewEngine(1)
	x := uint32(1)
	left := b.N
	var fn func()
	fn = func() {
		if left--; left < 0 {
			e.Stop()
			return
		}
		x = x*1664525 + 1013904223
		e.Schedule(40*Nanosecond+Duration(x>>8)%(360*Nanosecond), fn)
	}
	for i := 0; i < 2000; i++ {
		x = x*1664525 + 1013904223
		e.Schedule(Duration(x>>8)%(400*Nanosecond), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.RunAll()
}

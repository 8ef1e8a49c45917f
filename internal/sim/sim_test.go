package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Second != 1e9 {
		t.Fatalf("Second = %d, want 1e9", int64(Second))
	}
	if Millisecond != 1e6 || Microsecond != 1e3 || Nanosecond != 1 {
		t.Fatalf("unit constants wrong: %d %d %d", Millisecond, Microsecond, Nanosecond)
	}
}

func TestTimeSeconds(t *testing.T) {
	cases := []struct {
		in   Time
		want float64
	}{
		{0, 0},
		{Second, 1},
		{500 * Millisecond, 0.5},
		{-2 * Second, -2},
	}
	for _, c := range cases {
		if got := c.in.Seconds(); got != c.want {
			t.Errorf("(%d).Seconds() = %v, want %v", int64(c.in), got, c.want)
		}
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0ns"},
		{250, "250ns"},
		{Microsecond, "1µs"},
		{1500 * Microsecond, "1.5ms"},
		{2 * Second, "2s"},
		{-Microsecond, "-1µs"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestFromSeconds(t *testing.T) {
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v", got)
	}
	if got := FromSeconds(-0.25); got != -250*Millisecond {
		t.Errorf("FromSeconds(-0.25) = %v", got)
	}
	if got := FromSeconds(0); got != 0 {
		t.Errorf("FromSeconds(0) = %v", got)
	}
}

func TestFromSecondsRoundTrip(t *testing.T) {
	f := func(ns int64) bool {
		// Restrict to a range where float64 is exact enough.
		ns %= int64(1000 * Second)
		tm := Time(ns)
		return FromSeconds(tm.Seconds()) == tm
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.Drain()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 30 {
		t.Fatalf("Now = %v, want 30", s.Now())
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(100, func() { order = append(order, i) })
	}
	s.Drain()
	for i, v := range order {
		if v != i {
			t.Fatalf("events at same instant not FIFO: %v", order)
		}
	}
}

func TestSchedulerAfter(t *testing.T) {
	s := NewScheduler()
	var at Time
	s.After(5*Microsecond, func() { at = s.Now() })
	s.Drain()
	if at != 5*Microsecond {
		t.Fatalf("fired at %v, want 5µs", at)
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler()
	var ticks []Time
	var tick func()
	tick = func() {
		ticks = append(ticks, s.Now())
		if len(ticks) < 5 {
			s.After(Millisecond, tick)
		}
	}
	s.After(0, tick)
	s.RunUntil(Second)
	if len(ticks) != 5 {
		t.Fatalf("got %d ticks, want 5", len(ticks))
	}
	for i, at := range ticks {
		if at != Time(i)*Millisecond {
			t.Fatalf("tick %d at %v", i, at)
		}
	}
}

func TestSchedulerRunUntilAdvancesClock(t *testing.T) {
	s := NewScheduler()
	s.RunUntil(42 * Millisecond)
	if s.Now() != 42*Millisecond {
		t.Fatalf("Now = %v after empty RunUntil", s.Now())
	}
	// Event exactly at the horizon runs.
	fired := false
	s.At(50*Millisecond, func() { fired = true })
	s.RunUntil(50 * Millisecond)
	if !fired {
		t.Fatal("event at horizon did not fire")
	}
}

func TestSchedulerRunFor(t *testing.T) {
	s := NewScheduler()
	s.RunFor(10)
	s.RunFor(15)
	if s.Now() != 25 {
		t.Fatalf("Now = %v, want 25", s.Now())
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := NewScheduler()
	s.RunUntil(100)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(50, func() {})
}

func TestSchedulerNegativeAfterPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Fatal("negative After did not panic")
		}
	}()
	s.After(-1, func() {})
}

func TestSchedulerNegativeRunForPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Fatal("negative RunFor did not panic")
		}
	}()
	s.RunFor(-5)
}

func TestSchedulerStepAndCounters(t *testing.T) {
	s := NewScheduler()
	n := 0
	s.At(1, func() { n++ })
	s.At(2, func() { n++ })
	if !s.Step() {
		t.Fatal("Step returned false with pending events")
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
	if !s.Step() {
		t.Fatal("second Step failed")
	}
	if s.Step() {
		t.Fatal("Step returned true on empty queue")
	}
	if n != 2 || s.Fired() != 2 {
		t.Fatalf("n=%d fired=%d", n, s.Fired())
	}
}

func TestSchedulerDeterminism(t *testing.T) {
	run := func() []Time {
		s := NewScheduler()
		var fires []Time
		var rec func(d Time)
		rec = func(d Time) {
			fires = append(fires, s.Now())
			if d > 1 {
				s.After(d/2, func() { rec(d / 2) })
				s.After(d/3, func() { rec(d / 3) })
			}
		}
		s.After(0, func() { rec(1000) })
		s.RunUntil(Second)
		return fires
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at event %d: %v vs %v", i, a[i], b[i])
		}
	}
}

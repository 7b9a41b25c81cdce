package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	eng := NewEngine()
	var got []int
	eng.At(30*Millisecond, func() { got = append(got, 3) })
	eng.At(10*Millisecond, func() { got = append(got, 1) })
	eng.At(20*Millisecond, func() { got = append(got, 2) })
	eng.Run(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if eng.Now() != 30*Millisecond {
		t.Fatalf("clock = %v, want 30ms", eng.Now())
	}
}

func TestEngineTieBreaksByInsertion(t *testing.T) {
	eng := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		eng.At(Millisecond, func() { got = append(got, i) })
	}
	eng.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order broken at %d: %v", i, got)
		}
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	eng := NewEngine()
	eng.At(10*Millisecond, func() {})
	eng.Run(0)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past should panic")
		}
	}()
	eng.At(5*Millisecond, func() {})
}

func TestEngineCancel(t *testing.T) {
	eng := NewEngine()
	fired := false
	ev := eng.At(Millisecond, func() { fired = true })
	if at, ok := eng.EventTime(ev); !ok || at != Millisecond {
		t.Fatalf("EventTime = %v,%v, want 1ms,true", at, ok)
	}
	eng.Cancel(ev)
	eng.Run(0)
	if fired {
		t.Fatal("canceled event fired")
	}
	if _, ok := eng.EventTime(ev); ok {
		t.Fatal("canceled event still reports a fire time")
	}
	eng.Cancel(ev) // double cancel is a no-op
	eng.Cancel(None)
}

func TestEngineStaleHandleAfterFire(t *testing.T) {
	eng := NewEngine()
	ev := eng.At(Millisecond, func() {})
	eng.Run(0)
	if _, ok := eng.EventTime(ev); ok {
		t.Fatal("fired event still reports a fire time")
	}
	// The pooled Timer is reused; the stale handle must not cancel its new tenant.
	fired := false
	ev2 := eng.At(2*Millisecond, func() { fired = true })
	eng.Cancel(ev)
	if _, ok := eng.EventTime(ev2); !ok {
		t.Fatal("stale Cancel hit a reused one-shot Timer")
	}
	eng.Run(0)
	if !fired {
		t.Fatal("recycled event lost")
	}
}

func TestEngineCancelMiddleOfQueue(t *testing.T) {
	eng := NewEngine()
	var got []int
	eng.At(1*Millisecond, func() { got = append(got, 1) })
	ev := eng.At(2*Millisecond, func() { got = append(got, 2) })
	eng.At(3*Millisecond, func() { got = append(got, 3) })
	eng.Cancel(ev)
	eng.Run(0)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("got %v, want [1 3]", got)
	}
}

func TestEngineRunUntil(t *testing.T) {
	eng := NewEngine()
	var got []int
	eng.At(1*Millisecond, func() { got = append(got, 1) })
	eng.At(5*Millisecond, func() { got = append(got, 5) })
	eng.RunUntil(3 * Millisecond)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("got %v, want [1]", got)
	}
	if eng.Now() != 3*Millisecond {
		t.Fatalf("clock %v, want 3ms", eng.Now())
	}
	eng.Run(0)
	if len(got) != 2 {
		t.Fatalf("deferred event lost: %v", got)
	}
}

func TestEngineRunBounded(t *testing.T) {
	eng := NewEngine()
	count := 0
	var reschedule func()
	reschedule = func() {
		count++
		eng.After(Millisecond, reschedule)
	}
	eng.After(Millisecond, reschedule)
	n := eng.Run(50)
	if n != 50 || count != 50 {
		t.Fatalf("Run(50) processed %d events, callback ran %d times", n, count)
	}
}

func TestEngineEventsDuringEvent(t *testing.T) {
	eng := NewEngine()
	var got []string
	eng.At(Millisecond, func() {
		got = append(got, "outer")
		eng.After(Millisecond, func() { got = append(got, "inner") })
	})
	eng.Run(0)
	if len(got) != 2 || got[1] != "inner" {
		t.Fatalf("nested scheduling failed: %v", got)
	}
}

func TestEngineAfterNegativeClamps(t *testing.T) {
	eng := NewEngine()
	fired := false
	eng.After(-5, func() { fired = true })
	eng.Run(0)
	if !fired {
		t.Fatal("negative After should clamp to now and fire")
	}
}

// Property: for any set of event times, execution order is sorted.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		eng := NewEngine()
		var fired []Time
		for _, d := range delays {
			at := Time(d) * Microsecond
			eng.At(at, func() { fired = append(fired, at) })
		}
		eng.Run(0)
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{2 * Second, "2.000s"},
		{3 * Millisecond, "3.000ms"},
		{7 * Microsecond, "7.000µs"},
		{42, "42ns"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if FromSeconds(1.5) != 1500*Millisecond {
		t.Fatal("FromSeconds broken")
	}
	if (2 * Second).Seconds() != 2.0 {
		t.Fatal("Seconds broken")
	}
	if (3 * Millisecond).Millis() != 3.0 {
		t.Fatal("Millis broken")
	}
}

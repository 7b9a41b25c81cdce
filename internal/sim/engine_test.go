package sim

import (
	"testing"
	"testing/quick"
)

// event is a test-local one-shot: a Timer bound to run fn when it fires.
type event struct {
	Timer
	fn func()
}

func fireEvent(a any) { a.(*event).fn() }

// at arms a fresh Timer on e to run fn at t.
func at(e *Engine, t Time, fn func()) *Timer {
	ev := &event{fn: fn}
	ev.InitArg(e, fireEvent, ev)
	ev.ResetAt(t)
	return &ev.Timer
}

// after arms a fresh Timer on e to run fn d after now.
func after(e *Engine, d Time, fn func()) *Timer { return at(e, e.Now()+max(d, 0), fn) }

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	eng := NewEngine()
	var got []int
	at(eng, 30*Millisecond, func() { got = append(got, 3) })
	at(eng, 10*Millisecond, func() { got = append(got, 1) })
	at(eng, 20*Millisecond, func() { got = append(got, 2) })
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
		at(eng, Millisecond, func() { got = append(got, i) })
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
	at(eng, 10*Millisecond, func() {})
	eng.Run(0)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past should panic")
		}
	}()
	at(eng, 5*Millisecond, func() {})
}

func TestEngineCancelMiddleOfQueue(t *testing.T) {
	eng := NewEngine()
	var got []int
	at(eng, 1*Millisecond, func() { got = append(got, 1) })
	mid := at(eng, 2*Millisecond, func() { got = append(got, 2) })
	at(eng, 3*Millisecond, func() { got = append(got, 3) })
	mid.Stop()
	eng.Run(0)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("got %v, want [1 3]", got)
	}
}

func TestEngineRunUntil(t *testing.T) {
	eng := NewEngine()
	var got []int
	at(eng, 1*Millisecond, func() { got = append(got, 1) })
	at(eng, 5*Millisecond, func() { got = append(got, 5) })
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
	var tm *Timer
	tm = after(eng, Millisecond, func() {
		count++
		tm.Reset(Millisecond)
	})
	n := eng.Run(50)
	if n != 50 || count != 50 {
		t.Fatalf("Run(50) processed %d events, callback ran %d times", n, count)
	}
}

func TestEngineEventsDuringEvent(t *testing.T) {
	eng := NewEngine()
	var got []string
	at(eng, Millisecond, func() {
		got = append(got, "outer")
		after(eng, Millisecond, func() { got = append(got, "inner") })
	})
	eng.Run(0)
	if len(got) != 2 || got[1] != "inner" {
		t.Fatalf("nested scheduling failed: %v", got)
	}
}

// A relative arm with a negative delay clamps to now.
func TestEngineAfterNegativeClamps(t *testing.T) {
	eng := NewEngine()
	fired := false
	tm := at(eng, Millisecond, func() { fired = true })
	eng.RunUntil(Millisecond / 2)
	tm.Reset(-5)
	if when, _ := tm.When(); when != Millisecond/2 {
		t.Fatalf("Reset(-5) armed at %v, want now (%v)", when, Millisecond/2)
	}
	eng.Run(0)
	if !fired {
		t.Fatal("negative Reset should clamp to now and fire")
	}
}

// Property: for any set of event times, execution order is sorted.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		eng := NewEngine()
		var fired []Time
		for _, d := range delays {
			when := Time(d) * Microsecond
			at(eng, when, func() { fired = append(fired, when) })
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

package sim

import "testing"

func TestTimerFiresAndRearms(t *testing.T) {
	eng := NewEngine()
	var fired []Time
	var tm *Timer
	tm = eng.NewTimer(func() {
		fired = append(fired, eng.Now())
		if len(fired) < 3 {
			tm.Reset(Millisecond)
		}
	})
	if tm.Pending() {
		t.Fatal("fresh timer pending")
	}
	tm.Reset(Millisecond)
	if at, ok := tm.When(); !ok || at != Millisecond {
		t.Fatalf("When = %v,%v", at, ok)
	}
	eng.Run(0)
	if len(fired) != 3 || fired[0] != Millisecond || fired[2] != 3*Millisecond {
		t.Fatalf("fired = %v", fired)
	}
	if tm.Pending() {
		t.Fatal("exhausted timer pending")
	}
}

func TestTimerResetReplacesPendingArm(t *testing.T) {
	eng := NewEngine()
	count := 0
	tm := eng.NewTimer(func() { count++ })
	tm.Reset(Millisecond)
	tm.Reset(5 * Millisecond) // replaces, never duplicates
	eng.RunUntil(2 * Millisecond)
	if count != 0 {
		t.Fatal("replaced arm fired")
	}
	eng.Run(0)
	if count != 1 {
		t.Fatalf("fired %d times, want 1", count)
	}
}

func TestTimerStop(t *testing.T) {
	eng := NewEngine()
	count := 0
	tm := eng.NewTimer(func() { count++ })
	tm.Reset(Millisecond)
	tm.Stop()
	tm.Stop() // double stop is a no-op
	eng.Run(0)
	if count != 0 {
		t.Fatal("stopped timer fired")
	}
	tm.Reset(Millisecond)
	eng.Run(0)
	if count != 1 {
		t.Fatal("timer unusable after Stop")
	}
}

func TestTimerOrderMatchesAt(t *testing.T) {
	// A Timer's arm consumes the same (time, seq) key an At call would, so
	// mixing timers and one-shot events keeps the deterministic tie order.
	eng := NewEngine()
	var got []int
	tm := eng.NewTimer(func() { got = append(got, 1) })
	tm.Reset(Millisecond)
	eng.At(Millisecond, func() { got = append(got, 2) })
	eng.Run(0)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("tie order = %v, want [1 2]", got)
	}
}

// ---- allocation guards (the kernel's zero-alloc contract) ---------------

// nopFn lives outside the measured closures so the measured calls carry a
// preexisting func value, like the scheduler's pooled callbacks do.
var nopFn = func() {}

func TestAllocsPerEventAfter(t *testing.T) {
	eng := NewEngine()
	// Warm the one-shot pool and heap capacity.
	for i := 0; i < 64; i++ {
		eng.After(Microsecond, nopFn)
	}
	eng.Run(0)
	avg := testing.AllocsPerRun(1000, func() {
		eng.After(Microsecond, nopFn)
		eng.Step()
	})
	if avg > 0 {
		t.Fatalf("Engine.After allocates %.2f allocs/event in steady state, want 0", avg)
	}
}

func TestAllocsPerEventAt(t *testing.T) {
	eng := NewEngine()
	for i := 0; i < 64; i++ {
		eng.After(Microsecond, nopFn)
	}
	eng.Run(0)
	avg := testing.AllocsPerRun(1000, func() {
		eng.At(eng.Now()+Microsecond, nopFn)
		eng.Step()
	})
	if avg > 0 {
		t.Fatalf("Engine.At allocates %.2f allocs/event in steady state, want 0", avg)
	}
}

func TestAllocsPerEventTimerReset(t *testing.T) {
	eng := NewEngine()
	tm := eng.NewTimer(nopFn)
	for i := 0; i < 64; i++ {
		tm.Reset(Microsecond)
		eng.Step()
	}
	avg := testing.AllocsPerRun(1000, func() {
		tm.Reset(Microsecond)
		eng.Step()
	})
	if avg > 0 {
		t.Fatalf("Timer.Reset allocates %.2f allocs/event in steady state, want 0", avg)
	}
}

func TestSlotPoolReuse(t *testing.T) {
	eng := NewEngine()
	const rounds = 10_000
	for i := 0; i < rounds; i++ {
		eng.After(Microsecond, nopFn)
		eng.Step()
	}
	// Sequential schedule/fire must keep the one-shot pool at one block,
	// not grow it per event.
	if n := len(eng.pool); n > 1 {
		t.Fatalf("one-shot pool grew to %d blocks for sequential events, want O(1)", n)
	}
	if eng.Processed() != rounds {
		t.Fatalf("processed %d, want %d", eng.Processed(), rounds)
	}
}

// tickArg is a static InitArg callback: it counts fires in *int.
func tickArg(a any) { *a.(*int)++ }

func TestEngineResetUnqueuesTimers(t *testing.T) {
	eng := NewEngine()
	var host struct {
		tm    Timer // embedded, bound with InitArg like the scheduler's timers
		fires int
	}
	host.tm.InitArg(eng, tickArg, &host.fires)
	shots := 0
	host.tm.Reset(Millisecond)
	old := eng.After(2*Millisecond, func() { shots++ })
	eng.Reset()

	if host.tm.Pending() {
		t.Fatal("timer armed before Reset still pending")
	}
	if at, ok := host.tm.When(); ok {
		t.Fatalf("timer armed before Reset reports When = %v", at)
	}
	if at, ok := eng.EventTime(old); ok {
		t.Fatalf("one-shot handle from before Reset reports EventTime = %v", at)
	}
	if n := eng.Pending(); n != 0 {
		t.Fatalf("Pending after Reset = %d, want 0", n)
	}

	// A new one-shot reuses the pool Timer the old handle named; the old
	// handle must not reach it.
	eng.After(2*Millisecond, func() { shots++ })
	eng.Cancel(old)
	if _, ok := eng.EventTime(old); ok {
		t.Fatal("stale handle resolves to the new one-shot")
	}
	host.tm.Reset(Millisecond)
	if eng.Run(0) != 2 || host.fires != 1 || shots != 1 {
		t.Fatalf("after Reset: timer fired %d, one-shot fired %d (processed %d), want 1 and 1",
			host.fires, shots, eng.Processed())
	}
	// Reset returns queued one-shots to the pool instead of leaking them.
	for i := 0; i < 2*poolBlock; i++ {
		eng.After(Millisecond, nopFn)
		eng.Reset()
	}
	if n := len(eng.pool); n != 1 {
		t.Fatalf("one-shot pool grew to %d blocks across Resets, want 1", n)
	}
}

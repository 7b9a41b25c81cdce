package sim

import "testing"

func TestTimerFiresAndRearms(t *testing.T) {
	eng := NewEngine()
	var fired []Time
	var tm *Timer
	tm = at(eng, Millisecond, func() {
		fired = append(fired, eng.Now())
		if len(fired) < 3 {
			tm.Reset(Millisecond)
		}
	})
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
	if _, ok := tm.When(); ok {
		t.Fatal("exhausted timer reports a fire time")
	}
}

func TestTimerResetReplacesPendingArm(t *testing.T) {
	eng := NewEngine()
	count := 0
	tm := at(eng, Millisecond, func() { count++ })
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
	tm := at(eng, Millisecond, func() { count++ })
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

// ---- allocation guards (the kernel's zero-alloc contract) ---------------

// tickArg is a static InitArg callback: it counts fires in *int.
func tickArg(a any) { *a.(*int)++ }

func TestAllocsPerEventTimerReset(t *testing.T) {
	eng := NewEngine()
	var tm Timer
	var fires int
	tm.InitArg(eng, tickArg, &fires)
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

func TestEngineResetUnqueuesTimers(t *testing.T) {
	eng := NewEngine()
	var host struct {
		tm    [2]Timer // embedded, bound with InitArg like the scheduler's timers
		fires [2]int
	}
	for k := range host.tm {
		host.tm[k].InitArg(eng, tickArg, &host.fires[k])
	}
	host.tm[0].Reset(Millisecond)
	host.tm[1].Reset(2 * Millisecond)
	eng.Reset()

	for k := range host.tm {
		if host.tm[k].Pending() {
			t.Fatalf("timer %d armed before Reset still pending", k)
		}
		if at, ok := host.tm[k].When(); ok {
			t.Fatalf("timer %d armed before Reset reports When = %v", k, at)
		}
	}
	if n := eng.Pending(); n != 0 {
		t.Fatalf("Pending after Reset = %d, want 0", n)
	}

	host.tm[1].Reset(Millisecond)
	if eng.Run(0) != 1 || host.fires != [2]int{0, 1} || eng.Now() != Millisecond {
		t.Fatalf("after Reset: fires %v (processed %d, now %v), want [0 1] at 1ms",
			host.fires, eng.Processed(), eng.Now())
	}

	// Reset keeps the heap array a run grew: re-arming as many Timers as
	// the previous run queued allocates nothing.
	many := make([]Timer, 200)
	for i := range many {
		many[i].InitArg(eng, tickArg, &host.fires[0])
		many[i].Reset(Time(i))
	}
	avg := testing.AllocsPerRun(10, func() {
		eng.Reset()
		for i := range many {
			many[i].Reset(Time(i))
		}
	})
	if avg > 0 {
		t.Fatalf("re-arming %d Timers after Reset allocates %.2f times, want 0", len(many), avg)
	}
}

// TestOutgrownSeedHoldsNoTimers: once the heap outgrows the engine's
// embedded seed array, the seed holds no Timer pointers, which would keep
// the Timers' owners reachable for as long as the engine lives.
func TestOutgrownSeedHoldsNoTimers(t *testing.T) {
	eng := NewEngine()
	var fires int
	many := make([]Timer, len(eng.orderSeed)+1)
	for i := range many {
		many[i].InitArg(eng, tickArg, &fires)
		many[i].Reset(Time(i))
	}
	for i, ent := range eng.orderSeed {
		if ent.tm != nil {
			t.Fatalf("outgrown seed entry %d still points at a Timer", i)
		}
	}
	if eng.Run(0) != uint64(len(many)) || fires != len(many) {
		t.Fatalf("fired %d of %d Timers", fires, len(many))
	}
}

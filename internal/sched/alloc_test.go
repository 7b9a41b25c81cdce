package sched

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// TestAllocsSteadyStateSlices guards the scheduler's zero-alloc contract:
// once runqueues, the event arena and per-task timers have warmed up, a
// contended machine cycling through slices must not allocate per event.
func TestAllocsSteadyStateSlices(t *testing.T) {
	topo, err := topology.New("t", 1, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(topo, nil)
	// Oversubscribe 8 CPUs with 24 spinners so every slice end reshuffles
	// runqueues, exercising push/pick/preempt/balance continuously.
	for i := 0; i < 24; i++ {
		r.s.Spawn(TaskSpec{
			Name:    "spin",
			Program: Sequence(Compute(sim.FromSeconds(1000))),
		}, 0)
	}
	// Warm up: arena growth, runqueue capacity, affinity caches.
	for i := 0; i < 5000; i++ {
		if !r.eng.Step() {
			t.Fatal("queue drained during warmup")
		}
	}
	avg := testing.AllocsPerRun(2000, func() {
		if !r.eng.Step() {
			t.Fatal("queue drained during measurement")
		}
	})
	if avg > 0.01 {
		t.Fatalf("steady-state slice cycling allocates %.3f allocs/event, want 0", avg)
	}
}

// TestAllocsMailboxSteadyState guards the mailbox's reuse of its backing
// array: a deliver/take loop allocates nothing once warm, whether the
// mailbox drains every cycle or always keeps messages queued, and a mailbox
// that never drains does not grow.
func TestAllocsMailboxSteadyState(t *testing.T) {
	for _, backlog := range []int{0, 1, 5} {
		r := newRig(smallHost(), nil)
		tx := r.s.spawnTask(TaskSpec{Name: "tx", Program: Sequence()})
		rx := r.s.spawnTask(TaskSpec{Name: "rx", Program: Sequence()})
		for i := 0; i < backlog; i++ {
			r.s.deliver(tx, rx, 64, 1)
		}
		cycle := func() {
			r.s.deliver(tx, rx, 64, 1)
			if _, ok := rx.TakeMessage(); !ok {
				t.Fatal("mailbox empty after a delivery")
			}
		}
		for i := 0; i < 4; i++ {
			cycle()
		}
		warmCap := cap(rx.mailbox)
		if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
			t.Errorf("backlog %d: deliver+take allocates %.2f allocs/cycle, want 0", backlog, avg)
		}
		if c := cap(rx.mailbox); c != warmCap {
			t.Errorf("backlog %d: mailbox capacity changed from %d to %d", backlog, warmCap, c)
		}
		if n := len(rx.mailbox) - rx.mailHead; n != backlog {
			t.Errorf("backlog %d: %d messages queued after the loop", backlog, n)
		}
	}
}

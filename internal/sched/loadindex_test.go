package sched

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// TestLoadIndexMatchesReferenceOverRun steps a contended machine whose
// quota group throttles and unthrottles every few periods, and after every
// event checks the synced load index against loadRef on every CPU.
func TestLoadIndexMatchesReferenceOverRun(t *testing.T) {
	topo, err := topology.New("t", 1, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(topo, nil)
	for i := 0; i < 24; i++ {
		r.s.Spawn(TaskSpec{
			Name:    "spin",
			Program: Sequence(Compute(sim.FromSeconds(1000))),
		}, 0)
	}
	g := r.cg.NewGroup("quota", 0.5, topology.CPUSet{})
	for i := 0; i < 6; i++ {
		r.s.Spawn(TaskSpec{
			Name:    "capped",
			Group:   g,
			Program: Sequence(Compute(sim.FromSeconds(1000))),
		}, 0)
	}
	unthrottles := 0
	wasThrottled := false
	for step := 0; step < 20000; step++ {
		if !r.eng.Step() {
			t.Fatal("queue drained")
		}
		if wasThrottled && !g.Throttled() {
			unthrottles++
		}
		wasThrottled = g.Throttled()
		r.s.syncLoad()
		for id := range r.s.cpus {
			if got, want := int(r.s.load[id]), loadRef(r.s, id); got != want {
				t.Fatalf("step %d: load[%d] = %d, reference %d", step, id, got, want)
			}
		}
	}
	if g.Stats.Throttles < 5 || unthrottles < 5 {
		t.Fatalf("group throttled %d and unthrottled %d times; the run must flip it repeatedly",
			g.Stats.Throttles, unthrottles)
	}
	for _, g := range r.cg.Groups() {
		g.Stop()
	}
}

// TestDirectDispatchGuard checks makeRunnable's shortcut onto an idle CPU
// with an empty queue. A waker of a throttled group must queue there and
// leave dispatch to steal, as the enqueue path always did; an ungrouped
// waker starts at once without touching the queued-CPU mask or the enqueue
// sequence.
func TestDirectDispatchGuard(t *testing.T) {
	sr := newStealRig(t)
	s := sr.r.s
	g := sr.r.cg.NewGroup("g", 1, topology.CPUSet{})
	// An ungrouped task waits on busy CPU 2: the only steal candidate.
	s.cpus[2].current = &Task{ID: -1}
	s.markBusy(2)
	victim := sr.queue(2, 0, nil, topology.CPUSet{})

	thr := s.spawnTask(TaskSpec{Name: "thr", Group: g, Program: Sequence()})
	if !g.Charge(0, g.Quota()) {
		t.Fatal("group must throttle")
	}
	thr.remaining = sim.Millisecond
	s.makeRunnable(thr, 0)
	c0 := s.cpus[0]
	if thr.state != stateRunnable || thr.rqCPU != 0 || c0.queued != 1 {
		t.Fatalf("throttled waker: state %v rqCPU %d queued %d, want queued on cpu 0", thr.state, thr.rqCPU, c0.queued)
	}
	if c0.current != victim || s.bd.Steals != 1 {
		t.Fatalf("throttled waker: cpu 0 runs %v after %d steals, want the stolen %v", c0.current, s.bd.Steals, victim)
	}

	waker := s.spawnTask(TaskSpec{Name: "waker", Program: Sequence()})
	waker.remaining = sim.Millisecond
	masks := append([]uint64(nil), s.queuedMask...)
	seq := s.rqSeq
	s.makeRunnable(waker, 1)
	c1 := s.cpus[1]
	if c1.current != waker || waker.state != stateRunning || waker.rqCPU != -1 {
		t.Fatalf("ungrouped waker: cpu 1 runs %v, waker state %v rqCPU %d", c1.current, waker.state, waker.rqCPU)
	}
	if s.rqSeq != seq || s.bd.Steals != 1 {
		t.Fatalf("ungrouped waker: rqSeq %d -> %d, steals %d", seq, s.rqSeq, s.bd.Steals)
	}
	for w := range masks {
		if s.queuedMask[w] != masks[w] {
			t.Fatalf("ungrouped waker changed queuedMask word %d: %#x -> %#x", w, masks[w], s.queuedMask[w])
		}
	}
	if got, want := s.loadOf(1), loadRef(s, 1); got != 1 || want != 1 {
		t.Fatalf("cpu 1 load %d, reference %d, want 1", got, want)
	}
}

// TestAllocsConstructAndReset guards the load index's embedded backing: a
// scheduler over the 112-CPU paper host constructs in three allocations
// (the Scheduler, its cpuRun block and the CPU pointer table), and Reset
// after a grouped run allocates nothing.
func TestAllocsConstructAndReset(t *testing.T) {
	topo := topology.PaperHost()
	r := newRig(topo, nil)
	cfg := r.s.cfg
	if n := testing.AllocsPerRun(50, func() { New(r.eng, cfg) }); n > 3 {
		t.Errorf("New on the paper host allocates %v, want <= 3", n)
	}
	g := r.cg.NewGroup("g", 4, topology.CPUSet{})
	for i := 0; i < 8; i++ {
		r.s.Spawn(TaskSpec{Name: "w", Group: g, Program: Sequence(Compute(sim.Millisecond))}, 0)
	}
	r.drain(t)
	if n := testing.AllocsPerRun(50, func() {
		r.eng.Reset()
		r.s.Reset(cfg)
	}); n != 0 {
		t.Errorf("Reset allocates %v, want 0", n)
	}
}

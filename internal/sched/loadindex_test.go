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

// TestLoneRestartGuard checks endSlice's shortcut for a preempted task
// with work left on a CPU with nothing queued: it starts the next slice at
// once, stamping no rqSeq, leaving the queued-CPU mask and the load as
// they were, and emitting run-end then run-start on the same CPU. A CPU
// whose queue holds only a throttled group's task, which its load does
// not count, must take the enqueue path, and so must a task whose slice
// charge throttles its group; that charge still runs throttleGroup.
func TestLoneRestartGuard(t *testing.T) {
	sr := newStealRig(t)
	s, eng := sr.r.s, sr.r.eng
	var evs []TraceEvent
	s.cfg.Trace = func(ev TraceEvent) { evs = append(evs, ev) }
	// sliceEnd fires the next event, which must be c's slice end.
	sliceEnd := func(c *cpuRun) {
		t.Helper()
		end := c.sliceEndAt
		evs = evs[:0]
		if !eng.Step() || eng.Now() != end {
			t.Fatalf("next event at %v, want cpu %d's slice end at %v", eng.Now(), c.id, end)
		}
	}
	restarted := func(name string, c *cpuRun, tk *Task) {
		t.Helper()
		if c.current != tk || tk.state != stateRunning || tk.rqCPU != -1 {
			t.Fatalf("%s: cpu %d runs %v, task state %v rqCPU %d", name, c.id, c.current, tk.state, tk.rqCPU)
		}
		if len(evs) != 2 || evs[0].Kind != TraceRunEnd || evs[1].Kind != TraceRunStart ||
			evs[0].Task != tk || evs[1].Task != tk || evs[0].CPU != c.id || evs[1].CPU != c.id {
			t.Fatalf("%s: trace %+v, want run-end then run-start of %v on cpu %d", name, evs, tk, c.id)
		}
		for id := range s.cpus {
			if got, want := s.loadOf(id), loadRef(s, id); got != want {
				t.Fatalf("%s: loadOf(%d) = %d, reference %d", name, id, got, want)
			}
		}
	}

	// An ungrouped task alone on cpu 0 restarts without the runqueue.
	c0 := s.cpus[0]
	lone := s.spawnTask(TaskSpec{Name: "lone", Program: Sequence()})
	lone.remaining = sim.Second
	s.makeRunnable(lone, 0)
	masks := append([]uint64(nil), s.queuedMask...)
	seq, load := s.rqSeq, s.loadOf(0)
	sliceEnd(c0)
	restarted("lone", c0, lone)
	if s.rqSeq != seq {
		t.Fatalf("lone: rqSeq %d -> %d, want no stamp", seq, s.rqSeq)
	}
	for w := range masks {
		if s.queuedMask[w] != masks[w] {
			t.Fatalf("lone: queuedMask word %d %#x -> %#x", w, masks[w], s.queuedMask[w])
		}
	}
	if got := s.loadOf(0); got != load {
		t.Fatalf("lone: cpu 0 load %d -> %d", load, got)
	}

	// A throttled group's task queued on cpu 0: the load still counts only
	// the running task, but the queue is not empty, so the task goes
	// through rqPush and pickLocal hands it back.
	gThr := sr.r.cg.NewGroup("thr", 1, topology.CPUSet{})
	if !gThr.Charge(0, gThr.Quota()) {
		t.Fatal("group must throttle")
	}
	parked := sr.queue(0, 0, gThr, topology.CPUSet{})
	seq = s.rqSeq
	sliceEnd(c0)
	restarted("throttled queue", c0, lone)
	if s.rqSeq != seq+1 || c0.queued != 1 || parked.rqCPU != 0 {
		t.Fatalf("throttled queue: rqSeq %d -> %d, cpu 0 queued %d, parked task on cpu %d; want one stamp and the parked task left queued",
			seq, s.rqSeq, c0.queued, parked.rqCPU)
	}

	// Two grouped tasks, each alone on its CPU, the one on cpu 1 with the
	// earlier slice end. That slice's charge exhausts the quota, and
	// throttleGroup preempts the one on cpu 2, whose group is then already
	// throttled: both must queue.
	gq := sr.r.cg.NewGroup("q", 1, topology.CPUSet{})
	if gq.Charge(1, gq.Quota()-sim.Microsecond) {
		t.Fatal("group must not throttle before the slice")
	}
	var tq [2]*Task
	for k := range tq {
		tq[k] = s.spawnTask(TaskSpec{Name: "q", Group: gq, Program: Sequence()})
		tq[k].remaining = sim.Second
		s.makeRunnable(tq[k], 1+k)
		eng.RunUntil(eng.Now() + sim.Microsecond)
	}
	seq = s.rqSeq
	sliceEnd(s.cpus[1])
	if !gq.Throttled() || s.bd.Throttles != 1 {
		t.Fatalf("throttling charge: throttled %v, %d throttleGroup calls, want the group throttled once", gq.Throttled(), s.bd.Throttles)
	}
	for k, tk := range tq {
		c := s.cpus[1+k]
		if c.current != nil || tk.state != stateRunnable || tk.rqCPU != c.id || c.queued != 1 {
			t.Fatalf("throttling charge: cpu %d runs %v, its task state %v on queue %d (queued %d); want it queued there",
				c.id, c.current, tk.state, tk.rqCPU, c.queued)
		}
	}
	if s.rqSeq != seq+2 {
		t.Fatalf("throttling charge: rqSeq %d -> %d, want two stamps", seq, s.rqSeq)
	}
	if len(evs) != 3 || evs[0].Kind != TraceRunEnd || evs[1].Kind != TraceThrottle || evs[2].Kind != TraceRunEnd || evs[2].Task != tq[1] {
		t.Fatalf("throttling charge: trace %+v, want run-end, throttle, then the second task's run-end", evs)
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

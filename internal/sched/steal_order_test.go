package sched

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cgroups"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The steal-order golden test locks the exact victim/candidate order of the
// idle-balancing steal path. The pick rule is part of the simulator's
// determinism contract: the winner is the task with the smallest
// (vruntime, enqueue-seq) on the most-loaded other CPU — load counted as
// queued tasks allowed on the thief and not throttled — with load ties
// resolved toward the lowest victim CPU id. Any fast-path refactor of steal
// must reproduce this sequence bit-for-bit; if this test fails, the
// simulation is no longer byte-identical to the golden figures.

// stealRig builds a scheduler over a 2-socket × 4-core × 2-thread host
// (two LLC domains, SMT pairs) with queues stuffed directly via rqPush.
type stealRig struct {
	r      *rig
	nextID int
}

func newStealRig(t *testing.T) *stealRig {
	t.Helper()
	topo, err := topology.New("steal", 2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	return &stealRig{r: newRig(topo, nil)}
}

// queue creates a runnable task with the given vruntime and affinity (empty =
// all CPUs) and pushes it straight onto cpu's runqueue, mirroring what
// makeRunnable does after placement.
func (sr *stealRig) queue(cpu int, vr sim.Time, g *cgroups.Group, aff topology.CPUSet) *Task {
	s := sr.r.s
	t := &Task{
		ID:                sr.nextID,
		Spec:              TaskSpec{Name: fmt.Sprintf("t%d", sr.nextID), Group: g, Affinity: aff, Program: Sequence()},
		lastCPU:           -1,
		rqCPU:             -1,
		rqPos:             -1,
		state:             stateRunnable,
		pendingMsgFromCPU: -1,
	}
	sr.nextID++
	if g != nil {
		qi := s.groupIdx(g)
		if qi == 0 {
			qi = s.registerGroup(g)
		}
		t.qIdx = qi
	}
	t.vruntime = vr
	s.updateRunnable(t, 1)
	s.rqPush(s.cpus[cpu], t)
	return t
}

// stealFrom performs one steal on behalf of the given idle CPU and returns a
// compact "id@victim" record (or "-" when nothing was stolen).
func (sr *stealRig) stealFrom(cpu int) string {
	s := sr.r.s
	t := s.steal(s.cpus[cpu])
	if t == nil {
		return "-"
	}
	// rqCPU is cleared by steal; recover the victim from the runqueue the
	// task is no longer on by remembering nothing: the task id alone pins
	// the pick, and the queue it left is implied by the setup.
	return fmt.Sprintf("t%d", t.ID)
}

// TestStealCandidateOrderGolden pins the steal pick sequence for a busy
// multi-LLC host with mixed affinities, groups and a throttled partition.
func TestStealCandidateOrderGolden(t *testing.T) {
	sr := newStealRig(t)
	s := sr.r.s
	us := func(n int64) sim.Time { return sim.Time(n) * sim.Microsecond }

	gA := sr.r.cg.NewGroup("ga", 0, topology.CPUSet{})
	gB := sr.r.cg.NewGroup("gb", 2, topology.CPUSet{}) // quota'd: will be throttled mid-test
	all := topology.CPUSet{}

	// Socket 0 (cpus 0-7): a deep queue on cpu1, SMT-sibling queue on cpu0's
	// core, and an affinity-restricted task that cpu0 may not take.
	sr.queue(1, us(50), nil, all)                     // t0
	sr.queue(1, us(10), nil, all)                     // t1  (earliest on the deep queue)
	sr.queue(1, us(10), nil, all)                     // t2  (vruntime tie -> seq order)
	sr.queue(2, us(5), nil, topology.NewCPUSet(2, 3)) // t3  (not allowed on cpu0)
	sr.queue(3, us(8), gA, all)                       // t4
	// Socket 1 (cpus 8-15): equally deep queue on cpu9 — load ties must
	// resolve toward the lower victim CPU id (cpu1).
	sr.queue(9, us(1), nil, all)  // t5 (globally smallest vruntime)
	sr.queue(9, us(20), nil, all) // t6
	sr.queue(9, us(30), nil, all) // t7
	sr.queue(12, us(2), gB, all)  // t8 (group throttles below)
	sr.queue(12, us(3), gB, all)  // t9

	// Throttle gB: its queue on cpu12 must become invisible to steal.
	if !gB.Charge(12, 10*sim.Second) {
		t.Fatal("gB must throttle")
	}

	var got []string
	// Phase 1: cpu0 steals until the world is empty for it.
	for i := 0; i < 8; i++ {
		got = append(got, "c0:"+sr.stealFrom(0))
	}
	// Phase 2: refill with a cross-socket pattern and steal from socket 1.
	sr.queue(4, us(7), nil, all)  // t10
	sr.queue(4, us(9), nil, all)  // t11
	sr.queue(6, us(6), gA, all)   // t12
	sr.queue(13, us(4), nil, all) // t13
	for i := 0; i < 5; i++ {
		got = append(got, "c15:"+sr.stealFrom(15))
	}
	// Phase 3: a thief whose own (throttled) queue must not satisfy it.
	got = append(got, "c12:"+sr.stealFrom(12))
	got = append(got, "c12:"+sr.stealFrom(12))

	want := []string{
		"c0:t1", "c0:t5", "c0:t2", "c0:t6", "c0:t0", "c0:t4", "c0:t7", "c0:-",
		"c15:t10", "c15:t11", "c15:t12", "c15:t13", "c15:-",
		"c12:-", "c12:-",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("steal candidate order diverged\n got %v\nwant %v", got, want)
	}
	if s.bd.Steals == 0 {
		t.Fatal("steal counter must advance")
	}
}

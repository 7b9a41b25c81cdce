package workload

import (
	"testing"

	"repro/internal/sim"
)

// TestAllocsMPIRoundSteadyState guards the MPI message path: once a round
// has warmed the rank step queues, mailboxes and event arena, one more round
// (compute, halo exchange and the tree allreduce) allocates nothing.
func TestAllocsMPIRoundSteadyState(t *testing.T) {
	w := DefaultMPISearch()
	w.Rounds = 1 << 20
	w.AllreduceEvery = 1
	w.TotalCompute = sim.Time(w.Rounds) * sim.Millisecond
	e := env(7, 8)
	w.Spawn(e)
	rank0 := e.M.Sched.Tasks()[0].Spec.Program.(*mpiRank)
	round := func() {
		for target := rank0.round + 1; rank0.round < target; {
			if !e.M.Eng.Step() {
				t.Fatal("event queue drained mid-round")
			}
		}
	}
	for i := 0; i < 4; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("one MPI round allocates %.2f times, want 0", avg)
	}
	if got := e.M.Sched.Breakdown().Messages; got == 0 {
		t.Fatal("no messages exchanged")
	}
}

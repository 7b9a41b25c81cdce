package sched

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// leastLoadedFullScan is the reference for leastLoadedCPU: the minimum
// load over every allowed CPU except `except`, ties to the lowest id.
func leastLoadedFullScan(s *Scheduler, t *Task, except *cpuRun) *cpuRun {
	_, slice := s.cachedAffinity(t)
	var best *cpuRun
	bestLoad := 1 << 30
	for _, id := range slice {
		if except != nil && id == except.id {
			continue
		}
		if l := s.loadOf(id); l < bestLoad {
			best, bestLoad = s.cpus[id], l
		}
	}
	return best
}

// TestLeastLoadedMatchesFullScan compares leastLoadedCPU with the full scan
// over random states of a 96-CPU host: busy and idle CPUs, queued tasks of
// an ungrouped partition, a running group and a throttled group (so a CPU's
// runnable count can be below its queue depth), affinities that straddle
// the 63/64 mask-word seam, and `except` both nil and set.
func TestLeastLoadedMatchesFullScan(t *testing.T) {
	topo, err := topology.New("seam", 2, 24, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := topo.NumCPUs()
	rng := sim.NewRNG(11)
	var minLoads [3]int // trials whose true minimum load was 0, 1, 2+
	for trial := 0; trial < 400; trial++ {
		sr := &stealRig{r: newRig(topo, nil)}
		s := sr.r.s
		gRun := sr.r.cg.NewGroup("run", 0, topology.CPUSet{})
		gThr := sr.r.cg.NewGroup("thr", 1, topology.CPUSet{})
		busyFrac := []float64{0.5, 0.9, 1}[rng.Intn(3)]
		floor := rng.Intn(2) // ungrouped tasks queued on every CPU
		for id := 0; id < n; id++ {
			if rng.Float64() < busyFrac {
				s.cpus[id].current = &Task{ID: -1 - id}
				s.markBusy(id)
			}
			for q := 0; q < floor; q++ {
				sr.queue(id, 0, nil, topology.CPUSet{})
			}
			for q := rng.Intn(4); q > 0; q-- {
				switch rng.Intn(3) {
				case 0:
					sr.queue(id, 0, nil, topology.CPUSet{})
				case 1:
					sr.queue(id, 0, gRun, topology.CPUSet{})
				default:
					sr.queue(id, 0, gThr, topology.CPUSet{})
				}
			}
		}
		if !gThr.Charge(0, 10*sim.Second) {
			t.Fatal("group must throttle")
		}

		// Affinity: a window around the seam, plus a few CPUs anywhere.
		var aff topology.CPUSet
		for id := 56; id < 72; id++ {
			if rng.Intn(2) == 0 {
				aff.Add(id)
			}
		}
		for k := rng.Intn(4); k > 0; k-- {
			aff.Add(rng.Intn(n))
		}
		if aff.Count() < 2 {
			aff.Add(63)
			aff.Add(64)
		}
		probe := &Task{Spec: TaskSpec{Name: "probe", Affinity: aff, Program: Sequence()}, lastCPU: -1, rqCPU: -1, rqPos: -1}
		allowed := aff.Slice()
		for _, except := range []*cpuRun{nil, s.cpus[allowed[rng.Intn(len(allowed))]]} {
			want := leastLoadedFullScan(s, probe, except)
			got := s.leastLoadedCPU(probe, except)
			if got != want {
				t.Fatalf("trial %d (except %v, affinity %v): leastLoadedCPU picked cpu %d, full scan cpu %d",
					trial, except != nil, aff, got.id, want.id)
			}
			l := s.loadOf(want.id)
			if l > 2 {
				l = 2
			}
			minLoads[l]++
		}
	}
	// The early exit only runs when no allowed CPU is at load 0.
	for l, c := range minLoads {
		if c < 20 {
			t.Fatalf("minimum load %d seen in only %d picks; random states do not cover it (%v)", l, c, minLoads)
		}
	}
}

package sched

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// loadRef is the first-principles load of a CPU, read without the load
// index: the running task plus the queued tasks of every partition whose
// group is live-unthrottled right now.
func loadRef(s *Scheduler, cpu int) int {
	c := s.cpus[cpu]
	n := 0
	if c.current != nil {
		n++
	}
	for i := range c.subs {
		sq := &c.subs[i]
		if sq.g == nil || !sq.g.Throttled() {
			n += len(sq.h)
		}
	}
	return n
}

// leastLoadedFullScan is the reference for leastLoadedCPU: the minimum
// loadRef over every allowed CPU except `except`, ties to the lowest id.
func leastLoadedFullScan(s *Scheduler, t *Task, except *cpuRun) *cpuRun {
	_, slice := s.cachedAffinity(t)
	var best *cpuRun
	bestLoad := 1 << 30
	for _, id := range slice {
		if except != nil && id == except.id {
			continue
		}
		if l := loadRef(s, id); l < bestLoad {
			best, bestLoad = s.cpus[id], l
		}
	}
	return best
}

// TestLeastLoadedMatchesFullScan compares leastLoadedCPU with the full scan
// over random states of a 96-CPU host: busy and idle CPUs, queued tasks of
// an ungrouped partition, a never-throttled group and a quota group (so a
// CPU's runnable count can be below its queue depth), affinities that
// straddle the 63/64 mask-word seam, and `except` both nil and set. Each
// state is probed three times — quota group unthrottled, then throttled by
// Charge, then unthrottled again by its period refresh with no scheduler
// callback — so the load index must resync a view that went stale after
// the tasks were queued; leastLoadedCPU is the first reader after each
// flip. Every probe then checks loadOf against loadRef on every CPU.
func TestLeastLoadedMatchesFullScan(t *testing.T) {
	topo, err := topology.New("seam", 2, 24, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := topo.NumCPUs()
	rng := sim.NewRNG(11)
	var minLoads [3]int // picks whose true minimum load was 0, 1, 2+
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
		// The period refresh below must unthrottle silently.
		gThr.SetUnthrottleFn(nil)

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
		except := s.cpus[allowed[rng.Intn(len(allowed))]]
		check := func(phase string) {
			for _, except := range []*cpuRun{nil, except} {
				want := leastLoadedFullScan(s, probe, except)
				got := s.leastLoadedCPU(probe, except)
				if got != want {
					t.Fatalf("trial %d %s (except %v, affinity %v): leastLoadedCPU picked cpu %d, full scan cpu %d",
						trial, phase, except != nil, aff, got.id, want.id)
				}
				l := loadRef(s, want.id)
				if l > 2 {
					l = 2
				}
				minLoads[l]++
			}
			for id := 0; id < n; id++ {
				if got, want := s.loadOf(id), loadRef(s, id); got != want {
					t.Fatalf("trial %d %s: loadOf(%d) = %d, reference %d", trial, phase, id, got, want)
				}
			}
		}
		check("unthrottled")
		if !gThr.Charge(0, gThr.Quota()) {
			t.Fatal("group must throttle")
		}
		check("throttled")
		// The only pending event is the group's period refresh, which
		// clears the one-period debt and unthrottles.
		if !sr.r.eng.Step() || gThr.Throttled() {
			t.Fatal("period refresh must unthrottle the group")
		}
		// Drain every eighth CPU before any reader syncs, so tasks leave a
		// partition the index still counts as throttled.
		for id := 0; id < n; id += 8 {
			for s.pickLocal(s.cpus[id]) != nil {
			}
		}
		check("refreshed")
	}
	// The early exit only runs when no allowed CPU is at load 0.
	for l, c := range minLoads {
		if c < 20 {
			t.Fatalf("minimum load %d seen in only %d picks; random states do not cover it (%v)", l, c, minLoads)
		}
	}
}

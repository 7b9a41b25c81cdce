package sched

import (
	"math/bits"

	"repro/internal/topology"
)

// affEntry is one interned effective-affinity set with its slice expansion.
type affEntry struct {
	set   topology.CPUSet
	slice []int
}

// cachedAffinity memoizes the effective-affinity set and slice of a task
// (affinities never change during a run). Distinct sets are interned
// scheduler-wide: a run has a handful of masks (all CPUs, each group's
// cpuset) shared by hundreds of tasks, so the Slice expansion is computed
// once per mask instead of once per task. The returned set pointer aliases
// the interned entry — callers must treat it as read-only — which keeps
// every wakeup and rebalance free of CPUSet copies.
func (s *Scheduler) cachedAffinity(t *Task) (*topology.CPUSet, []int) {
	if t.aff == nil {
		set := s.effAffinity(t)
		for _, e := range s.affIntern {
			if e.set.Equal(set) {
				t.aff = e
				return &e.set, e.slice
			}
		}
		e := &affEntry{set: set, slice: set.Slice()}
		s.affIntern = append(s.affIntern, e)
		t.aff = e
	}
	return &t.aff.set, t.aff.slice
}

// loadOf returns a CPU's runqueue load — the running task plus the queued
// tasks that may run now — from the synced load index in O(1).
func (s *Scheduler) loadOf(cpu int) int {
	s.syncLoad()
	return int(s.load[cpu])
}

func (s *Scheduler) siblingIdle(cpu int) bool {
	for _, sib := range s.tix.Siblings(cpu) {
		if s.cpus[sib].current != nil {
			return false
		}
	}
	return true
}

// placeTask implements wake-up placement, a simplified wake_affine +
// select_idle_sibling:
//
//  1. the task's previous CPU, if allowed and idle (cache-warm);
//  2. an idle allowed CPU, preferring ones whose SMT sibling is also idle,
//     scanning from the previous CPU's socket (or a rotating cursor for
//     first placements, which spreads fork-time placement like
//     SD_BALANCE_FORK);
//  3. otherwise the least-loaded allowed CPU.
//
// The idle scan intersects the affinity mask with the idle bitmask word by
// word, so on a mostly-idle big host a wakeup costs O(mask words), not
// O(allowed CPUs) — while visiting the surviving candidates in exactly the
// circular ascending order the plain slice walk used.
func (s *Scheduler) placeTask(t *Task) int {
	set, slice := s.cachedAffinity(t)
	if t.lastCPU >= 0 && set.Contains(t.lastCPU) && s.cpus[t.lastCPU].current == nil {
		return t.lastCPU
	}
	var startCPU int
	if t.lastCPU >= 0 {
		// Begin scanning at the first allowed CPU of the previous socket
		// (falling back to the first allowed CPU overall, like the slice
		// walk whose start index stayed 0 when the socket had none).
		startCPU = slice[0]
		lo, hi := s.tix.SocketRange(s.cfg.Topo.Socket(t.lastCPU))
		if c := set.Next(lo - 1); c >= 0 && c < hi {
			startCPU = c
		}
	} else {
		startCPU = slice[s.curs%len(slice)]
		s.curs++
	}
	firstIdle := -1
	if c := s.scanIdleAllowed(set, startCPU, &firstIdle); c >= 0 {
		return c
	}
	if firstIdle >= 0 {
		return firstIdle
	}
	// Saturated machine: every allowed CPU is busy. Fall back to the full
	// least-loaded circular scan, unchanged from the pre-fast-path pick.
	start := 0
	for i, c := range slice {
		if c == startCPU {
			start = i
			break
		}
	}
	s.syncLoad()
	best, bestLoad := slice[start], int32(1<<30)
	for i := 0; i < len(slice); i++ {
		c := slice[(start+i)%len(slice)]
		if l := s.load[c]; l < bestLoad {
			best, bestLoad = c, l
		}
	}
	return best
}

// scanIdleAllowed visits the idle CPUs of set in circular ascending order
// starting at startCPU, returning the first whose SMT siblings are all idle;
// *firstIdle records the first idle CPU seen (-1 if none). Visit order
// matches a circular walk of set's slice expansion restricted to idle CPUs.
func (s *Scheduler) scanIdleAllowed(set *topology.CPUSet, startCPU int, firstIdle *int) int {
	words := set.Words()
	if words > len(s.idleMask) {
		words = len(s.idleMask) // affinity bits past NumCPUs are unreachable
	}
	startW := startCPU >> 6
	for w := startW; w < words; w++ {
		word := set.Word(w) & s.idleMask[w]
		if w == startW {
			word &^= (1 << uint(startCPU&63)) - 1
		}
		if c := s.firstSiblingIdle(w, word, firstIdle); c >= 0 {
			return c
		}
	}
	for w := 0; w <= startW && w < words; w++ {
		word := set.Word(w) & s.idleMask[w]
		if w == startW {
			word &= (1 << uint(startCPU&63)) - 1
		}
		if c := s.firstSiblingIdle(w, word, firstIdle); c >= 0 {
			return c
		}
	}
	return -1
}

// firstSiblingIdle scans one idle∩allowed word, recording the first idle CPU
// and returning the first whose whole physical core is idle (-1 if none).
func (s *Scheduler) firstSiblingIdle(w int, word uint64, firstIdle *int) int {
	for word != 0 {
		b := bits.TrailingZeros64(word)
		word &^= 1 << uint(b)
		c := w<<6 | b
		if *firstIdle < 0 {
			*firstIdle = c
		}
		if s.siblingIdle(c) {
			return c
		}
	}
	return -1
}

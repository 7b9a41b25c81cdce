package sched

import (
	"math/bits"

	"repro/internal/cgroups"
	"repro/internal/sim"
)

// The runqueue layer replaces the seed's flat `[]*Task` per CPU (O(n) scans
// for every pick/min/count, memmove deletes) with per-group indexed 4-ary
// min-heaps:
//
//   - Ordering is (vruntime, rqSeq). rqSeq is a scheduler-global counter
//     stamped at every enqueue, which reproduces the seed's tie-break
//     (earliest-appended wins) exactly — required for byte-identical runs.
//   - One subqueue per cgroup (index 0 = ungrouped). Throttling is a
//     per-group property that flips outside the scheduler's control (the
//     bandwidth period timer can unthrottle a group without calling back),
//     so partitioning by group turns "skip throttled tasks" into "skip
//     throttled subqueues": picks are O(groups · log n).
//   - Load counts are O(1) through a lazily synced per-CPU index
//     (Scheduler.load): push, unlink, dispatch and slice end adjust it by
//     one under the throttle view in qThr, and syncLoad — called by every
//     reader — compares that view with each group's live Throttled() and
//     moves a flipped group's queued tasks into or out of each CPU's load.
//     That costs O(groups) per read and O(CPUs) per flip, and needs no
//     notification hook in cgroups.
//   - Each subqueue's heap root is its cached min-vruntime; the queue-wide
//     minimum is the best root.
//   - Tasks carry their heap position (rqPos), so steal can unlink an
//     arbitrary task in O(log n).
//
// The sift/remove logic mirrors the position-tracked 4-ary heap in
// sim/engine.go, specialized to *Task instead of *sim.Timer: both compare
// keys by borrow and pick a full node's child with the same branch-free
// two-round tournament. The duplication is deliberate (shared helpers
// would put non-inlinable callbacks on the hottest loops); fixes to one
// must be mirrored in the other.

// rqEntry is one element of a subqueue heap: the task pointer plus a copy
// of its (vruntime, rqSeq) sort key, so heap comparisons stay inside the
// contiguous entry array instead of chasing each *Task. The copy is safe
// because both key fields are frozen while a task is queued — vruntime
// only advances for the running task, and rqSeq is stamped at enqueue.
type rqEntry struct {
	vruntime sim.Time
	rqSeq    uint64
	t        *Task
}

// beforeRQ is 1 when a sorts before b in (vruntime, rqSeq) order and 0
// otherwise: the borrow out of the 128-bit subtraction (a.vruntime,
// a.rqSeq) - (b.vruntime, b.rqSeq), with the sign bit of vruntime flipped
// so signed times compare as unsigned (sim.Engine's before, on this key).
func beforeRQ(a, b rqEntry) int {
	const flip = 1 << 63
	_, borrow := bits.Sub64(a.rqSeq, b.rqSeq, 0)
	_, borrow = bits.Sub64(uint64(a.vruntime)^flip, uint64(b.vruntime)^flip, borrow)
	return int(borrow)
}

// subQueue is the runqueue partition of one cgroup on one CPU.
type subQueue struct {
	g *cgroups.Group // nil for the ungrouped partition
	h []rqEntry      // 4-ary min-heap by (vruntime, rqSeq)
}

// throttledQ reports whether the whole partition is banned from running.
func (sq *subQueue) throttledQ() bool { return sq.g != nil && sq.g.Throttled() }

func (sq *subQueue) push(t *Task) {
	t.rqPos = int32(len(sq.h))
	ent := rqEntry{vruntime: t.vruntime, rqSeq: t.rqSeq, t: t}
	if len(sq.h) < cap(sq.h) {
		sq.h = append(sq.h, ent)
	} else {
		// Growing moves the heap off its old backing — often a carve of
		// the shared heapBack slab, which lives as long as the scheduler —
		// so clear that backing, or its stale task pointers would keep a
		// finished run's task arena reachable.
		old := sq.h
		sq.h = append(sq.h, ent)
		clear(old)
	}
	sq.siftUp(int(t.rqPos))
}

func (sq *subQueue) siftUp(i int) {
	ent := sq.h[i]
	for i > 0 {
		parent := (i - 1) / 4
		p := sq.h[parent]
		if beforeRQ(ent, p) == 0 {
			break
		}
		sq.h[i] = p
		p.t.rqPos = int32(i)
		i = parent
	}
	sq.h[i] = ent
	ent.t.rqPos = int32(i)
}

func (sq *subQueue) siftDown(i int) {
	n := len(sq.h)
	ent := sq.h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		if first+4 <= n {
			// A full node: a two-round tournament without branches.
			c := (*[4]rqEntry)(sq.h[first : first+4])
			b01, b23 := beforeRQ(c[1], c[0]), 2+beforeRQ(c[3], c[2])
			best += b01 ^ (b01^b23)&-beforeRQ(c[b23&3], c[b01&3])
		} else {
			for c := first + 1; c < n; c++ {
				if beforeRQ(sq.h[c], sq.h[best]) != 0 {
					best = c
				}
			}
		}
		b := sq.h[best]
		if beforeRQ(b, ent) == 0 {
			break
		}
		sq.h[i] = b
		b.t.rqPos = int32(i)
		i = best
	}
	sq.h[i] = ent
	ent.t.rqPos = int32(i)
}

// removeAt unlinks the task at heap position i and returns it.
func (sq *subQueue) removeAt(i int) *Task {
	t := sq.h[i].t
	n := len(sq.h) - 1
	moved := sq.h[n]
	sq.h[n] = rqEntry{}
	sq.h = sq.h[:n]
	if i != n {
		sq.h[i] = moved
		moved.t.rqPos = int32(i)
		sq.siftDown(i)
		if i > 0 {
			sq.siftUp(i) // the root has no parent to climb past
		}
	}
	t.rqPos = -1
	return t
}

// rqPush enqueues a runnable task on c, stamping the global enqueue
// sequence that preserves the seed scheduler's FIFO tie-break, and advances
// the per-CPU / per-socket / per-group queued-load indexes steal prunes on.
func (s *Scheduler) rqPush(c *cpuRun, t *Task) {
	t.rqSeq = s.rqSeq
	s.rqSeq++
	t.rqCPU = c.id
	qi := int(t.qIdx)
	if len(c.subs) <= qi {
		if qi < cap(c.subs) {
			// The pre-carved backing (sched.New carves two partitions per
			// CPU) still has room: extend in place, no allocation.
			c.subs = c.subs[:qi+1]
		} else {
			// 3+-tenant host: grow to the needed partition count once.
			ns := make([]subQueue, qi+1, 2*(qi+1))
			copy(ns, c.subs)
			c.subs = ns
		}
	}
	sq := &c.subs[qi]
	if sq.g == nil {
		sq.g = t.Spec.Group // no-op for the ungrouped partition (qIdx 0)
	}
	if sq.h == nil {
		sq.h = s.carveHeap()
	}
	sq.push(t)
	if !s.qThr[qi] {
		s.load[c.id]++
	}
	if c.queued == 0 {
		s.queuedMask[c.id>>6] |= 1 << uint(c.id&63)
	}
	c.queued++
	s.socketQueued[s.tix.Socket(c.id)]++
	s.groupQueued[qi]++
	s.totalQueued++
}

// rqUnlinked retires the queued-load accounting of a task just removed from
// c's runqueue (pickLocal or steal).
func (s *Scheduler) rqUnlinked(c *cpuRun, t *Task) {
	if !s.qThr[t.qIdx] {
		s.load[c.id]--
	}
	c.queued--
	if c.queued == 0 {
		s.queuedMask[c.id>>6] &^= 1 << uint(c.id&63)
	}
	s.socketQueued[s.tix.Socket(c.id)]--
	s.groupQueued[t.qIdx]--
	s.totalQueued--
}

// pickLocal removes and returns the min-vruntime runnable task of c's queue.
func (s *Scheduler) pickLocal(c *cpuRun) *Task {
	var best rqEntry
	var bestQ *subQueue
	for i := range c.subs {
		sq := &c.subs[i]
		if len(sq.h) == 0 || sq.throttledQ() {
			continue
		}
		if r := sq.h[0]; bestQ == nil || beforeRQ(r, best) != 0 {
			best, bestQ = r, sq
		}
	}
	if bestQ == nil {
		return nil
	}
	bestQ.removeAt(0)
	s.rqUnlinked(c, best.t)
	best.t.rqCPU = -1
	return best.t
}

// steal pulls a waiting runnable task from the most loaded other queue that
// allows this CPU (idle balancing).
//
// The pick is defined exactly as the seed's full scan: the winner is the
// victim CPU with the highest load (queued tasks allowed on the thief, not
// throttled), load ties resolving toward the lowest victim id, and the
// stolen task is that victim's (vruntime, rqSeq) minimum among allowed
// tasks. The fast path reproduces that pick while touching almost nothing:
//
//   - the per-group global queued index bails out in O(groups) when no
//     group has queued, unthrottled tasks anywhere (by far the common case:
//     steal runs on an idle CPU);
//   - steal domains are visited own-socket-first, then remote sockets in
//     ascending order; a socket with no queued tasks is skipped in one
//     compare, and within a socket only CPUs with a set queued-mask bit are
//     touched (word-at-a-time, so an empty 512-CPU socket segment costs 8
//     word reads instead of 512 per-CPU compares);
//   - a victim whose raw queue depth cannot beat the current best
//     (load ≤ best, or equal with a higher id) is skipped without touching
//     its heaps — queue depth bounds affinity-filtered load from above.
//
// Visit order differs from a nearest-first walk (SMT siblings before LLC
// mates), but the pick is a total order over victims and tasks, so any
// traversal order yields the identical steal.
func (s *Scheduler) steal(c *cpuRun) *Task {
	// The bail-out lives in this small wrapper so the common miss (steal
	// runs on an idle CPU, usually with nothing queued anywhere) never
	// pays the scan machinery's stack frame and closure setup below. The
	// aggregate count answers the empty case in one compare; the group
	// loop only runs when something is queued, to skip all-throttled
	// loads before committing to the scan.
	if s.totalQueued == 0 {
		return nil
	}
	stealable := false
	for qi, n := range s.groupQueued {
		if n == 0 {
			continue
		}
		if g := s.qGroups[qi]; g != nil && g.Throttled() {
			continue
		}
		stealable = true
		break
	}
	if !stealable {
		return nil
	}
	return s.stealScan(c)
}

// stealScan is steal's slow path: some group has queued, unthrottled tasks
// somewhere, so scan the victim CPUs for the best pick.
func (s *Scheduler) stealScan(c *cpuRun) *Task {
	var cand *Task
	var candQ *subQueue
	var candCPU *cpuRun
	bestLoad := 0
	bestID := int(^uint(0) >> 1)
	scan := func(o *cpuRun) {
		q := int(o.queued)
		if q == 0 || q < bestLoad || (q == bestLoad && o.id > bestID) {
			return // cannot beat the current best pick
		}
		load := 0
		var best *Task
		var bestKey rqEntry
		var bestQ *subQueue
		for i := range o.subs {
			sq := &o.subs[i]
			if len(sq.h) == 0 || sq.throttledQ() {
				continue
			}
			// Heap layout order is fine here: candidates are compared by
			// the total (vruntime, rqSeq) order, so the scan result does
			// not depend on traversal order.
			for _, ent := range sq.h {
				if set, _ := s.cachedAffinity(ent.t); !set.Contains(c.id) {
					continue
				}
				load++
				if best == nil || beforeRQ(ent, bestKey) != 0 {
					best, bestKey, bestQ = ent.t, ent, sq
				}
			}
		}
		if best != nil && (load > bestLoad || (load == bestLoad && o.id < bestID)) {
			cand, candQ, candCPU = best, bestQ, o
			bestLoad, bestID = load, o.id
		}
	}
	scanSocket := func(sk int) {
		lo, hi := s.tix.SocketRange(sk)
		for w := lo >> 6; w<<6 < hi; w++ {
			word := s.queuedMask[w]
			base := w << 6
			// Sockets need not be word-aligned: mask off bits outside
			// [lo, hi).
			if base < lo {
				word &^= (1 << uint(lo-base)) - 1
			}
			if base+64 > hi {
				word &= (1 << uint(hi-base)) - 1
			}
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << uint(b)
				if id := base + b; id != c.id {
					scan(s.cpus[id])
				}
			}
		}
	}
	mySock := s.tix.Socket(c.id)
	if s.socketQueued[mySock] != 0 {
		scanSocket(mySock)
	}
	for sk := 0; sk < s.tix.NumSockets(); sk++ {
		if sk == mySock || s.socketQueued[sk] == 0 {
			continue
		}
		scanSocket(sk)
	}
	if cand == nil {
		return nil
	}
	candQ.removeAt(int(cand.rqPos))
	s.rqUnlinked(candCPU, cand)
	cand.rqCPU = -1
	s.bd.Steals++
	return cand
}

// markBusy clears a CPU's idle-mask bit and counts the running task in its
// load at dispatch.
func (s *Scheduler) markBusy(cpu int) {
	s.idleMask[cpu>>6] &^= 1 << uint(cpu&63)
	s.load[cpu]++
}

// markIdle sets a CPU's idle-mask bit and drops the running task from its
// load when its slice retires.
func (s *Scheduler) markIdle(cpu int) {
	s.idleMask[cpu>>6] |= 1 << uint(cpu&63)
	s.load[cpu]--
}

// syncLoad brings the load index up to date with the groups' live throttle
// states. A group whose state flipped since the last sync moves its queued
// tasks into (unthrottle) or out of (throttle) each CPU's load; a group
// with nothing queued anywhere only updates its view.
func (s *Scheduler) syncLoad() {
	for qi := 1; qi < len(s.qGroups); qi++ {
		thr := s.qGroups[qi].Throttled()
		if thr == s.qThr[qi] {
			continue
		}
		s.qThr[qi] = thr
		if s.groupQueued[qi] == 0 {
			continue
		}
		d := int32(1)
		if thr {
			d = -1
		}
		for _, c := range s.cpus {
			if qi < len(c.subs) {
				s.load[c.id] += d * int32(len(c.subs[qi].h))
			}
		}
	}
}

// forEachIdle visits currently idle CPUs in ascending id order. The mask is
// re-read per word, so a visit that dispatches work onto its own CPU does
// not disturb the remaining iteration (dispatching CPU i never busies CPU
// j != i).
func (s *Scheduler) forEachIdle(fn func(c *cpuRun)) {
	for w, word := range s.idleMask {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			fn(s.cpus[w<<6|b])
		}
	}
}

// minVruntime returns the smallest vruntime currently associated with c:
// the running task or the best subqueue root (throttled partitions
// included, matching queue membership semantics).
func (s *Scheduler) minVruntime(c *cpuRun) sim.Time {
	var mv sim.Time
	seen := false
	if c.current != nil {
		mv = c.current.vruntime
		seen = true
	}
	for i := range c.subs {
		sq := &c.subs[i]
		if len(sq.h) == 0 {
			continue
		}
		if v := sq.h[0].vruntime; !seen || v < mv {
			mv = v
			seen = true
		}
	}
	return mv
}

// runnableCount returns how many queued tasks of c may run right now: its
// synced load minus the running task.
func (s *Scheduler) runnableCount(c *cpuRun) int {
	s.syncLoad()
	n := int(s.load[c.id])
	if c.current != nil {
		n--
	}
	return n
}

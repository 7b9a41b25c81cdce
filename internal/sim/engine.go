// Package sim provides a minimal deterministic discrete-event simulation
// kernel: a virtual clock, a queue of Timers, and a reproducible random
// number generator. All higher-level models (scheduler, cgroups,
// hypervisor) are built on this package.
//
// # Concurrency model
//
// An Engine (and the RNG, machine and scheduler state built on top of it)
// is goroutine-confined: one simulation run belongs to exactly one
// goroutine, with no internal locking. Determinism comes from the strict
// (time, sequence) event order, which any cross-goroutine interleaving
// would destroy, so sharing an Engine is never meaningful — parallelism
// belongs one level up, where independent runs (each with its own Engine
// and its own Substream-derived RNG seed) execute on separate goroutines.
// The executor entry points (Step, Run, RunWhile, RunUntil, Reset) assert
// this confinement and panic on concurrent entry; the Timer calls (Reset,
// ResetAt, Stop) are intentionally unguarded because event callbacks
// invoke them re-entrantly from inside Step — the race detector covers
// those.
//
// # Allocation model
//
// The Timer is the only event kind. The event queue is an intrusive 4-ary
// min-heap of Timers keyed by (time, sequence): a Timer carries its own
// heap position, so arming, re-arming and stopping one touches no side
// table and allocates nothing. Its owner embeds it and binds it once, with
// InitArg, to a static callback and a pointer-shaped receiver, so no
// closure is built either. Every event — a task's arrival, block expiry
// and slice end, a cgroup's period refresh — is such a Timer re-armed in
// place; the only allocation the engine makes is growing its heap array,
// which Reset keeps for the next run.
package sim

import (
	"fmt"
	"math/bits"
)

// Time is simulated time in nanoseconds since the start of the run.
type Time int64

// Common durations, mirroring time.Duration-style constants but for sim.Time.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts a sim time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis converts a sim time to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// FromSeconds converts floating-point seconds to sim time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Millis())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	}
	return fmt.Sprintf("%dns", int64(t))
}

// Engine is a discrete-event simulation executor. The zero value is not
// usable; call NewEngine. An Engine is goroutine-confined (see the package
// comment); its executor entry points panic when entered concurrently or
// re-entrantly from an event callback.
type Engine struct {
	now   Time
	seq   uint64
	order []heapEntry // 4-ary min-heap keyed by (at, seq)
	// hole is set while step runs a callback and order[0] still holds the
	// fired Timer, whose place the callback's first arm takes (see step).
	hole      bool
	processed uint64
	// running guards the executor entry points against re-entrant Step/Run
	// from inside a callback and, best-effort, against concurrent use from
	// a second goroutine. It is a plain bool on purpose: re-entrancy (the
	// same goroutine) needs no atomicity, and cross-goroutine misuse is a
	// data race by definition — the race detector reports it regardless,
	// while the hot Step path stays free of atomic ops.
	running bool
	// orderSeed is the embedded first backing of order; a heap that
	// outgrows it falls back to append growth.
	orderSeed [64]heapEntry
}

// heapEntry is one element of the event heap: the queued Timer and its
// (time, sequence) key. The key lives here rather than in the Timer, so a
// comparison reads only the contiguous order array. Equal times are
// common (period ticks, spawn waves), so the tie-break must not chase the
// Timer pointer.
type heapEntry struct {
	at  Time
	seq uint64
	tm  *Timer
}

// enter asserts single-goroutine use of the executor; leave releases it.
func (e *Engine) enter(op string) {
	if e.running {
		panic("sim: concurrent " + op + " on one Engine — engines are goroutine-confined, give each concurrent run its own Engine")
	}
	e.running = true
}

func (e *Engine) leave() { e.running = false }

// NewEngine returns an empty engine with the clock at zero.
func NewEngine() *Engine {
	// Carve the embedded seed: machines are built per trial.
	e := &Engine{}
	e.order = e.orderSeed[0:0:len(e.orderSeed)]
	return e
}

// Reset returns the engine to its just-constructed state — clock at zero,
// no pending events, sequence and processed counters cleared — while
// keeping the heap array the previous run grew, so a reused engine arms
// Timers without allocating. Every queued Timer is un-queued: it reports
// not pending, as if it had fired. Determinism is preserved because
// ordering is strictly (time, sequence) and both restart from zero.
func (e *Engine) Reset() {
	e.enter("Reset")
	defer e.leave()
	e.now, e.seq, e.processed = 0, 0, 0
	for _, ent := range e.order {
		ent.tm.pos = 0
	}
	e.order = e.order[:0]
	e.hole = false
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of events currently queued: inside a
// callback, the fired root step has left in place does not count.
func (e *Engine) Pending() int {
	if e.hole {
		return len(e.order) - 1
	}
	return len(e.order)
}

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// ---- 4-ary heap --------------------------------------------------------
//
// Keys are (at, seq); seq is the global arm counter, so ties resolve in
// arm order and runs are fully deterministic. A 4-ary layout halves the
// tree depth of a binary heap and keeps the children of one node adjacent
// in memory. Every move writes the Timer's pos (heap position + 1, so 0
// means "not queued").
//
// sched/runqueue.go carries a sibling of this position-tracked 4-ary heap
// specialized to *Task, keyed by (vruntime, rqSeq). Both heaps compare by
// borrow and pick a full node's child with the same two-round tournament.
// The duplication is deliberate — a shared helper would need
// non-inlinable less/position callbacks on the hottest loops — but it
// means heap-logic fixes must be mirrored there.

// before is 1 when a sorts before b in (at, seq) order and 0 otherwise:
// the borrow out of the 128-bit subtraction (a.at, a.seq) - (b.at, b.seq),
// with the sign bit of at flipped so signed times compare as unsigned.
// It has no branches to mispredict.
func before(a, b heapEntry) int {
	const flip = 1 << 63
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at)^flip, uint64(b.at)^flip, borrow)
	return int(borrow)
}

func (e *Engine) siftUp(i int) {
	ent := e.order[i]
	for i > 0 {
		parent := (i - 1) / 4
		p := e.order[parent]
		if before(ent, p) == 0 {
			break
		}
		e.order[i] = p
		p.tm.pos = int32(i + 1)
		i = parent
	}
	e.order[i] = ent
	ent.tm.pos = int32(i + 1)
}

func (e *Engine) siftDown(i int) {
	n := len(e.order)
	ent := e.order[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		if first+4 <= n {
			// A full node: a two-round tournament without branches.
			c := (*[4]heapEntry)(e.order[first : first+4])
			b01, b23 := before(c[1], c[0]), 2+before(c[3], c[2])
			best += b01 ^ (b01^b23)&-before(c[b23&3], c[b01&3])
		} else {
			for c := first + 1; c < n; c++ {
				if before(e.order[c], e.order[best]) != 0 {
					best = c
				}
			}
		}
		b := e.order[best]
		if before(b, ent) == 0 {
			break
		}
		e.order[i] = b
		b.tm.pos = int32(i + 1)
		i = best
	}
	e.order[i] = ent
	ent.tm.pos = int32(i + 1)
}

// arm queues tm to fire at t with the next sequence number. A queued tm
// is re-keyed in place; an unqueued one takes the fired root's place if
// step left it open, else joins at the bottom. Arming in the past panics:
// it is always a model bug.
func (e *Engine) arm(tm *Timer, t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ent := heapEntry{at: t, seq: e.seq, tm: tm}
	e.seq++
	if i := int(tm.pos) - 1; i >= 0 {
		e.order[i] = ent
		e.siftDown(i)
		e.siftUp(i)
		return
	}
	if e.hole {
		e.hole = false
		e.order[0] = ent
		e.siftDown(0)
		return
	}
	// The heap outgrows its embedded seed for good (Reset keeps the larger
	// array), so clear the seed then: its stale entries would keep their
	// Timers' owners, such as a finished trial's tasks, reachable for the
	// engine's lifetime.
	outgrow := len(e.order) == len(e.orderSeed) && &e.order[0] == &e.orderSeed[0]
	e.order = append(e.order, ent)
	if outgrow {
		clear(e.orderSeed[:])
	}
	e.siftUp(len(e.order) - 1)
}

// unqueue removes a queued tm from the heap, filling its place with the
// last entry.
func (e *Engine) unqueue(tm *Timer) {
	i, n := int(tm.pos-1), len(e.order)-1
	tm.pos = 0
	moved := e.order[n]
	e.order = e.order[:n]
	if i < n {
		e.order[i] = moved
		e.siftDown(i)
		e.siftUp(i)
	}
}

// ---- timers ------------------------------------------------------------

// Timer is a reusable scheduled callback bound to one Engine, and the
// event heap's element: it carries its own heap position (its firing time
// and sequence number sit in its heap entry). The zero Timer is unbound:
// embed it in a long-lived struct and bind it once with InitArg to a
// static callback and its receiver; Reset and ResetAt then re-key it in
// place, so a recurring event pays no allocation at all. A Timer is
// single-shot per arm (fire once, then Pending reports false) and, like
// its Engine, goroutine-confined.
type Timer struct {
	eng *Engine
	fn  func(any)
	arg any
	pos int32 // heap position + 1; 0 when not queued
}

// InitArg binds an embedded timer to a static callback and its receiver
// argument: the timer runs fn(arg) each time it fires. Re-binding a bound
// timer panics: it would orphan a pending arm.
func (tm *Timer) InitArg(e *Engine, fn func(any), arg any) {
	if tm.eng != nil {
		panic("sim: Timer.InitArg on an already-bound timer")
	}
	if fn == nil {
		panic("sim: Timer.InitArg with nil callback")
	}
	tm.eng, tm.fn, tm.arg = e, fn, arg
}

// Bound reports whether InitArg has bound the timer; embedded timers use
// it for lazy first-use binding.
func (tm *Timer) Bound() bool { return tm.eng != nil }

// Reset arms the timer to fire d after the current time (a negative d
// counts as zero), replacing any pending arm.
func (tm *Timer) Reset(d Time) { tm.eng.arm(tm, tm.eng.now+max(d, 0)) }

// ResetAt arms the timer to fire at absolute time t, replacing any pending
// arm.
func (tm *Timer) ResetAt(t Time) { tm.eng.arm(tm, t) }

// Stop disarms the timer. Stopping an unarmed or fired timer is a no-op.
func (tm *Timer) Stop() {
	if tm.pos != 0 {
		tm.eng.unqueue(tm)
	}
}

// Pending reports whether the timer is armed and has not fired.
func (tm *Timer) Pending() bool { return tm.pos != 0 }

// When reports the pending fire time; ok is false when the timer is not
// armed.
func (tm *Timer) When() (at Time, ok bool) {
	if tm.pos == 0 {
		return 0, false
	}
	return tm.eng.order[tm.pos-1].at, true
}

// ---- execution ---------------------------------------------------------

// Step executes the next event. It returns false when the queue is empty.
func (e *Engine) Step() bool {
	e.enter("Step")
	defer e.leave()
	return e.step()
}

// step fires the root without removing it first: the root stays as a hole
// while the callback runs, the callback's first arm replaces it in place,
// and a hole still open when the callback returns is filled from the last
// entry. The common fire-and-re-arm pattern therefore costs one sift-down,
// not two. Every other heap operation can leave the hole alone: its key
// is below every queued key, so a sift that starts below the root never
// reaches it.
func (e *Engine) step() bool {
	if len(e.order) == 0 {
		return false
	}
	top := e.order[0]
	if top.at < e.now {
		panic("sim: event queue went backwards")
	}
	e.now = top.at
	tm := top.tm
	tm.pos = 0
	e.hole = true
	e.processed++
	tm.fn(tm.arg)
	if e.hole {
		e.hole = false
		n := len(e.order) - 1
		e.order[0] = e.order[n]
		e.order = e.order[:n]
		if n > 0 {
			e.siftDown(0)
		}
	}
	return true
}

// Run executes events until the queue is empty or maxEvents have been
// processed (0 means no limit). It returns the number of events processed by
// this call.
func (e *Engine) Run(maxEvents uint64) uint64 {
	e.enter("Run")
	defer e.leave()
	var n uint64
	for (maxEvents == 0 || n < maxEvents) && e.step() {
		n++
	}
	return n
}

// RunWhile executes events for as long as cond returns true, checking cond
// before every event. It returns false when the queue emptied while cond
// still held, true when cond ended the run. Compared to a caller-side
// per-event Step loop it pays the goroutine-confinement assertion once per
// run instead of once per event.
func (e *Engine) RunWhile(cond func() bool) bool {
	e.enter("RunWhile")
	defer e.leave()
	for cond() {
		if !e.step() {
			return false
		}
	}
	return true
}

// RunUntil executes events with timestamps <= deadline. Events scheduled
// later remain queued. The clock is advanced to deadline if the queue empties
// earlier than the deadline.
func (e *Engine) RunUntil(deadline Time) {
	e.enter("RunUntil")
	defer e.leave()
	for len(e.order) > 0 && e.order[0].at <= deadline {
		e.step()
	}
	e.now = max(e.now, deadline)
}

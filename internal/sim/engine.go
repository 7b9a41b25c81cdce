// Package sim provides a minimal deterministic discrete-event simulation
// kernel: a virtual clock, a cancellable event queue, and a reproducible
// random number generator. All higher-level models (scheduler, cgroups,
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
// The executor entry points (Step, Run, RunUntil) assert this confinement
// and panic on concurrent entry; the scheduling calls (At, After, Cancel)
// are intentionally unguarded because event callbacks invoke them
// re-entrantly from inside Step — the race detector covers those.
//
// # Allocation model
//
// The event queue is an intrusive 4-ary min-heap of Timers keyed by
// (time, sequence): a Timer carries its own heap position, so arming,
// re-arming and stopping one touches no side table and allocates nothing.
// Recurring callbacks (slice timers, IO completions) bind a Timer once and
// Reset it forever. One-shot events (At, After, AtArg, AtBatch) run on
// engine-owned Timers drawn from a pool that grows in fixed-size blocks,
// so pointers stay stable and a one-shot costs no heap object of its own
// once the pool has warmed up; the only per-event allocation left is a
// caller's closure. One-shot EventID handles carry a generation counter,
// which makes Cancel on an already-fired or already-canceled event a safe
// no-op.
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

// EventID is a handle to a scheduled one-shot event. The zero EventID
// refers to no event; Cancel of a zero, fired, or already-canceled handle is
// a no-op. Handles encode a pool index plus a generation counter, so they
// stay safe to hold after the event fires and its pooled Timer is reused.
type EventID uint64

// None is the zero EventID: a handle to no event.
const None EventID = 0

// poolBlock is how many one-shot Timers the engine allocates at a time.
const poolBlock = 64

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
	pool      []*[poolBlock]Timer // engine-owned one-shot Timers
	free      []*Timer            // the idle ones
	processed uint64
	// running guards the executor entry points against re-entrant Step/Run
	// from inside a callback and, best-effort, against concurrent use from
	// a second goroutine. It is a plain bool on purpose: re-entrancy (the
	// same goroutine) needs no atomicity, and cross-goroutine misuse is a
	// data race by definition — the race detector reports it regardless,
	// while the hot Step path stays free of atomic ops.
	running bool
	// freeSeed and orderSeed are the embedded first backings of free and
	// order; a slice that outgrows its seed falls back to append growth.
	freeSeed  [64]*Timer
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
	// Carve the embedded seeds: machines are built per trial.
	e := &Engine{}
	e.free = e.freeSeed[0:0:len(e.freeSeed)]
	e.order = e.orderSeed[0:0:len(e.orderSeed)]
	return e
}

// Reset returns the engine to its just-constructed state — clock at zero,
// no pending events, sequence and processed counters cleared — while
// keeping the one-shot pool and heap array the previous run grew, so a
// reused engine schedules without allocating. Every queued Timer is
// un-queued (it reports not pending, as if it had fired) and every
// one-shot returns to the pool, where its next use bumps its generation:
// handles from before the Reset stay stale. Determinism is preserved
// because ordering is strictly (time, sequence) and both restart from zero.
func (e *Engine) Reset() {
	e.enter("Reset")
	defer e.leave()
	e.now, e.seq, e.processed = 0, 0, 0
	for _, ent := range e.order {
		ent.tm.pos = 0
	}
	e.order = e.order[:0]
	e.hole = false
	// Refill high-to-low, so Timers go out in index order as on a fresh engine.
	e.free = e.free[:0]
	for i := len(e.pool)*poolBlock - 1; i >= 0; i-- {
		e.recycle(e.pooled(uint32(i)))
	}
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

// ---- one-shot pool -----------------------------------------------------

func (e *Engine) pooled(i uint32) *Timer { return &e.pool[i/poolBlock][i%poolBlock] }

// oneShot arms an idle pool Timer to run argFn(arg) (or the func() in arg
// when argFn is nil) at t and returns its handle. Handing the Timer out
// bumps its generation, so every handle to its earlier uses goes stale.
func (e *Engine) oneShot(t Time, argFn func(any), arg any) EventID {
	if len(e.free) == 0 {
		e.grow()
	}
	n := len(e.free) - 1
	tm := e.free[n]
	e.free = e.free[:n]
	tm.gen++
	tm.argFn, tm.arg = argFn, arg
	e.arm(tm, t)
	return EventID(uint64(tm.gen)<<32 | uint64(tm.idx))
}

// grow adds a block of idle Timers to the pool.
func (e *Engine) grow() {
	b := new([poolBlock]Timer)
	base := uint32(len(e.pool)) * poolBlock
	e.pool = append(e.pool, b)
	for i := poolBlock - 1; i >= 0; i-- {
		b[i].idx = base + uint32(i)
		e.free = append(e.free, &b[i])
	}
}

// recycle returns an un-queued one-shot to the pool.
func (e *Engine) recycle(tm *Timer) {
	tm.argFn, tm.arg = nil, nil
	e.free = append(e.free, tm)
}

// live resolves a handle to its queued one-shot, or nil if the event
// fired, was canceled, or never existed.
func (e *Engine) live(id EventID) *Timer {
	idx := uint32(id)
	if id == None || int(idx) >= len(e.pool)*poolBlock {
		return nil
	}
	tm := e.pooled(idx)
	if tm.gen != uint32(id>>32) || tm.pos == 0 {
		return nil
	}
	return tm
}

// ---- 4-ary heap --------------------------------------------------------
//
// Keys are (at, seq); seq is the global schedule counter, so ties resolve
// in insertion order and runs are fully deterministic. A 4-ary layout
// halves the tree depth of a binary heap and keeps the children of one
// node adjacent in memory. Every move writes the Timer's pos (heap
// position + 1, so 0 means "not queued").
//
// sched/runqueue.go carries a sibling of this position-tracked 4-ary heap
// specialized to *Task. The duplication is deliberate — a shared helper
// would need non-inlinable less/position callbacks on the hottest loops —
// but it means heap-logic fixes must be mirrored there.

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

// arm queues tm to fire at t with the next sequence number, exactly as a
// fresh At would. A queued tm is re-keyed in place; an unqueued one takes
// the fired root's place if step left it open, else joins at the bottom.
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
	e.order = append(e.order, ent)
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

// ---- scheduling --------------------------------------------------------

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it is always a model bug.
func (e *Engine) At(t Time, fn func()) EventID { return e.oneShot(t, nil, fn) }

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) EventID { return e.At(e.now+max(d, 0), fn) }

// AtArg schedules fn(arg) to run at absolute time t. It is the
// allocation-free form of At for hot paths: with a package-level fn (a
// static func value) and a pointer-shaped arg, scheduling allocates
// nothing — no closure is built.
func (e *Engine) AtArg(t Time, fn func(any), arg any) EventID { return e.oneShot(t, fn, arg) }

// AtBatch schedules fn(arg) at absolute time t for every arg, exactly as
// consecutive AtArg calls do: consecutive sequence numbers, so relative
// firing order matches the args order. It is the spawn-wave path: an
// entry never sifts above an earlier entry of the same time.
func (e *Engine) AtBatch(t Time, fn func(any), args ...any) {
	for _, arg := range args {
		e.AtArg(t, fn, arg)
	}
}

// Cancel removes a scheduled event so it will not fire. Canceling a zero
// handle, an already-fired event or an already-canceled event is a no-op.
func (e *Engine) Cancel(id EventID) {
	if tm := e.live(id); tm != nil {
		e.unqueue(tm)
		e.recycle(tm)
	}
}

// EventTime reports when a scheduled event will fire; ok is false when the
// handle no longer refers to a queued event.
func (e *Engine) EventTime(id EventID) (at Time, ok bool) {
	if tm := e.live(id); tm != nil {
		return e.order[tm.pos-1].at, true
	}
	return 0, false
}

// ---- timers ------------------------------------------------------------

// Timer is a reusable scheduled callback bound to one Engine, and the
// event heap's element: it carries its own heap position (its firing time
// and sequence number sit in its heap entry). Recurring reschedule
// patterns pay zero allocations per event: the callback is bound once (at
// NewTimer, Init or InitArg), and Reset/ResetAt re-key the Timer in place.
// A Timer is single-shot per arm (fire once, then Pending reports false)
// and, like its Engine, goroutine-confined.
//
// The zero Timer is unbound: embed it in a long-lived struct and bind it
// with Init or InitArg on first use — that removes even the Timer's own
// heap allocation, and InitArg's static-callback-plus-receiver form removes
// the closure too.
type Timer struct {
	eng *Engine // nil for the engine's pooled one-shots
	// A Timer runs argFn(arg), a static callback plus its receiver (the
	// allocation-free form), or, when argFn is nil, the func() held in arg
	// (a func value is pointer-shaped, so storing it allocates nothing).
	argFn func(any)
	arg   any
	pos   int32 // heap position + 1; 0 when not queued
	// gen and idx identify a pooled one-shot: how many times it has been
	// handed out (the EventID's generation) and its pool index.
	gen, idx uint32
}

// NewTimer returns an unarmed timer that will run fn each time it fires.
func (e *Engine) NewTimer(fn func()) *Timer {
	if fn == nil {
		panic("sim: NewTimer with nil callback")
	}
	return &Timer{eng: e, arg: fn}
}

// Init binds an embedded (zero-value) timer to an engine and callback.
// Re-initializing a bound timer panics: it would orphan a pending arm.
func (tm *Timer) Init(e *Engine, fn func()) {
	if tm.eng != nil {
		panic("sim: Timer.Init on an already-bound timer")
	}
	if fn == nil {
		panic("sim: Timer.Init with nil callback")
	}
	tm.eng, tm.arg = e, fn
}

// InitArg binds an embedded timer to a static callback and its receiver
// argument: the allocation-free form (no closure is built, ever).
func (tm *Timer) InitArg(e *Engine, fn func(any), arg any) {
	if tm.eng != nil {
		panic("sim: Timer.InitArg on an already-bound timer")
	}
	if fn == nil {
		panic("sim: Timer.InitArg with nil callback")
	}
	tm.eng, tm.argFn, tm.arg = e, fn, arg
}

// Bound reports whether the timer has been bound to an engine (NewTimer,
// Init or InitArg); embedded timers use it for lazy first-use binding.
func (tm *Timer) Bound() bool { return tm.eng != nil }

// Reset arms the timer to fire d after the current time, replacing any
// pending arm.
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
	argFn, arg := tm.argFn, tm.arg
	if tm.eng == nil {
		// Recycle a fired one-shot before the callback, so whatever the
		// callback schedules next can reuse it.
		e.recycle(tm)
	}
	e.hole = true
	e.processed++
	if argFn != nil {
		argFn(arg)
	} else {
		arg.(func())()
	}
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

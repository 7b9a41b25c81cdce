package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// FuzzEngineOrder drives the Engine and a naive reference queue (a slice
// scanned for the minimum (at, seq)) with the same program and requires
// identical observable behaviour: the fire sequence, Now, Pending,
// Processed, every Timer's Pending/When and every one-shot's EventTime.
//
// A program is a sequence of 3-byte records (op, p, a). Top-level ops
// schedule one-shots (At, After, AtArg, AtBatch), cancel live or stale
// handles, Reset/ResetAt/Stop four Timers (NewTimer, Init, and two
// InitArg), Step, RunUntil, bounded Run and Engine.Reset. The byte a is
// the action the armed event performs when it fires (see fired), which
// is how callbacks arm, re-arm, cancel and observe from inside Step.
func FuzzEngineOrder(f *testing.F) {
	for _, prog := range orderSeeds {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 3*64 {
			prog = prog[:3*64]
		}
		checkOrderProgram(t, prog)
	})
}

// orderSeeds covers the cases where step's deferred pop matters.
var orderSeeds = [][]byte{
	// A callback cancels a queued one-shot, then re-arms its own Timer.
	{0, 2, 0, 6, 0<<2 | 0, 3, 6, 1<<2 | 1, 0, 10, 3, 0},
	// A callback stops another queued Timer, then re-arms its own.
	{6, 1<<2 | 1, 0, 6, 0<<2 | 0, 5 | 0<<3, 0, 3, 0, 10, 3, 0},
	// A callback arms two Timers (its own and the next).
	{6, 0, 4, 8, 0, 0, 8, 0, 0, 8, 0, 0},
	// A callback arms nothing on a one-element heap.
	{0, 1, 0, 8, 0, 0, 8, 0, 0},
	// A callback observes Pending while its hole is open, then arms.
	{6, 2, 7 | 1<<3, 0, 3, 1, 10, 3, 0},
	// Engine.Reset with a queued Timer and one-shot, then stale handles.
	{6, 1<<2 | 2, 0, 2, 1, 0, 11, 0, 0, 4, 0, 0, 0, 0, 0, 4, 0, 0, 6, 2, 0, 10, 3, 0},
}

// TestEngineOrderRandomPrograms runs the FuzzEngineOrder check on a fixed
// set of random programs, so plain `go test` covers more than the seeds.
func TestEngineOrderRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		prog := make([]byte, 3*(1+rng.Intn(60)))
		rng.Read(prog)
		checkOrderProgram(t, prog)
	}
}

func checkOrderProgram(t *testing.T, prog []byte) {
	t.Helper()
	got := runOrderProgram(newRealOrder, prog)
	want := runOrderProgram(newRefOrder, prog)
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("program %v: trace diverges at %d: engine %v, reference %v", prog, i, got[max(0, i-4):i+1], want[max(0, i-4):i+1])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("program %v: trace length %d, reference %d", prog, len(got), len(want))
	}
}

// orderAPI is the engine surface a program drives. Handles index the
// one-shots scheduled by at/atArg in scheduling order; timers are 0..3.
type orderAPI interface {
	now() Time
	pending() int
	processed() uint64
	at(t Time, fn func())
	after(d Time, fn func())
	atArg(t Time, fn func(any), arg any)
	atBatch(t Time, fn func(any), args []any)
	handles() int
	cancel(h int)
	eventTime(h int) (Time, bool)
	timerReset(k int, d Time)
	timerResetAt(k int, t Time)
	timerStop(k int)
	timerWhen(k int) (Time, bool)
	timerPending(k int) bool
	step() bool
	runUntil(t Time)
	run(limit uint64) uint64
	reset()
}

// orderRunner interprets a program against one orderAPI and records
// everything observable in trace.
type orderRunner struct {
	api    orderAPI
	trace  []int64
	label  int64
	tLabel [4]int64
	tAct   [4]byte
	argFn  func(any)
}

type shot struct {
	label int64
	act   byte
}

func runOrderProgram(mk func(fire func(k int)) orderAPI, prog []byte) []int64 {
	d := &orderRunner{}
	d.api = mk(func(k int) { d.fired(d.tLabel[k], d.tAct[k]) })
	d.argFn = func(a any) { s := a.(*shot); d.fired(s.label, s.act) }
	for ; len(prog) >= 3; prog = prog[3:] {
		op, p, a := prog[0], prog[1], prog[2]
		now := d.api.now()
		k := int(p & 3)
		switch op % 12 {
		case 0:
			d.armAt(now+dt(p), a)
		case 1:
			l := d.next()
			d.api.after(Time(int(p%8)-2)*Microsecond, func() { d.fired(l, a) })
		case 2:
			d.api.atArg(now+dt(p), d.argFn, &shot{d.next(), a})
		case 3:
			d.armBatch(now+dt(p), 1+int(p>>2)%4, a)
		case 4:
			if n := d.api.handles(); n > 0 {
				d.api.cancel((int(p)<<8 | int(a)) % n)
			}
		case 5:
			d.tLabel[k], d.tAct[k] = d.next(), a
			d.api.timerReset(k, Time(int(p>>2)%6-2)*Microsecond)
		case 6:
			d.armTimerAt(k, now+dt(p>>2), a)
		case 7:
			d.api.timerStop(k)
		case 8:
			d.log(b2i(d.api.step()))
		case 9:
			d.api.runUntil(now + dt(p))
		case 10:
			d.log(int64(d.api.run(uint64(p%4) + 1)))
		case 11:
			d.api.reset()
		}
		d.observe()
	}
	d.log(int64(d.api.run(0)))
	d.observe()
	return d.trace
}

func dt(p byte) Time { return Time(p%4) * Microsecond }

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (d *orderRunner) log(vs ...int64) { d.trace = append(d.trace, vs...) }

func (d *orderRunner) next() int64 {
	d.label++
	return d.label
}

func (d *orderRunner) armAt(t Time, act byte) {
	l := d.next()
	d.api.at(t, func() { d.fired(l, act) })
}

func (d *orderRunner) armTimerAt(k int, t Time, act byte) {
	d.tLabel[k], d.tAct[k] = d.next(), act
	d.api.timerResetAt(k, t)
}

func (d *orderRunner) armBatch(t Time, n int, act byte) {
	args := make([]any, n)
	for i := range args {
		args[i] = &shot{d.next(), act}
	}
	d.api.atBatch(t, d.argFn, args)
}

// fired logs an event and performs its action: the low 3 bits pick what
// the callback does, the next 2 a parameter p, and the top 3 the action
// of whatever it arms, so callback chains end within three levels.
func (d *orderRunner) fired(label int64, act byte) {
	now := d.api.now()
	d.log(-1, label, int64(now))
	p := (act >> 3) & 3
	child := act >> 5
	k := int(p)
	switch act & 7 {
	case 1:
		if p&1 == 0 {
			d.armAt(now+dt(p), child)
		} else {
			d.api.atArg(now+dt(p), d.argFn, &shot{d.next(), child})
		}
	case 2:
		d.tLabel[k], d.tAct[k] = d.next(), child
		d.api.timerReset(k, dt(p))
	case 3:
		if n := d.api.handles(); n > 0 {
			d.api.cancel(n - 1 - int(p)%n)
		}
		d.armTimerAt(k, now+dt(p), child)
	case 4:
		d.armTimerAt(k, now+dt(p), child)
		d.armTimerAt((k+1)%4, now+dt(p+1), child)
	case 5:
		d.api.timerStop((k + 1) % 4)
		d.armTimerAt(k, now+dt(p), child)
	case 6:
		d.armBatch(now+dt(p), 2, child)
	case 7:
		d.observe()
		l := d.next()
		d.api.after(dt(p), func() { d.fired(l, child) })
	}
}

func (d *orderRunner) observe() {
	d.log(-2, int64(d.api.now()), int64(d.api.pending()), int64(d.api.processed()))
	for k := 0; k < 4; k++ {
		at, ok := d.api.timerWhen(k)
		d.log(b2i(d.api.timerPending(k)), b2i(ok), int64(at))
	}
	for h := 0; h < d.api.handles(); h++ {
		at, ok := d.api.eventTime(h)
		d.log(b2i(ok), int64(at))
	}
}

// ---- the Engine under test ----------------------------------------------

type realOrder struct {
	eng    *Engine
	ids    []EventID
	timers [4]*Timer
	t1     Timer
	t2, t3 Timer
}

func newRealOrder(fire func(k int)) orderAPI {
	r := &realOrder{eng: NewEngine()}
	r.timers[0] = r.eng.NewTimer(func() { fire(0) })
	r.t1.Init(r.eng, func() { fire(1) })
	fireArg := func(a any) { fire(a.(int)) }
	r.t2.InitArg(r.eng, fireArg, 2)
	r.t3.InitArg(r.eng, fireArg, 3)
	r.timers[1], r.timers[2], r.timers[3] = &r.t1, &r.t2, &r.t3
	return r
}

func (r *realOrder) now() Time                             { return r.eng.Now() }
func (r *realOrder) pending() int                          { return r.eng.Pending() }
func (r *realOrder) processed() uint64                     { return r.eng.Processed() }
func (r *realOrder) at(t Time, fn func())                  { r.ids = append(r.ids, r.eng.At(t, fn)) }
func (r *realOrder) after(d Time, fn func())               { r.ids = append(r.ids, r.eng.After(d, fn)) }
func (r *realOrder) atArg(t Time, fn func(any), a any)     { r.ids = append(r.ids, r.eng.AtArg(t, fn, a)) }
func (r *realOrder) atBatch(t Time, fn func(any), a []any) { r.eng.AtBatch(t, fn, a...) }
func (r *realOrder) handles() int                          { return len(r.ids) }
func (r *realOrder) cancel(h int)                          { r.eng.Cancel(r.ids[h]) }
func (r *realOrder) eventTime(h int) (Time, bool)          { return r.eng.EventTime(r.ids[h]) }
func (r *realOrder) timerReset(k int, d Time)              { r.timers[k].Reset(d) }
func (r *realOrder) timerResetAt(k int, t Time)            { r.timers[k].ResetAt(t) }
func (r *realOrder) timerStop(k int)                       { r.timers[k].Stop() }
func (r *realOrder) timerWhen(k int) (Time, bool)          { return r.timers[k].When() }
func (r *realOrder) timerPending(k int) bool               { return r.timers[k].Pending() }
func (r *realOrder) step() bool                            { return r.eng.Step() }
func (r *realOrder) runUntil(t Time)                       { r.eng.RunUntil(t) }
func (r *realOrder) run(limit uint64) uint64               { return r.eng.Run(limit) }
func (r *realOrder) reset()                                { r.eng.Reset() }

// ---- the reference ------------------------------------------------------

type refEvent struct {
	at     Time
	seq    uint64
	fn     func()
	queued bool
}

// refOrder is the obviously-correct queue: an unordered slice scanned for
// the minimum (at, seq) on every pop.
type refOrder struct {
	clock  Time
	seq    uint64
	done   uint64
	q      []*refEvent
	ids    []*refEvent
	timers [4]*refEvent
	fire   func(k int)
}

func newRefOrder(fire func(k int)) orderAPI { return &refOrder{fire: fire} }

func (r *refOrder) push(t Time, fn func()) *refEvent {
	if t < r.clock {
		panic(fmt.Sprintf("reference: scheduling at %v before now %v", t, r.clock))
	}
	ev := &refEvent{at: t, seq: r.seq, fn: fn, queued: true}
	r.seq++
	r.q = append(r.q, ev)
	return ev
}

func (r *refOrder) unqueue(ev *refEvent) {
	if ev == nil || !ev.queued {
		return
	}
	ev.queued = false
	for i, x := range r.q {
		if x == ev {
			r.q = append(r.q[:i], r.q[i+1:]...)
			return
		}
	}
}

// min returns the index of the next event, or -1 when the queue is empty.
func (r *refOrder) min() int {
	best := -1
	for i, ev := range r.q {
		if best < 0 || ev.at < r.q[best].at || (ev.at == r.q[best].at && ev.seq < r.q[best].seq) {
			best = i
		}
	}
	return best
}

func (r *refOrder) now() Time            { return r.clock }
func (r *refOrder) pending() int         { return len(r.q) }
func (r *refOrder) processed() uint64    { return r.done }
func (r *refOrder) at(t Time, fn func()) { r.ids = append(r.ids, r.push(t, fn)) }
func (r *refOrder) after(d Time, fn func()) {
	r.at(r.clock+max(d, 0), fn)
}
func (r *refOrder) atArg(t Time, fn func(any), a any) { r.at(t, func() { fn(a) }) }
func (r *refOrder) atBatch(t Time, fn func(any), args []any) {
	for _, a := range args {
		r.push(t, func() { fn(a) })
	}
}
func (r *refOrder) handles() int { return len(r.ids) }
func (r *refOrder) cancel(h int) { r.unqueue(r.ids[h]) }
func (r *refOrder) eventTime(h int) (Time, bool) {
	if ev := r.ids[h]; ev.queued {
		return ev.at, true
	}
	return 0, false
}
func (r *refOrder) timerReset(k int, d Time) { r.timerResetAt(k, r.clock+max(d, 0)) }
func (r *refOrder) timerResetAt(k int, t Time) {
	r.unqueue(r.timers[k])
	r.timers[k] = r.push(t, func() { r.fire(k) })
}
func (r *refOrder) timerStop(k int) { r.unqueue(r.timers[k]) }
func (r *refOrder) timerWhen(k int) (Time, bool) {
	if ev := r.timers[k]; ev != nil && ev.queued {
		return ev.at, true
	}
	return 0, false
}
func (r *refOrder) timerPending(k int) bool {
	_, ok := r.timerWhen(k)
	return ok
}

func (r *refOrder) step() bool {
	i := r.min()
	if i < 0 {
		return false
	}
	ev := r.q[i]
	r.unqueue(ev)
	r.clock = ev.at
	r.done++
	ev.fn()
	return true
}

func (r *refOrder) runUntil(t Time) {
	for i := r.min(); i >= 0 && r.q[i].at <= t; i = r.min() {
		r.step()
	}
	r.clock = max(r.clock, t)
}

func (r *refOrder) run(limit uint64) uint64 {
	var n uint64
	for (limit == 0 || n < limit) && r.step() {
		n++
	}
	return n
}

func (r *refOrder) reset() {
	for _, ev := range r.q {
		ev.queued = false
	}
	r.q = nil
	r.clock, r.seq, r.done = 0, 0, 0
}

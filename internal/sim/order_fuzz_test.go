package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// FuzzEngineOrder drives the Engine and a naive reference queue (a slice
// scanned for the minimum (at, seq)) with the same program and requires
// identical observable behaviour: the fire sequence, Now, Pending,
// Processed and every Timer's Pending/When.
//
// A program is a sequence of 3-byte records (op, p, a) over nTimers
// InitArg-bound Timers. The low 3 bits of op pick ResetAt, Reset, Stop,
// Step, RunUntil, bounded Run, Engine.Reset or a wave of same-time arms;
// the next 2 bits pick a time offset and the top 3 a count. p picks the
// Timer and a is the action the Timer performs when it fires (see fired),
// which is how callbacks arm, re-arm, stop and observe from inside Step.
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
	// A callback re-arms its own Timer later than a queued one: the arm
	// takes the hole and sifts down past it.
	{0, 0, 1 | 2<<3, 0 | 1<<3, 1, 0, 3, 0, 0, 5 | 3<<3, 0, 0},
	// A callback stops another queued Timer, then re-arms its own.
	{0, 0, 3, 0 | 1<<3, 1, 0, 0 | 2<<3, 2, 0, 3, 0, 0, 5 | 3<<3, 0, 0},
	// A callback arms two Timers (its own and the next) behind two queued
	// ones.
	{0, 0, 4 | 1<<3, 0, 2, 0, 0 | 1<<3, 3, 0, 3, 0, 0, 3, 0, 0, 3, 0, 0, 3, 0, 0},
	// A callback arms nothing on a one-element heap.
	{0 | 1<<3, 0, 0, 3, 0, 0, 3, 0, 0},
	// A callback observes Pending while its hole is open, then arms.
	{0, 0, 7 | 1<<3, 0 | 3<<3, 1, 0, 3, 0, 0, 5 | 3<<3, 0, 0},
	// Engine.Reset with queued Timers, then the same Timers re-armed.
	{0 | 1<<3, 0, 0, 0 | 2<<3, 1, 1, 6, 0, 0, 0, 1, 0, 0 | 3<<3, 0, 0, 5 | 3<<3, 0, 0},
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

// nTimers is how many Timers a program drives: enough for a heap three
// levels deep, so sifts cross full 4-ary nodes.
const nTimers = 32

// orderAPI is the engine surface a program drives; timers are 0..nTimers-1.
type orderAPI interface {
	now() Time
	pending() int
	processed() uint64
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
// everything observable in trace. Each arm gives its Timer a fresh label
// and the action it performs when that arm fires.
type orderRunner struct {
	api    orderAPI
	trace  []int64
	label  int64
	tLabel [nTimers]int64
	tAct   [nTimers]byte
}

func runOrderProgram(mk func(fire func(k int)) orderAPI, prog []byte) []int64 {
	d := &orderRunner{}
	d.api = mk(d.fired)
	for ; len(prog) >= 3; prog = prog[3:] {
		op, p, a := prog[0], prog[1], prog[2]
		now := d.api.now()
		k := int(p) % nTimers
		off := dt(op >> 3)
		switch op & 7 {
		case 0:
			d.armAt(k, now+off, a)
		case 1:
			d.label++
			d.tLabel[k], d.tAct[k] = d.label, a
			d.api.timerReset(k, Time(int(op>>3)%6-2)*Microsecond)
		case 2:
			d.api.timerStop(k)
		case 3:
			d.log(b2i(d.api.step()))
		case 4:
			d.api.runUntil(now + off)
		case 5:
			d.log(int64(d.api.run(uint64(op>>3)%4 + 1)))
		case 6:
			d.api.reset()
		case 7:
			for i := 0; i <= int(op>>5)%4; i++ {
				d.armAt((k+i)%nTimers, now+off, a)
			}
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

func (d *orderRunner) armAt(k int, t Time, act byte) {
	d.label++
	d.tLabel[k], d.tAct[k] = d.label, act
	d.api.timerResetAt(k, t)
}

// fired logs Timer k's firing and performs its action: the low 3 bits
// pick what the callback does, the next 2 a parameter p, and the top 3
// the action of whatever it arms, so callback chains end within two
// levels. other is a Timer distinct from k.
func (d *orderRunner) fired(k int) {
	now, act := d.api.now(), d.tAct[k]
	d.log(-1, d.tLabel[k], int64(now))
	p := (act >> 3) & 3
	child := act >> 5
	other := (k + 1 + int(p)) % nTimers
	switch act & 7 {
	case 1:
		d.armAt(k, now+dt(p), child)
	case 2:
		d.label++
		d.tLabel[other], d.tAct[other] = d.label, child
		d.api.timerReset(other, dt(p))
	case 3:
		d.api.timerStop(other)
		d.armAt(k, now+dt(p), child)
	case 4:
		d.armAt(k, now+dt(p), child)
		d.armAt((k+1)%nTimers, now+dt(p+1), child)
	case 5:
		d.api.timerStop(k) // the fired Timer is not queued: a no-op
		d.armAt(other, now+dt(p), child)
	case 6:
		for i := 1; i <= 3; i++ {
			d.armAt((k+i)%nTimers, now+dt(p), child)
		}
	case 7:
		d.observe()
		d.armAt(other, now+dt(p), child)
	}
}

func (d *orderRunner) observe() {
	d.log(-2, int64(d.api.now()), int64(d.api.pending()), int64(d.api.processed()))
	for k := 0; k < nTimers; k++ {
		at, ok := d.api.timerWhen(k)
		d.log(b2i(d.api.timerPending(k)), b2i(ok), int64(at))
	}
}

// ---- the Engine under test ----------------------------------------------

type realOrder struct {
	eng    *Engine
	timers [nTimers]Timer
}

// newRealOrder binds every Timer to one callback whose argument is the
// Timer's index.
func newRealOrder(fire func(k int)) orderAPI {
	r := &realOrder{eng: NewEngine()}
	fireArg := func(a any) { fire(a.(int)) }
	for k := range r.timers {
		r.timers[k].InitArg(r.eng, fireArg, k)
	}
	return r
}

func (r *realOrder) now() Time                    { return r.eng.Now() }
func (r *realOrder) pending() int                 { return r.eng.Pending() }
func (r *realOrder) processed() uint64            { return r.eng.Processed() }
func (r *realOrder) timerReset(k int, d Time)     { r.timers[k].Reset(d) }
func (r *realOrder) timerResetAt(k int, t Time)   { r.timers[k].ResetAt(t) }
func (r *realOrder) timerStop(k int)              { r.timers[k].Stop() }
func (r *realOrder) timerWhen(k int) (Time, bool) { return r.timers[k].When() }
func (r *realOrder) timerPending(k int) bool      { return r.timers[k].Pending() }
func (r *realOrder) step() bool                   { return r.eng.Step() }
func (r *realOrder) runUntil(t Time)              { r.eng.RunUntil(t) }
func (r *realOrder) run(limit uint64) uint64      { return r.eng.Run(limit) }
func (r *realOrder) reset()                       { r.eng.Reset() }

// ---- the reference ------------------------------------------------------

type refEvent struct {
	at     Time
	seq    uint64
	k      int
	queued bool
}

// refOrder is the obviously-correct queue: an unordered slice scanned for
// the minimum (at, seq) on every pop.
type refOrder struct {
	clock  Time
	seq    uint64
	done   uint64
	q      []*refEvent
	timers [nTimers]*refEvent
	fire   func(k int)
}

func newRefOrder(fire func(k int)) orderAPI { return &refOrder{fire: fire} }

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

func (r *refOrder) now() Time                { return r.clock }
func (r *refOrder) pending() int             { return len(r.q) }
func (r *refOrder) processed() uint64        { return r.done }
func (r *refOrder) timerReset(k int, d Time) { r.timerResetAt(k, r.clock+max(d, 0)) }
func (r *refOrder) timerResetAt(k int, t Time) {
	if t < r.clock {
		panic(fmt.Sprintf("reference: scheduling at %v before now %v", t, r.clock))
	}
	r.unqueue(r.timers[k])
	ev := &refEvent{at: t, seq: r.seq, k: k, queued: true}
	r.seq++
	r.q = append(r.q, ev)
	r.timers[k] = ev
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
	r.fire(ev.k)
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

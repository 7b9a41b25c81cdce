package sched

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// FuzzSubQueueOrder drives one subQueue and a naive reference (a slice
// scanned for the minimum (vruntime, rqSeq)) with the same program and
// requires the same task out of every pop and removal, plus a consistent
// heap after every operation: each entry's rqPos is its slot, its key is
// its task's, and no child sorts before its parent.
//
// A program is a sequence of 2-byte records (op, a). op mod 3 picks a push
// with vruntime a mod 8 − 2 (so ties are common and negative times occur),
// a pop of the minimum, or a removal at heap position a mod the queue
// length. The queue starts on the scheduler's 8-slot carve, and once it
// grows off it the carve must hold no stale task.
func FuzzSubQueueOrder(f *testing.F) {
	for _, prog := range subQueueSeeds {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 2*256 {
			prog = prog[:2*256]
		}
		checkSubQueueProgram(t, prog)
	})
}

const (
	opPush = iota
	opPop
	opRemove
)

// subQueueSeeds covers ties, removal of the root, a middle and the last
// entry, and growth past the carve.
var subQueueSeeds = [][]byte{
	// Five pushes at one vruntime, then pops: rqSeq alone orders them.
	{opPush, 3, opPush, 3, opPush, 3, opPush, 3, opPush, 3, opPop, 0, opPop, 0, opPop, 0},
	// Removals of the root, a middle entry and the last entry.
	{opPush, 5, opPush, 1, opPush, 4, opPush, 1, opPush, 7, opPush, 0, opRemove, 0, opRemove, 2, opRemove, 3, opPop, 0},
	// Twelve pushes grow the queue off its carve; then drain it.
	{opPush, 7, opPush, 6, opPush, 5, opPush, 4, opPush, 3, opPush, 2, opPush, 1, opPush, 0,
		opPush, 7, opPush, 2, opPush, 2, opPush, 5, opRemove, 4, opRemove, 10, opPop, 0, opPop, 0, opRemove, 1},
}

// TestSubQueueMatchesReference runs the FuzzSubQueueOrder check on fixed
// random programs, so plain `go test` covers more than the seeds.
func TestSubQueueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		prog := make([]byte, 2*(1+rng.Intn(120)))
		rng.Read(prog)
		// Bias toward pushes so queues get deep enough to fill 4-ary nodes.
		for j := 0; j < len(prog); j += 2 {
			if prog[j]%5 < 3 {
				prog[j] = opPush
			}
		}
		checkSubQueueProgram(t, prog)
	}
}

func checkSubQueueProgram(t *testing.T, prog []byte) {
	t.Helper()
	var (
		s     Scheduler
		sq    = subQueue{h: s.carveHeap()}
		carve = sq.h[:cap(sq.h)]
		ref   []*Task
		seq   uint64
	)
	refMin := func() int {
		best := 0
		for k, x := range ref {
			b := ref[best]
			if x.vruntime < b.vruntime || x.vruntime == b.vruntime && x.rqSeq < b.rqSeq {
				best = k
			}
		}
		return best
	}
	take := func(step, want int, got *Task) {
		t.Helper()
		if got != ref[want] || got.rqPos != -1 {
			t.Fatalf("program %v step %d: took task %d (rqPos %d), reference %d", prog, step, got.ID, got.rqPos, ref[want].ID)
		}
		ref = append(ref[:want], ref[want+1:]...)
	}
	for step := 0; step+1 < len(prog); step += 2 {
		op, a := prog[step]%3, int(prog[step+1])
		switch {
		case op == opPush:
			tk := &Task{ID: int(seq), vruntime: sim.Time(a%8 - 2), rqSeq: seq}
			seq++
			sq.push(tk)
			ref = append(ref, tk)
		case len(ref) == 0:
			continue
		case op == opPop:
			take(step, refMin(), sq.removeAt(0))
		default:
			pos := a % len(sq.h)
			victim := sq.h[pos].t
			k := 0
			for ref[k] != victim {
				k++
			}
			take(step, k, sq.removeAt(pos))
		}
		if len(sq.h) != len(ref) {
			t.Fatalf("program %v step %d: heap holds %d, reference %d", prog, step, len(sq.h), len(ref))
		}
		for i, e := range sq.h {
			if e.t.rqPos != int32(i) || e.vruntime != e.t.vruntime || e.rqSeq != e.t.rqSeq {
				t.Fatalf("program %v step %d: slot %d holds task %d with rqPos %d and a stale key", prog, step, i, e.t.ID, e.t.rqPos)
			}
			if i > 0 && beforeRQ(e, sq.h[(i-1)/4]) != 0 {
				t.Fatalf("program %v step %d: slot %d sorts before its parent", prog, step, i)
			}
		}
		if len(ref) > 0 && sq.h[0].t != ref[refMin()] {
			t.Fatalf("program %v step %d: root is task %d, reference minimum %d", prog, step, sq.h[0].t.ID, ref[refMin()].ID)
		}
		if cap(sq.h) > len(carve) {
			for i, e := range carve {
				if e.t != nil {
					t.Fatalf("program %v step %d: carve slot %d still holds task %d after growth", prog, step, i, e.t.ID)
				}
			}
		}
	}
}

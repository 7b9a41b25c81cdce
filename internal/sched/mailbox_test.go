package sched

import (
	"testing"

	"repro/internal/sim"
)

// TestMailboxFIFOInterleaved interleaves deliveries and takes at random
// against a plain slice model, then checks that a Recv after a partial
// drain falls through while mail is pending and blocks once it is empty.
func TestMailboxFIFOInterleaved(t *testing.T) {
	r := newRig(smallHost(), nil)
	s := r.s
	var senders [3]*Task
	for i := range senders {
		senders[i] = s.spawnTask(TaskSpec{Name: "tx", Program: Sequence()})
	}
	check := func(got, want Message, what string) {
		t.Helper()
		if got.From != want.From || got.Bytes != want.Bytes || got.sentCPU != want.sentCPU {
			t.Fatalf("%s: got from %v, %d bytes, cpu %d; want from %v, %d bytes, cpu %d",
				what, got.From, got.Bytes, got.sentCPU, want.From, want.Bytes, want.sentCPU)
		}
	}

	rx := s.spawnTask(TaskSpec{Name: "rx", Program: Sequence()})
	rng := sim.NewRNG(3)
	var model []Message
	for i := 0; i < 4000; i++ {
		if rng.Intn(2) == 0 {
			m := Message{From: senders[rng.Intn(len(senders))], Bytes: int64(i), sentCPU: rng.Intn(4)}
			s.deliver(m.From, rx, m.Bytes, m.sentCPU)
			model = append(model, m)
		} else {
			m, ok := rx.TakeMessage()
			if ok != (len(model) > 0) {
				t.Fatalf("op %d: TakeMessage ok=%v with %d queued", i, ok, len(model))
			}
			if ok {
				check(m, model[0], "take")
				model = model[1:]
			}
		}
		if rx.hasMail() != (len(model) > 0) {
			t.Fatalf("op %d: hasMail=%v with %d queued", i, rx.hasMail(), len(model))
		}
	}

	// Recv blocking. The receiver takes takes[call] messages per program
	// call, then asks for Recv.
	takes := []int{1, 2, 0, 1}
	var got []Message
	call := 0
	rx = s.spawnTask(TaskSpec{Name: "rx2", Program: ProgramFunc(func(task *Task) Action {
		if call >= len(takes) {
			t.Fatalf("program called %d times, want %d", call+1, len(takes))
		}
		for n := takes[call]; n > 0; n-- {
			m, ok := task.TakeMessage()
			if !ok {
				t.Fatalf("call %d: mailbox empty", call)
			}
			got = append(got, m)
		}
		call++
		return Recv()
	})})
	sent := []Message{
		{From: senders[0], Bytes: 10, sentCPU: 1},
		{From: senders[1], Bytes: 20, sentCPU: 2},
		{From: senders[2], Bytes: 30, sentCPU: 3},
		{From: senders[0], Bytes: 40, sentCPU: 0},
	}
	for _, m := range sent[:3] {
		s.deliver(m.From, rx, m.Bytes, m.sentCPU)
	}
	// Call 0 takes 1 of 3: Recv must fall through to call 1, which drains
	// the rest, so that Recv blocks.
	s.startProgram(rx, -1)
	if call != 2 || rx.state != stateBlockedRecv {
		t.Fatalf("after draining 3: %d calls, state %d; want 2 calls, blocked in recv", call, rx.state)
	}
	// A delivery wakes the receiver. Call 2 takes nothing, so its Recv falls
	// through; call 3 takes the message and blocks again.
	s.deliver(sent[3].From, rx, sent[3].Bytes, sent[3].sentCPU)
	if call != 4 || rx.state != stateBlockedRecv {
		t.Fatalf("after a woken drain: %d calls, state %d; want 4 calls, blocked in recv", call, rx.state)
	}
	if rx.pendingMsgFromCPU != sent[3].sentCPU {
		t.Fatalf("wake sender cpu %d, want %d", rx.pendingMsgFromCPU, sent[3].sentCPU)
	}
	if len(got) != len(sent) {
		t.Fatalf("took %d messages, want %d", len(got), len(sent))
	}
	for i := range sent {
		check(got[i], sent[i], "recv")
	}
}

package sched

import (
	"fmt"

	"repro/internal/cgroups"
	"repro/internal/irqsim"
	"repro/internal/sim"
	"repro/internal/topology"
)

// ActionKind enumerates what a task asks the scheduler to do next.
type ActionKind int

const (
	// ActCompute runs on a CPU for a given amount of nominal work time.
	ActCompute ActionKind = iota
	// ActIO blocks the task for a device latency, then wakes it through the
	// IRQ path of a channel.
	ActIO
	// ActSend transmits a message to another task (paying sync + copy
	// costs) and continues.
	ActSend
	// ActRecv blocks until a message is available in the task's mailbox.
	ActRecv
	// ActSleep blocks the task for a duration without the IO/IRQ path
	// (paced arrivals, think-time).
	ActSleep
	// ActDone terminates the task.
	ActDone
)

// Action is one step of a task program.
type Action struct {
	Kind ActionKind

	// Compute: nominal work duration (scaled by the machine's compute
	// factors when executed).
	Dur sim.Time

	// IO: device channel index and service latency.
	Channel int
	Latency sim.Time

	// Send: destination task and payload size.
	To    *Task
	Bytes int64
}

// Compute returns a compute action.
func Compute(d sim.Time) Action { return Action{Kind: ActCompute, Dur: d} }

// IO returns an IO action on channel ch with the given device latency.
func IO(ch int, latency sim.Time) Action {
	return Action{Kind: ActIO, Channel: ch, Latency: latency}
}

// Send returns a message-send action.
func Send(to *Task, bytes int64) Action { return Action{Kind: ActSend, To: to, Bytes: bytes} }

// Recv returns a blocking-receive action.
func Recv() Action { return Action{Kind: ActRecv} }

// Sleep returns a blocking pause without the IO completion path.
func Sleep(d sim.Time) Action { return Action{Kind: ActSleep, Dur: d} }

// Done returns the terminating action.
func Done() Action { return Action{Kind: ActDone} }

// Program drives a task: the scheduler calls Next each time the previous
// action completes. Msgs received since the last call are drained via
// TakeMessage.
type Program interface {
	Next(t *Task) Action
}

// ProgramFunc adapts a closure to Program.
type ProgramFunc func(t *Task) Action

// Next implements Program.
func (f ProgramFunc) Next(t *Task) Action { return f(t) }

// Sequence returns a Program that yields the given actions in order and then
// Done.
func Sequence(actions ...Action) Program {
	i := 0
	return ProgramFunc(func(*Task) Action {
		if i >= len(actions) {
			return Done()
		}
		a := actions[i]
		i++
		return a
	})
}

// ActionList is a Program backed by a shared, immutable action slice: the
// progress cursor lives on each Task, so one ActionList value — and the
// single interface conversion it costs — can drive any number of tasks with
// zero per-task allocation. Sequence, by contrast, builds a fresh closure
// per task; spawn storms (a 16-thread transcoder per trial, thousands of
// trials) use ActionList. The slice must not be mutated after spawning.
type ActionList []Action

// Next implements Program.
func (a ActionList) Next(t *Task) Action {
	if int(t.progIdx) >= len(a) {
		return Done()
	}
	act := a[t.progIdx]
	t.progIdx++
	return act
}

// taskState is the lifecycle of a task inside the scheduler.
type taskState int

const (
	stateNew taskState = iota
	stateRunnable
	stateRunning
	stateBlockedIO
	stateBlockedRecv
	stateDone
)

// Message is an inter-task payload (MPI model).
type Message struct {
	From    *Task
	Bytes   int64
	sentCPU int // CPU the sender ran on, for line-transfer distance
}

// TaskSpec configures a task before spawning.
type TaskSpec struct {
	Name string
	// Group is the task's cgroup (nil = ungrouped, e.g. bare metal).
	Group *cgroups.Group
	// Proc identifies the task's thread group (process). Threads sharing a
	// Proc value > 0 hammer the same cgroup usage counters, which is what
	// the nested-accounting cost inside VMCN guests contends on. The zero
	// value means "own single-thread process" (no sharing).
	Proc int
	// Affinity restricts the task to a CPU set (empty = group cpuset or all;
	// used for the bare-metal GRUB-style core limiting).
	Affinity topology.CPUSet
	// WorkingSet scales cache-reload penalties (1.0 = nominal, e.g. a video
	// transcoder's frame buffers; 0 disables migration penalties).
	WorkingSet float64
	// MemBound is the memory-bound fraction of compute, feeding the NUMA
	// slowdown factor.
	MemBound float64
	// VMTaxWeight is how strongly this task's compute suffers the guest
	// virtualization tax (1.0 = full, e.g. large-working-set transcode; low
	// for cache-resident integer work).
	VMTaxWeight float64
	// Program drives the task.
	Program Program
}

// Task is a schedulable entity (a thread or a process; the paper treats both
// as host-OS processes).
type Task struct {
	ID   int
	Spec TaskSpec

	state     taskState
	vruntime  sim.Time
	remaining sim.Time // nominal work left in the current compute chunk
	lastCPU   int
	lastRanAt sim.Time
	curCPU    int
	rqCPU     int    // runqueue currently holding the task (-1 = none)
	rqPos     int32  // heap position inside its subqueue (-1 = not queued)
	rqSeq     uint64 // global enqueue sequence; runqueue FIFO tie-break
	qIdx      int32  // subqueue index of the task's cgroup (0 = ungrouped)
	progIdx   int32  // program counter for shared stateless programs (ActionList)

	// sched is the owning scheduler, set at spawn: the static timer
	// callback (taskWakeFired) recovers its context through
	// it instead of capturing it in per-task closures.
	sched *Scheduler

	// computeScale is Config.ComputeScale(t), resolved once at spawn: its
	// inputs are the task's spec and the machine's configuration, neither
	// of which changes while the task lives.
	computeScale float64

	// procCtr is the shared runnable-thread counter of the task's thread
	// group, resolved once at spawn so the dispatch path skips the map.
	procCtr *procCount

	// wakeTimer fires the task's arrival while it is new, then its block
	// expiries (IO completion when wakeCh is set, sleep wake otherwise).
	// Embedded and bound to a static callback at spawn, so neither a spawn
	// nor steady-state IO pays a Timer allocation or a closure.
	wakeTimer sim.Timer
	wakeCh    *irqsim.Channel

	// pending overhead to charge at next dispatch (wakeup path costs).
	pendingOverhead sim.Time
	// pendingChurn is the unthrottle cold-restart cost. It overwrites
	// rather than accumulates: a task starved across several throttle
	// cycles refills its caches once when it finally runs, and stacking
	// the charge would spiral small-quota groups into a livelock.
	pendingChurn      sim.Time
	pendingIRQ        *irqsim.Channel // IO channel whose completion cost to pay
	pendingMsgFromCPU int             // sender CPU of the message that woke us (-1 none)

	// mailbox holds undelivered messages in mailbox[mailHead:]. Taking a
	// message advances mailHead instead of reslicing, so one backing array
	// serves the task's whole run (see deliverMail and TakeMessage).
	mailbox  []Message
	mailHead int

	// A send in flight is modeled as a message chunk; when it ends, the
	// message is delivered.
	chunkIsMsg bool
	sendTo     *Task
	sendBytes  int64

	// aff points at the task's interned effective-affinity entry (affinity
	// is immutable for a task's lifetime); the pointer is what keeps the
	// placement hot paths free of 136-byte CPUSet copies.
	aff *affEntry

	SpawnedAt  sim.Time
	FinishedAt sim.Time
	finished   bool
}

// Name returns the task's configured name.
func (t *Task) Name() string { return t.Spec.Name }

// Finished reports whether the task has completed.
func (t *Task) Finished() bool { return t.finished }

// ResponseTime is completion minus spawn; the paper's per-request metric.
func (t *Task) ResponseTime() sim.Time {
	if !t.finished {
		return -1
	}
	return t.FinishedAt - t.SpawnedAt
}

// TakeMessage pops the oldest mailbox message, if any. Programs call this
// after a Recv action completes.
func (t *Task) TakeMessage() (Message, bool) {
	if !t.hasMail() {
		return Message{}, false
	}
	m := t.mailbox[t.mailHead]
	t.mailHead++
	if t.mailHead == len(t.mailbox) {
		t.mailbox = t.mailbox[:0]
		t.mailHead = 0
	}
	return m, true
}

// hasMail reports whether an undelivered message is waiting. Slots before
// mailHead were already taken and never count.
func (t *Task) hasMail() bool { return t.mailHead < len(t.mailbox) }

// deliverMail appends m to the mailbox. Before append would grow a backing
// array whose front holds taken slots, the live tail moves to the front, so
// a mailbox that never fully drains stays bounded by its peak backlog.
func (t *Task) deliverMail(m Message) {
	if len(t.mailbox) == cap(t.mailbox) && t.mailHead > 0 {
		n := copy(t.mailbox, t.mailbox[t.mailHead:])
		t.mailbox = t.mailbox[:n]
		t.mailHead = 0
	}
	t.mailbox = append(t.mailbox, m)
}

func (t *Task) String() string {
	return fmt.Sprintf("task %d (%s)", t.ID, t.Spec.Name)
}

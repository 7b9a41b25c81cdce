package sched

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/cgroups"
	"repro/internal/irqsim"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Config wires a scheduler to its machine's models and scaling hooks.
type Config struct {
	Params Params
	Topo   *topology.Topology
	Cache  *cache.Model
	IRQ    *irqsim.Controller
	RNG    *sim.RNG

	// ComputeScale returns the wall-time multiplier (>= 1) for nominal
	// compute of a task: virtualization tax × NUMA factor. nil = 1. It is
	// called once per task, at spawn.
	ComputeScale func(t *Task) float64
	// IOScale multiplies device latencies (paravirtual IO path). 0 = 1.
	IOScale float64
	// PerIOExtra returns additional per-IO-completion cost (virtio ring +
	// VM-exit, affinity-miss for wandering vanilla vCPUs). nil = 0.
	PerIOExtra func(t *Task) sim.Time
	// MsgSyncCost is the kernel (host) or hypervisor (guest) synchronization
	// cost per message.
	MsgSyncCost sim.Time
	// MsgCopyPerKB is the per-KiB copy cost of message payloads.
	MsgCopyPerKB sim.Time
	// MsgNSPerCPU is the extra per-message cost for *grouped* (container)
	// senders: the container network-namespace path (veth/bridge) touches
	// per-CPU networking structures of this machine. Bare-metal and
	// intra-guest processes use the shared-memory transport instead.
	MsgNSPerCPU sim.Time
	// MsgNSCopyScale multiplies payload copy costs for grouped senders
	// (TCP-over-bridge copies instead of one shared-memory copy).
	MsgNSCopyScale float64
	// MsgLineScale multiplies receiver-side line-transfer costs. Guests set
	// it > 1: their flat virtual topology hides that vCPUs actually sit on
	// different host sockets.
	MsgLineScale float64
	// WakeExtra is charged per block-wakeup; guests pay the virtual-IPI /
	// VM-exit path here.
	WakeExtra sim.Time
	// NestedSwitchCost is charged per context switch of a *grouped* task,
	// scaled by how far the task's runnable thread-group siblings
	// oversubscribe this machine's CPUs; nonzero only inside guests running
	// containers (VMCN), where thread-group usage counters contend under
	// virtualized timekeeping.
	NestedSwitchCost sim.Time
	// NestedSwitchMax caps one nested-switch charge.
	NestedSwitchMax sim.Time
	// WanderStallRate/WanderStallCost model floating vCPUs: the host
	// scheduler migrates a vanilla VM's vCPU threads, and each migration
	// stalls whatever runs on that vCPU while its cache/TLB state refills.
	// Zero for hosts and pinned VMs.
	WanderStallRate float64 // events per CPU-second
	WanderStallCost sim.Time
	// Trace, when non-nil, receives scheduler tracepoint events (the BCC
	// instrumentation analog). Tracing is off the hot path when nil.
	Trace TraceFn
}

// procKey identifies a thread group inside a cgroup.
type procKey struct {
	group *cgroups.Group
	proc  int
}

type cpuRun struct {
	id     int
	sched  *Scheduler  // back-pointer for the static slice-timer callback
	subs   []subQueue  // runqueue, partitioned by cgroup (see runqueue.go)
	subs0  [2]subQueue // embedded backing of subs: ungrouped + one cgroup
	queued int32       // total tasks across subs (throttled included)

	current      *Task
	lastTask     *Task
	sliceTimer   sim.Timer // fires sliceDone; bound at first dispatch, zero alloc/slice
	sliceEndAt   sim.Time  // planned end of the current slice
	sliceStart   sim.Time
	sliceOver    sim.Time // committed overhead portion of current slice
	sliceWork    sim.Time // planned scaled work in current slice
	sliceScale   float64
	sliceFull    bool     // the slice covers the chunk's entire remaining work
	pendingStall sim.Time // vCPU-wander stall charged at next dispatch
}

// procCount is the runnable-thread counter of one thread group, hung off
// its member tasks so the dispatch path never touches a map.
type procCount struct {
	n int
}

// Scheduler simulates CFS over one machine.
type Scheduler struct {
	cfg  Config
	eng  *sim.Engine
	tix  *topology.Index // precomputed siblings/distance/steal-domain tables
	cpus []*cpuRun

	tasks []*Task
	// qMembers and procCtrs are spawn/throttle-time bookkeeping only; the
	// dispatch path reads counters cached on Task and cgroups.Group.
	// qMembers[qi] lists the spawned tasks of the group at subqueue index
	// qi (index 0, the ungrouped partition, stays nil); group → qIdx
	// resolution is a linear scan of qGroups (machines host a handful of
	// groups at most, and only at spawn time).
	qMembers    [][]*Task
	procCtrs    map[procKey]*procCount
	rqSeq       uint64 // global enqueue sequence (runqueue tie-break)
	live        int
	bd          Breakdown
	curs        int // rotating placement cursor
	completed   []*Task
	wanderTimer sim.Timer
	wanderMean  sim.Time // mean inter-stall gap of the vCPU-wander process

	// Dispatch fast-path indexes (see runqueue.go): the idle-CPU and
	// queued-CPU bitmasks, per-socket queued-task counts, and the per-group
	// global queued-task counts (indexed by subqueue index; 0 = ungrouped)
	// that let steal and placement skip empty steal domains word-at-a-time
	// and bail out when nothing is stealable.
	idleMask     []uint64
	queuedMask   []uint64 // CPUs with queued > 0
	socketQueued []int32
	groupQueued  []int32
	totalQueued  int32            // sum of groupQueued: steal's one-compare miss bail-out
	qGroups      []*cgroups.Group // subqueue index -> group (nil at 0)

	// load is the per-CPU load index the placement and rebalance scans
	// read in O(1): the running task plus the queued tasks of every
	// partition whose group was unthrottled as of the last syncLoad.
	// qThr[qi] is the throttle state load currently reflects for subqueue
	// index qi (qThr[0], the ungrouped partition, stays false).
	load []int32
	qThr []bool

	// affIntern dedups effective-affinity sets: tasks overwhelmingly share
	// a handful of masks (all CPUs, the group cpuset), so their Slice
	// expansions are computed once per distinct set instead of per task.
	// Entries are individually heap-allocated so tasks can hold stable
	// pointers into the intern table across appends. It survives Reset —
	// interning is keyed by set value, so entries from a previous run are
	// simply warm cache for the next.
	affIntern []*affEntry
	// taskArena slab-allocates Task structs (tasks live for the whole run,
	// so a bump allocator needs no free path).
	taskArena []Task
	// taskBack is the recycled Task slab of a Reset scheduler: sized to the
	// previous run's task high-water mark, so repeated same-shape runs spawn
	// every task from one reused block instead of fresh arena slabs.
	taskBack []Task
	// heapBack bump-allocates the initial 8-slot backing of each subqueue
	// heap; a heap that outgrows its carve falls back to append growth.
	heapBack []rqEntry
	// procArena slab-allocates procCount cells (they live for the run);
	// procUsed counts cells handed out so Reset can rewind onto procBack.
	procArena []procCount
	procBack  []procCount
	procUsed  int
	// specScratch is the reusable TaskSpec build buffer handed out by
	// SpecScratch for callers assembling a SpawnBatch argument.
	specScratch []TaskSpec

	// Embedded backings for the index slices above: hosts up to 1024 CPUs
	// (128 for the load index) / 8 sockets / 7 cgroups construct without
	// allocating them separately. Larger shapes fall back to make, and the
	// group slices fall back through plain append growth past their
	// embedded capacity.
	masksBack        [32]uint64 // idleMask + queuedMask, 16 words each
	socketQueuedBack [8]int32
	groupQueuedBack  [8]int32
	qGroupsBack      [8]*cgroups.Group
	qMembersBack     [8][]*Task
	qThrBack         [8]bool
	loadBack         [128]int32 // load for hosts up to 128 CPUs
}

// New returns a scheduler over eng with the given config.
func New(eng *sim.Engine, cfg Config) *Scheduler {
	if cfg.Params == (Params{}) {
		cfg.Params = DefaultParams()
	}
	if cfg.IOScale <= 0 {
		cfg.IOScale = 1
	}
	if cfg.RNG == nil {
		cfg.RNG = sim.NewRNG(1)
	}
	// The bookkeeping structures (qMembers, procCtrs) fill lazily on first
	// grouped spawn: ungrouped machines never pay for them.
	s := &Scheduler{
		cfg: cfg,
		eng: eng,
		tix: cfg.Topo.Index(),
	}
	n := cfg.Topo.NumCPUs()
	// One backing array for all cpuRun state; slice timers bind lazily at a
	// CPU's first dispatch, so schedulers over mostly-idle hosts (a small
	// container on the 112-CPU paper host) construct in a few allocations.
	backing := make([]cpuRun, n)
	s.cpus = make([]*cpuRun, n)
	// Nearly every run uses at most two runqueue partitions per CPU
	// (ungrouped + one cgroup), so each cpuRun embeds that capacity; rqPush
	// only allocates past it for 3+-tenant hosts.
	for i := range backing {
		backing[i].id = i
		backing[i].sched = s
		backing[i].subs = backing[i].subs0[:0:len(backing[i].subs0)]
		s.cpus[i] = &backing[i]
	}
	words := (n + 63) / 64
	masks := s.masksBack[:]
	if 2*words > len(masks) {
		masks = make([]uint64, 2*words)
	}
	s.idleMask = masks[0:words:words]
	s.queuedMask = masks[words : 2*words : 2*words]
	for i := 0; i < n; i++ {
		s.idleMask[i>>6] |= 1 << uint(i&63)
	}
	sockets := s.tix.NumSockets()
	if sockets <= len(s.socketQueuedBack) {
		s.socketQueued = s.socketQueuedBack[:sockets]
	} else {
		s.socketQueued = make([]int32, sockets)
	}
	if n <= len(s.loadBack) {
		s.load = s.loadBack[:n]
	} else {
		s.load = make([]int32, n)
	}
	s.groupQueued = s.groupQueuedBack[:1]
	s.qGroups = s.qGroupsBack[:1]
	s.qMembers = s.qMembersBack[:1]
	s.qThr = s.qThrBack[:1]
	if cfg.WanderStallRate > 0 && cfg.WanderStallCost > 0 {
		s.scheduleWander()
	}
	return s
}

// Reset returns the scheduler to the state New(eng, cfg) would construct —
// same engine, new (same-shape) config — while keeping every arena and
// index backing the previous run grew: cpuRun state, subqueue heaps and
// their carves, the task/procCount slabs (rewound onto recycled backing
// sized to the previous run's high-water marks), the affinity intern table
// (value-keyed, so stale entries are warm cache, never wrong) and the
// bitmask/queued-load indexes. It is the per-trial reuse path: repetitions
// of one deployment shape differ only by seed, so redeploying onto a Reset
// scheduler replays byte-identically to a fresh construction while
// allocating almost nothing. The caller must Reset the engine first and
// pass a topology of the same shape.
func (s *Scheduler) Reset(cfg Config) {
	if cfg.Params == (Params{}) {
		cfg.Params = DefaultParams()
	}
	if cfg.IOScale <= 0 {
		cfg.IOScale = 1
	}
	if cfg.RNG == nil {
		cfg.RNG = sim.NewRNG(1)
	}
	if cfg.Topo.NumCPUs() != len(s.cpus) {
		panic(fmt.Sprintf("sched: Reset with %d-CPU topology on a %d-CPU scheduler — reuse contexts must key deployments by shape",
			cfg.Topo.NumCPUs(), len(s.cpus)))
	}
	s.cfg = cfg
	s.tix = cfg.Topo.Index()
	for _, c := range s.cpus {
		for i := range c.subs {
			sq := &c.subs[i]
			sq.g = nil
			// Keep the heap's carve/growth for the next run, without the
			// tasks a timed-out run left queued.
			clear(sq.h)
			sq.h = sq.h[:0]
		}
		c.subs = c.subs[:0]
		c.queued = 0
		c.current = nil
		c.lastTask = nil
		// sliceTimer stays bound (same engine, same static callback); the
		// engine Reset already invalidated any pending arm.
		c.sliceEndAt = 0
		c.sliceStart = 0
		c.sliceOver = 0
		c.sliceWork = 0
		c.sliceScale = 0
		c.sliceFull = false
		c.pendingStall = 0
	}
	// Rewind the Task slab onto recycled backing sized to the previous
	// run's population: spawnTask fully overwrites each Task, so the cells
	// need no zeroing.
	if high := len(s.tasks); high > 0 {
		if cap(s.taskBack) < high {
			s.taskBack = make([]Task, high)
		}
		s.taskArena = s.taskBack[:cap(s.taskBack)]
	}
	s.tasks = s.tasks[:0]
	// procCount cells must read zero at re-registration (a timed-out run
	// can leave runnable counts standing).
	if s.procUsed > 0 {
		if cap(s.procBack) < s.procUsed {
			s.procBack = make([]procCount, s.procUsed)
		}
		pb := s.procBack[:cap(s.procBack)]
		for i := range pb {
			pb[i] = procCount{}
		}
		s.procArena = pb
		s.procUsed = 0
	}
	clear(s.procCtrs)
	s.rqSeq = 0
	s.live = 0
	s.bd = Breakdown{}
	s.curs = 0
	s.completed = s.completed[:0]
	for i := range s.idleMask {
		s.idleMask[i] = 0
	}
	for i := 0; i < len(s.cpus); i++ {
		s.idleMask[i>>6] |= 1 << uint(i&63)
	}
	for i := range s.queuedMask {
		s.queuedMask[i] = 0
	}
	for i := range s.socketQueued {
		s.socketQueued[i] = 0
	}
	s.groupQueued = s.groupQueued[:1]
	s.groupQueued[0] = 0
	s.totalQueued = 0
	s.qGroups = s.qGroups[:1]
	s.qMembers = s.qMembers[:1]
	s.qThr = s.qThr[:1]
	clear(s.load)
	if cfg.WanderStallRate > 0 && cfg.WanderStallCost > 0 {
		s.scheduleWander()
	}
}

// carveHeap hands out the initial 8-slot backing of one subqueue heap from
// the heapBack bump slab: one slab allocation covers every CPU's first
// partition, instead of one small allocation per freshly-touched subqueue.
// Heaps that outgrow their carve fall back to plain append growth.
func (s *Scheduler) carveHeap() []rqEntry {
	const carve = 8
	if len(s.heapBack) < carve {
		// First slab covers all CPUs; refills (3+ partitions per CPU, or tiny
		// topologies) use a fixed chunk.
		n := carve * len(s.cpus)
		if n < 128 {
			n = 128
		}
		s.heapBack = make([]rqEntry, n)
	}
	h := s.heapBack[0:0:carve]
	s.heapBack = s.heapBack[carve:]
	return h
}

// scheduleWander runs the vCPU-wander Poisson process: at each event one
// random CPU accrues a stall, paid by the next dispatch there.
func (s *Scheduler) scheduleWander() {
	s.wanderMean = sim.Time(float64(sim.Second) / (s.cfg.WanderStallRate * float64(len(s.cpus))))
	if !s.wanderTimer.Bound() {
		s.wanderTimer.InitArg(s.eng, wanderFired, s)
	}
	s.wanderTimer.Reset(s.cfg.RNG.ExpDuration(s.wanderMean))
}

// wanderFired is the static wander-timer callback: one random CPU accrues a
// stall and the Poisson process re-arms.
func wanderFired(a any) {
	s := a.(*Scheduler)
	c := s.cpus[s.cfg.RNG.Intn(len(s.cpus))]
	c.pendingStall += s.cfg.WanderStallCost
	s.wanderTimer.Reset(s.cfg.RNG.ExpDuration(s.wanderMean))
}

// Breakdown returns the accumulated overhead meter.
func (s *Scheduler) Breakdown() Breakdown { return s.bd }

// Live returns the number of spawned-but-unfinished tasks.
func (s *Scheduler) Live() int { return s.live }

// Tasks returns every task ever spawned.
func (s *Scheduler) Tasks() []*Task { return s.tasks }

// Spawn creates a task and schedules its arrival at time `at`.
func (s *Scheduler) Spawn(spec TaskSpec, at sim.Time) *Task {
	t := s.spawnTask(spec)
	t.wakeTimer.ResetAt(at)
	return t
}

// SpecScratch returns a zero-length TaskSpec buffer with capacity for at
// least n specs, reused across calls. It exists for workload Spawn paths
// that assemble a batch every trial: SpawnBatch copies each spec into the
// task arena, so the buffer is dead the moment SpawnBatch returns and the
// next trial can rebuild in place. Callers must not hold the returned
// slice across another SpecScratch or SpawnBatch call.
func (s *Scheduler) SpecScratch(n int) []TaskSpec {
	if cap(s.specScratch) < n {
		s.specScratch = make([]TaskSpec, 0, n)
	}
	return s.specScratch[:0]
}

// SpawnBatch creates one task per spec, all arriving at time `at`, in spec
// order. It is equivalent to calling Spawn for each spec in order, but it
// reserves the task table and arena for the whole batch up front, so a
// spawn storm (a 16-thread process per trial, thousands of trials per
// sweep) costs no append doubling or arena block bumps mid-batch.
func (s *Scheduler) SpawnBatch(specs []TaskSpec, at sim.Time) []*Task {
	if need := len(s.tasks) + len(specs); cap(s.tasks) < need {
		nt := make([]*Task, len(s.tasks), need)
		copy(nt, s.tasks)
		s.tasks = nt
	}
	if len(s.taskArena) < len(specs) {
		s.taskArena = make([]Task, len(specs))
	}
	// The returned view aliases the task table (tasks are appended one per
	// spec): a batch in steady state allocates nothing here.
	start := len(s.tasks)
	for i := range specs {
		s.Spawn(specs[i], at)
	}
	return s.tasks[start:len(s.tasks):len(s.tasks)]
}

// taskArrived runs a task's arrival: the first firing of its wake timer.
func taskArrived(t *Task) {
	s := t.sched
	t.SpawnedAt = s.eng.Now()
	s.emit(TraceSpawn, t, -1, BlockNone)
	s.startProgram(t, -1)
}

// spawnTask runs the spawn-time bookkeeping shared by Spawn and SpawnBatch
// and binds the task's wake timer; the caller arms it for the arrival.
func (s *Scheduler) spawnTask(spec TaskSpec) *Task {
	if spec.Program == nil {
		panic("sched: task without program")
	}
	t := s.newTask()
	*t = Task{ID: len(s.tasks), Spec: spec, sched: s, lastCPU: -1, rqCPU: -1, rqPos: -1, state: stateNew, pendingMsgFromCPU: -1, computeScale: 1}
	t.wakeTimer.InitArg(s.eng, taskWakeFired, t)
	if s.cfg.ComputeScale != nil {
		t.computeScale = s.cfg.ComputeScale(t)
	}
	s.tasks = append(s.tasks, t)
	s.live++
	if g := spec.Group; g != nil {
		qi := s.groupIdx(g)
		if qi == 0 {
			qi = s.registerGroup(g)
		}
		t.qIdx = qi
		members := s.qMembers[qi]
		if members == nil {
			members = make([]*Task, 0, 16)
		}
		members = append(members, t)
		s.qMembers[qi] = members
		if spec.Proc > 0 {
			if s.procCtrs == nil {
				s.procCtrs = make(map[procKey]*procCount)
			}
			key := procKey{g, spec.Proc}
			ctr := s.procCtrs[key]
			if ctr == nil {
				if len(s.procArena) == 0 {
					s.procArena = make([]procCount, 16)
				}
				ctr = &s.procArena[0]
				s.procArena = s.procArena[1:]
				s.procUsed++
				s.procCtrs[key] = ctr
			}
			t.procCtr = ctr
		}
		g.AddLive(1)
		// Keep the group's churn working-set factor at the mean of its
		// members (§IV-C: the unthrottle refill cost tracks how much state
		// the threads pull back into cache).
		var wsSum float64
		for _, gt := range members {
			wsSum += gt.Spec.WorkingSet
		}
		g.SetChurnScale(churnWSScale(wsSum / float64(len(members))))
	}
	return t
}

// groupIdx returns the subqueue index assigned to g, or 0 when g has not
// been registered yet. A linear scan: machines host a handful of groups at
// most, and only spawn/throttle paths resolve a group to its index.
func (s *Scheduler) groupIdx(g *cgroups.Group) int32 {
	for qi := 1; qi < len(s.qGroups); qi++ {
		if s.qGroups[qi] == g {
			return int32(qi)
		}
	}
	return 0
}

// reserveCompleted sizes the completion list once, at the first finish, when
// the total task population is known.
func (s *Scheduler) reserveCompleted() {
	if s.completed == nil {
		s.completed = make([]*Task, 0, len(s.tasks))
	}
}

// newTask bump-allocates a Task from the arena slab. Blocks start small —
// many schedulers (idle guests, tiny deployments) only ever spawn a
// handful of tasks — and grow geometrically with the task population.
func (s *Scheduler) newTask() *Task {
	if len(s.taskArena) == 0 {
		block := 8
		if n := len(s.tasks); n > block {
			block = n
			if block > 128 {
				block = 128
			}
		}
		s.taskArena = make([]Task, block)
	}
	t := &s.taskArena[0]
	s.taskArena = s.taskArena[1:]
	return t
}

func (s *Scheduler) registerGroup(g *cgroups.Group) int32 {
	// Subqueue index 0 is the ungrouped partition; groups start at 1. The
	// global queued-load index and member lists grow in lockstep with the
	// qIdx assignment.
	qi := int32(len(s.qGroups))
	s.groupQueued = append(s.groupQueued, 0)
	s.qGroups = append(s.qGroups, g)
	s.qThr = append(s.qThr, false) // nothing queued yet: any view is exact
	// Re-registration after a Reset reclaims the truncated member list's
	// backing instead of appending nil over it.
	if n := len(s.qMembers); n < cap(s.qMembers) {
		s.qMembers = s.qMembers[:n+1]
		if m := s.qMembers[n]; m != nil {
			s.qMembers[n] = m[:0]
		}
	} else {
		s.qMembers = append(s.qMembers, nil)
	}
	g.SetUnthrottleFn(func(churn sim.Time) {
		for _, t := range s.qMembers[qi] {
			switch t.state {
			case stateRunnable, stateBlockedIO, stateBlockedRecv:
				// Overwrite, never stack: cold caches refill once no matter
				// how many throttle cycles the task sat out. Blocked tasks
				// pay too — they resume onto cold caches and torn-down IO
				// channels just like the ones waiting on the runqueue.
				t.pendingChurn = churn
			}
		}
		// Kick idle CPUs so the refreshed group resumes; the idle bitmask
		// walks straight to them in ascending id order, exactly like the
		// full scan it replaces.
		s.forEachIdle(func(c *cpuRun) {
			if s.runnableCount(c) > 0 {
				s.dispatch(c)
			}
		})
	})
	return qi
}

// churnWSScale converts a task's working-set size into its unthrottle
// cold-restart multiplier. Floored so even tiny-footprint tasks pay the
// fixed part of the restart (slice redistribution, runqueue requeue).
func churnWSScale(ws float64) float64 {
	const floor, ceil = 0.75, 3.0
	switch {
	case ws < floor:
		return floor
	case ws > ceil:
		return ceil
	}
	return ws
}

// updateRunnable maintains the group-wide and per-thread-group runnable
// counts (runnable = wants CPU, i.e. runnable or running). Both counters
// hang off structs the dispatch path already holds — no map lookups.
func (s *Scheduler) updateRunnable(t *Task, delta int) {
	g := t.Spec.Group
	if g == nil {
		return
	}
	g.AddRunnable(delta)
	if t.procCtr != nil {
		t.procCtr.n += delta
	}
}

// procOversubscription returns how many runnable threads of t's thread group
// exist per CPU of this machine (1 for a lone thread on an idle machine).
func (s *Scheduler) procOversubscription(t *Task) float64 {
	if t.procCtr == nil {
		return 0
	}
	return float64(t.procCtr.n) / float64(len(s.cpus))
}

// effAffinity resolves the CPUs a task may use: its own affinity intersected
// with its group's cpuset; empty components default to all CPUs.
func (s *Scheduler) effAffinity(t *Task) topology.CPUSet {
	all := s.cfg.Topo.AllCPUs()
	aff := t.Spec.Affinity
	if aff.IsEmpty() {
		aff = all
	}
	if g := t.Spec.Group; g != nil {
		aff = aff.Intersect(g.AllowedCPUs())
	}
	if aff.IsEmpty() {
		panic(fmt.Sprintf("sched: %v has empty effective affinity", t))
	}
	return aff
}

// ---- program driving -------------------------------------------------

// startProgram advances a task's program until it blocks, computes or ends.
// homeCPU is the CPU the task just ran on (-1 at spawn).
func (s *Scheduler) startProgram(t *Task, homeCPU int) {
	for {
		a := t.Spec.Program.Next(t)
		switch a.Kind {
		case ActCompute:
			if a.Dur <= 0 {
				continue
			}
			t.remaining = a.Dur
			t.chunkIsMsg = false
			s.makeRunnable(t, homeCPU)
			return
		case ActIO:
			t.state = stateBlockedIO
			s.emit(TraceBlock, t, -1, BlockIO)
			s.bd.IOs++
			ch := s.cfg.IRQ.Channel(a.Channel)
			lat := s.cfg.RNG.Jitter(sim.Time(float64(a.Latency)*s.cfg.IOScale), s.cfg.Params.WakeJitter)
			delay := s.cfg.IRQ.CompletionDelay(ch, s.eng.Now(), lat, s.cfg.IOScale)
			t.wakeCh = ch
			t.wakeTimer.Reset(delay)
			return
		case ActSend:
			if a.To == nil {
				panic("sched: send without destination")
			}
			s.bd.Messages++
			copyScale := 1.0
			cost := s.cfg.MsgSyncCost
			if t.Spec.Group != nil {
				// Container network-namespace transport.
				cost += sim.Time(int64(s.cfg.MsgNSPerCPU) * int64(len(s.cpus)))
				if s.cfg.MsgNSCopyScale > 0 {
					copyScale = s.cfg.MsgNSCopyScale
				}
			}
			cost += sim.Time(float64(a.Bytes*int64(s.cfg.MsgCopyPerKB)) * copyScale / 1024)
			if cost <= 0 {
				cost = sim.Microsecond
			}
			t.remaining = cost
			t.chunkIsMsg = true
			t.sendTo = a.To
			t.sendBytes = a.Bytes
			s.makeRunnable(t, homeCPU)
			return
		case ActRecv:
			if t.hasMail() {
				continue // message already waiting; program consumes via TakeMessage
			}
			t.state = stateBlockedRecv
			s.emit(TraceBlock, t, -1, BlockRecv)
			return
		case ActSleep:
			if a.Dur <= 0 {
				continue
			}
			t.state = stateBlockedIO
			s.emit(TraceBlock, t, -1, BlockSleep)
			t.wakeCh = nil
			t.wakeTimer.Reset(a.Dur)
			return
		case ActDone:
			s.finish(t)
			return
		default:
			panic(fmt.Sprintf("sched: unknown action kind %d", a.Kind))
		}
	}
}

func (s *Scheduler) finish(t *Task) {
	t.state = stateDone
	t.finished = true
	t.FinishedAt = s.eng.Now()
	s.reserveCompleted()
	s.completed = append(s.completed, t)
	s.live--
	if g := t.Spec.Group; g != nil {
		g.AddLive(-1)
	}
	s.emit(TraceFinish, t, -1, BlockNone)
}

// taskWakeFired is the static wake-timer callback: the task's arrival while
// it is still new, then IO completion when wakeCh is set and plain sleep
// wake otherwise.
func taskWakeFired(a any) {
	t := a.(*Task)
	if t.state == stateNew {
		taskArrived(t)
	} else if ch := t.wakeCh; ch != nil {
		t.wakeCh = nil
		t.sched.ioComplete(t, ch)
	} else {
		t.sched.wakeFromBlock(t)
	}
}

// makeRunnable enqueues a task ready to compute. homeCPU >= 0 keeps the task
// local to the CPU it just ran on (no wake placement).
func (s *Scheduler) makeRunnable(t *Task, homeCPU int) {
	t.state = stateRunnable
	s.updateRunnable(t, 1)
	var c *cpuRun
	if homeCPU >= 0 {
		if set, _ := s.cachedAffinity(t); set.Contains(homeCPU) {
			c = s.cpus[homeCPU]
		}
	}
	if c == nil {
		c = s.cpus[s.placeTask(t)]
		s.bd.Wakeups++
	}
	// Direct dispatch onto an idle CPU with an empty queue: enqueueing
	// would hand t straight back through dispatch and pickLocal. The empty
	// queue's min vruntime is 0, so the clamp below is a no-op, and skipping
	// the rqSeq stamp keeps the relative order of every queued task. A
	// throttled group's task must queue instead (dispatch then steals).
	if c.current == nil && c.queued == 0 && (t.Spec.Group == nil || !t.Spec.Group.Throttled()) {
		s.startSlice(c, t)
		return
	}
	// Newcomers and wakers join at the queue's current virtual time: no
	// credit for time spent blocked, no starvation of incumbents.
	if mv := s.minVruntime(c); t.vruntime < mv {
		t.vruntime = mv
	}
	s.rqPush(c, t)
	if c.current == nil {
		s.dispatch(c)
		return
	}
	// Wakeup preemption (check_preempt_wakeup): a long uncontended slice
	// must yield promptly once someone else wants the CPU.
	if c.sliceEndAt-s.eng.Now() > s.cfg.Params.MinGranularity {
		s.preempt(c)
	}
}

func (s *Scheduler) ioComplete(t *Task, ch *irqsim.Channel) {
	t.pendingIRQ = ch
	s.wakeFromBlock(t)
}

// wakeFromBlock handles IO completions and message arrivals: cgroup wakeup
// accounting plus wake placement.
func (s *Scheduler) wakeFromBlock(t *Task) {
	s.emit(TraceWake, t, -1, BlockNone)
	if g := t.Spec.Group; g != nil {
		a := g.AcctCost()
		t.pendingOverhead += a
		s.bd.AcctTime += a
	}
	if s.cfg.WakeExtra > 0 {
		t.pendingOverhead += s.cfg.WakeExtra
		s.bd.VirtioTime += s.cfg.WakeExtra
	}
	s.startProgramResume(t)
}

// startProgramResume re-enters the program after a block. For IO the blocked
// action is complete; for Recv the program loops via TakeMessage.
func (s *Scheduler) startProgramResume(t *Task) {
	s.startProgram(t, -1)
}

// deliver sends msg to task `to`; called when a sender's send-chunk ends.
func (s *Scheduler) deliver(from *Task, to *Task, bytes int64, senderCPU int) {
	if to.finished {
		return
	}
	to.deliverMail(Message{From: from, Bytes: bytes, sentCPU: senderCPU})
	if to.state == stateBlockedRecv {
		// Line-transfer cost: pulling the payload's cache lines to wherever
		// the receiver lands; charged at dispatch via pendingOverhead with
		// the distance computed against the sender's CPU.
		to.pendingMsgFromCPU = senderCPU
		s.wakeFromBlock(to)
	}
}

// ---- dispatching ------------------------------------------------------
//
// pickLocal, steal, runnableCount and minVruntime live in
// runqueue.go, on the indexed per-group runqueues.

func (s *Scheduler) smtScale(c *cpuRun) float64 {
	if s.cfg.Topo.ThreadsPerCore <= 1 || s.cfg.Params.SMTPenalty <= 0 {
		return 1
	}
	// Precomputed sibling list: one slice read per hardware thread instead
	// of a CPUSet walk through an iterator closure.
	for _, sib := range s.tix.Siblings(c.id) {
		if s.cpus[sib].current != nil {
			return 1 + s.cfg.Params.SMTPenalty
		}
	}
	return 1
}

func (s *Scheduler) dispatch(c *cpuRun) {
	if c.current != nil {
		return
	}
	t := s.pickLocal(c)
	if t == nil {
		t = s.steal(c)
	}
	if t == nil {
		return
	}
	s.startSlice(c, t)
}

func (s *Scheduler) startSlice(c *cpuRun, t *Task) {
	now := s.eng.Now()
	p := &s.cfg.Params
	g := t.Spec.Group

	var over sim.Time
	if c.lastTask != t {
		over += p.SwitchCost
		s.bd.SwitchTime += p.SwitchCost
		s.bd.Switches++
		if g != nil {
			a := g.AcctCost()
			over += a
			s.bd.AcctTime += a
			if s.cfg.NestedSwitchCost > 0 {
				// Guest-container nested accounting: contention on the
				// thread group's shared usage counters, proportional to how
				// far its runnable threads oversubscribe the vCPUs and to
				// how hard the task's compute hammers virtualized memory
				// structures (VMTaxWeight — a JVM blocking on IO barely
				// touches the counters; a 16-thread transcoder hammers
				// them).
				if osub := s.procOversubscription(t); osub > 1 {
					nc := sim.Time(float64(s.cfg.NestedSwitchCost) * (osub - 1))
					if s.cfg.NestedSwitchMax > 0 && nc > s.cfg.NestedSwitchMax {
						nc = s.cfg.NestedSwitchMax
					}
					nc = sim.Time(float64(nc) * t.Spec.VMTaxWeight)
					over += nc
					s.bd.NestedTime += nc
				}
			}
		}
	}
	// Migration / cold-cache penalty.
	pen := s.cfg.Cache.MigrationPenalty(t.lastCPU, c.id, t.Spec.WorkingSet, t.lastRanAt, now)
	if pen > 0 {
		over += pen
		s.bd.MigrationTime += pen
		if t.lastCPU >= 0 && t.lastCPU != c.id {
			s.bd.Migrations++
		}
	}
	// Deferred wakeup-path costs.
	if t.pendingOverhead > 0 {
		over += t.pendingOverhead
		t.pendingOverhead = 0
	}
	if t.pendingChurn > 0 {
		over += t.pendingChurn
		s.bd.ChurnTime += t.pendingChurn
		t.pendingChurn = 0
	}
	if c.pendingStall > 0 {
		over += c.pendingStall
		s.bd.WanderTime += c.pendingStall
		c.pendingStall = 0
	}
	if t.pendingIRQ != nil {
		ic := s.cfg.IRQ.CompletionCost(t.pendingIRQ, c.id)
		over += ic
		s.bd.IRQTime += ic
		if s.cfg.PerIOExtra != nil {
			ve := s.cfg.PerIOExtra(t)
			over += ve
			s.bd.VirtioTime += ve
		}
		t.pendingIRQ = nil
	}
	if t.pendingMsgFromCPU >= 0 {
		lc := s.cfg.Cache.LineTransferCost(t.pendingMsgFromCPU, c.id)
		if s.cfg.MsgLineScale > 0 {
			lc = sim.Time(float64(lc) * s.cfg.MsgLineScale)
		}
		over += lc
		s.bd.MsgTime += lc
		t.pendingMsgFromCPU = -1
	}

	// Slice sizing. An uncontended task runs until the next bookkeeping
	// point (MaxSlice) — resuming the same task charges no switch cost.
	// Quota'd groups run at the kernel's bandwidth hand-out granularity.
	nrr := s.runnableCount(c) + 1
	var slice sim.Time
	if nrr == 1 {
		slice = p.MaxSlice
	} else {
		slice = p.TargetLatency / sim.Time(nrr)
		if slice < p.MinGranularity {
			slice = p.MinGranularity
		}
	}
	if g != nil && g.Quota() > 0 && p.BandwidthSlice > 0 && slice > p.BandwidthSlice {
		slice = p.BandwidthSlice
	}
	scale := 1.0
	if !t.chunkIsMsg {
		scale = t.computeScale * s.smtScale(c)
	}
	// Dispatch overheads extend the slice (the kernel burns them on top of
	// the task's fair share); they never starve the work budget.
	remainScaled := sim.Time(float64(t.remaining) * scale)
	if remainScaled < 1 {
		remainScaled = 1
	}
	work := remainScaled
	full := true
	if work > slice {
		work = slice
		full = false
	}
	occ := over + work
	// Accounting ticks over the slice for grouped tasks.
	if g != nil && p.TickInterval > 0 && occ >= p.TickInterval {
		a := g.AcctCostN(int64(occ / p.TickInterval))
		occ += a
		s.bd.AcctTime += a
	}

	t.state = stateRunning
	t.curCPU = c.id
	s.emit(TraceRunStart, t, c.id, BlockNone)
	c.current = t
	s.markBusy(c.id)
	if !c.sliceTimer.Bound() {
		c.sliceTimer.InitArg(s.eng, cpuSliceFired, c)
	}
	c.sliceStart = now
	c.sliceOver = occ - work
	c.sliceWork = work
	c.sliceScale = scale
	c.sliceFull = full
	c.sliceEndAt = now + occ
	c.sliceTimer.Reset(occ)
}

// sliceDone finishes the planned slice of c.current.
func (s *Scheduler) sliceDone(c *cpuRun) {
	s.endSlice(c, c.sliceWork, c.sliceFull)
}

// cpuSliceFired is the static slice-timer callback.
func cpuSliceFired(a any) {
	c := a.(*cpuRun)
	c.sched.sliceDone(c)
}

// preempt cuts short the current slice (quota throttle of the group).
func (s *Scheduler) preempt(c *cpuRun) {
	if c.current == nil {
		return
	}
	c.sliceTimer.Stop()
	elapsed := s.eng.Now() - c.sliceStart
	work := elapsed - c.sliceOver
	if work < 0 {
		work = 0
	}
	if work > c.sliceWork {
		work = c.sliceWork
	}
	s.endSlice(c, work, false)
}

// endSlice retires the slice with the given scaled work actually completed.
// full marks slices that covered their chunk's entire remaining work, which
// must zero the chunk exactly (scaling arithmetic would otherwise leave
// sub-nanosecond remainders that never converge).
func (s *Scheduler) endSlice(c *cpuRun, workScaled sim.Time, full bool) {
	t := c.current
	now := s.eng.Now()
	elapsed := now - c.sliceStart
	if elapsed < 0 {
		elapsed = 0
	}
	if full {
		t.remaining = 0
	} else {
		nominal := sim.Time(float64(workScaled) / c.sliceScale)
		if nominal <= 0 && workScaled > 0 {
			nominal = 1
		}
		t.remaining -= nominal
		if t.remaining < 0 {
			t.remaining = 0
		}
	}
	if t.chunkIsMsg {
		s.bd.MsgTime += workScaled
	} else {
		s.bd.UsefulWork += workScaled
	}
	t.vruntime += elapsed
	t.lastCPU = c.id
	t.lastRanAt = now
	c.lastTask = t
	c.current = nil
	s.markIdle(c.id)
	s.emit(TraceRunEnd, t, c.id, BlockNone)

	g := t.Spec.Group
	throttleNow := false
	if g != nil {
		throttleNow = g.Charge(c.id, elapsed)
	}

	if t.remaining <= 0 {
		s.updateRunnable(t, -1)
		s.chunkComplete(t, c.id)
	} else if c.queued == 0 && (g == nil || !g.Throttled()) {
		// Lone-task restart: nothing else is queued here, so there is no
		// one to shed t for, and rqPush → dispatch → pickLocal would hand
		// t straight back. A charge that throttled the group fails the
		// guard too (throttleNow implies Throttled), as does a task that
		// throttleGroup is preempting. Skipping the rqSeq stamp keeps the
		// relative order of every queued task, as makeRunnable's direct
		// dispatch does; the slice timer still re-arms through the event
		// heap.
		s.startSlice(c, t)
		return
	} else {
		t.state = stateRunnable
		dst := c
		// Periodic load balancing: when other tasks are already waiting
		// here, shed the just-preempted task to the least-loaded allowed
		// CPU. Without this, N equal threads on M < N CPUs never converge
		// to their fair 1/M shares and the doubly-loaded CPUs set the
		// makespan.
		if others := s.runnableCount(c); others >= 1 {
			if best := s.leastLoadedCPU(t, c); best != nil && others+1 > s.loadOf(best.id) {
				dst = best
			}
		}
		s.rqPush(dst, t)
		if dst != c {
			if dst.current == nil {
				s.dispatch(dst)
			} else if dst.sliceEndAt-now > s.cfg.Params.MinGranularity {
				s.preempt(dst)
			}
		}
	}

	if throttleNow {
		s.throttleGroup(g)
	}
	s.dispatch(c)
}

// leastLoadedCPU returns the allowed CPU with the smallest load, excluding
// `except`; ties resolve to the lowest CPU id. Loads come from the synced
// index, so each candidate costs one array read. `except` is left out by
// giving it a sentinel load for the length of the scan, so neither of the
// scan's loops tests CPU ids.
func (s *Scheduler) leastLoadedCPU(t *Task, except *cpuRun) *cpuRun {
	s.syncLoad()
	if except == nil {
		return s.leastLoadedScan(t)
	}
	saved := s.load[except.id]
	s.load[except.id] = exceptLoad
	c := s.leastLoadedScan(t)
	s.load[except.id] = saved
	return c
}

// exceptLoad is the sentinel load leastLoadedCPU gives `except`: above
// any real load, and equal to the scan's starting minimum, so it never
// wins.
const exceptLoad = int32(1 << 30)

// leastLoadedScan is leastLoadedCPU over the synced load index.
func (s *Scheduler) leastLoadedScan(t *Task) *cpuRun {
	set, slice := s.cachedAffinity(t)
	// Fast path: load 0 (idle, nothing runnable queued) is the global
	// minimum, and the pick is the first minimum in ascending order — so
	// the first idle allowed CPU at load 0 wins outright. Word-masked, so
	// rebalancing on a mostly-idle big host costs O(mask words) instead of
	// a load read per allowed CPU.
	words := set.Words()
	if words > len(s.idleMask) {
		words = len(s.idleMask)
	}
	for w := 0; w < words; w++ {
		word := set.Word(w) & s.idleMask[w]
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			if id := w<<6 | b; s.load[id] == 0 {
				return s.cpus[id]
			}
		}
	}
	// No load-0 CPU available: the first minimum over the whole slice.
	best, bestLoad := -1, exceptLoad
	for _, id := range slice {
		if l := s.load[id]; l < bestLoad {
			best, bestLoad = id, l
		}
	}
	if best < 0 {
		return nil // `except` was the only allowed CPU
	}
	return s.cpus[best]
}

// chunkComplete fires when a compute or send chunk finishes.
func (s *Scheduler) chunkComplete(t *Task, cpu int) {
	if t.chunkIsMsg {
		to := t.sendTo
		bytes := t.sendBytes
		t.sendTo = nil
		t.sendBytes = 0
		t.chunkIsMsg = false
		s.deliver(t, to, bytes, cpu)
	}
	s.startProgram(t, cpu)
}

// throttleGroup preempts every running task of a group that just exhausted
// its quota and meters the resched-IPI cost.
func (s *Scheduler) throttleGroup(g *cgroups.Group) {
	cost := g.ThrottleCost()
	s.bd.ThrottleTime += cost
	s.bd.Throttles++
	if s.cfg.Trace != nil {
		s.cfg.Trace(TraceEvent{Kind: TraceThrottle, CPU: -1, At: s.eng.Now(), Group: g.Name})
	}
	for _, t := range s.qMembers[s.groupIdx(g)] {
		if t.state == stateRunning {
			c := s.cpus[t.curCPU]
			if c.current == t {
				s.preempt(c)
			}
		}
	}
}

// CompletedTasks returns tasks in completion order.
func (s *Scheduler) CompletedTasks() []*Task { return s.completed }

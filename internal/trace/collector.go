package trace

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/sched"
	"repro/internal/sim"
)

// KeyFn maps a task to the aggregation key its samples are filed under.
// BCC tools aggregate by process name or cgroup; the default key is the
// task's cgroup name, falling back to "host" for ungrouped tasks.
//
// The collector calls the KeyFn exactly once per task — at the task's first
// event — and works with the interned key id from then on, so a KeyFn that
// formats or concatenates strings costs one allocation per task, never one
// per event.
type KeyFn func(t *sched.Task) string

// DefaultKey groups samples by cgroup name ("host" when ungrouped).
func DefaultKey(t *sched.Task) string {
	if t == nil {
		return "host"
	}
	if g := t.Spec.Group; g != nil {
		return g.Name
	}
	return "host"
}

// nBlockKinds is the size of the per-reason off-CPU table (BlockNone..
// BlockSleep).
const nBlockKinds = int(sched.BlockSleep) + 1

// taskTrack is the per-task state machine stitching trace events into
// on-CPU and off-CPU intervals. It carries the task's interned key id and
// caches the histogram pointers it records into, so the steady-state event
// path does no map lookups and no allocation.
type taskTrack struct {
	keyID        uint32
	lastRunStart sim.Time
	lastRunEnd   sim.Time
	running      bool
	everRan      bool
	offReason    sched.BlockKind // why the task went off-CPU (BlockNone = runqueue)
	wokenAt      sim.Time
	hasWake      bool

	on   *Hist // cached slots[keyID].on
	runq *Hist // cached slots[keyID].runq
	off  [nBlockKinds]*Hist
}

// keySlot is the per-key histogram table, indexed by interned key id: on
// is cpudist (time on a CPU per scheduling interval), off is offcputime per
// block reason (time off the CPU between two run intervals), runq is
// runqlat (delay from a wakeup to the woken task's next dispatch).
type keySlot struct {
	on   *Hist
	runq *Hist
	off  [nBlockKinds]*Hist
}

// Collector subscribes to a scheduler's tracepoint stream and builds the
// paper's two BCC instruments plus per-CPU busy time. Attach its Fn to
// sched.Config.Trace (or machine.Config.Trace) before the run.
//
// Internally the collector is allocation-free in steady state: keys are
// interned to dense ids once per task, histograms live in pooled slabs and
// are addressed through slice tables, and per-CPU busy time is a flat
// array. Readers go through OnCPUHist/OffCPUHist/RunqHist, Keys,
// ThrottleCount and the Visit* methods, which read those tables directly.
type Collector struct {
	Key KeyFn

	keyIDs map[string]uint32
	keys   []string  // key id -> key string
	slots  []keySlot // key id -> histogram table
	hists  histPool
	tracks trackPool
	// freeTracks recycles per-task tracks across Reset: a collector reused
	// over many runs reaches a steady state where tracking a fresh task
	// population allocates nothing.
	freeTracks []*taskTrack

	trackOf   map[*sched.Task]*taskTrack
	lastTask  *sched.Task // one-entry track cache: events arrive in bursts
	lastTrack *taskTrack

	cpuBusy    []sim.Time
	cpuTouched []bool
	throttles  map[string]uint64
	first      sim.Time
	last       sim.Time
	seen       bool
	events     uint64

	// Report/export scratch, reused across calls so the extraction path is
	// allocation-free in steady state.
	keyScratch      []string
	throttleScratch []string
}

// histPool slab-allocates histograms: new keys appear a handful of times
// per run, and the pool keeps them from costing one heap object each. The
// first slab is small — a single-key run (the common case for short
// collections) touches only a few histograms — and refills jump to the
// full slab size for key-heavy runs.
type histPool struct {
	block []Hist
	grown bool
}

func (p *histPool) get() *Hist {
	if len(p.block) == 0 {
		n := 4
		if p.grown {
			n = 16
		}
		p.block = make([]Hist, n)
		p.grown = true
	}
	h := &p.block[0]
	p.block = p.block[1:]
	h.Unit = sim.Microsecond
	return h
}

// trackPool slab-allocates per-task tracks the same way, with the same
// small-first-slab sizing for runs tracking only a handful of tasks.
type trackPool struct {
	block []taskTrack
	grown bool
}

func (p *trackPool) get() *taskTrack {
	if len(p.block) == 0 {
		n := 8
		if p.grown {
			n = 64
		}
		p.block = make([]taskTrack, n)
		p.grown = true
	}
	t := &p.block[0]
	p.block = p.block[1:]
	return t
}

// NewCollector returns an empty collector aggregating by key (nil =
// DefaultKey).
func NewCollector(key KeyFn) *Collector {
	if key == nil {
		key = DefaultKey
	}
	return &Collector{
		Key:       key,
		keyIDs:    make(map[string]uint32),
		trackOf:   make(map[*sched.Task]*taskTrack),
		throttles: make(map[string]uint64),
	}
}

// Fn returns the TraceFn to plug into sched.Config.Trace.
func (c *Collector) Fn() sched.TraceFn { return c.handle }

// Reset clears all collected samples and per-task state in place so the
// collector can instrument another run. Interned keys and their histograms
// survive (histograms are zeroed, not replaced, so held *Hist pointers stay
// valid); per-task tracks are recycled. A collector reused across a sweep
// of runs reaches a steady state where a whole run — tracking, recording
// and extraction — allocates nothing.
func (c *Collector) Reset() {
	for tk, tr := range c.trackOf {
		c.freeTracks = append(c.freeTracks, tr)
		delete(c.trackOf, tk)
	}
	c.lastTask, c.lastTrack = nil, nil
	for i := range c.slots {
		slot := &c.slots[i]
		if slot.on != nil {
			slot.on.Reset()
		}
		if slot.runq != nil {
			slot.runq.Reset()
		}
		for _, h := range slot.off {
			if h != nil {
				h.Reset()
			}
		}
	}
	for i := range c.cpuBusy {
		c.cpuBusy[i] = 0
		c.cpuTouched[i] = false
	}
	for g := range c.throttles {
		delete(c.throttles, g)
	}
	c.first, c.last, c.seen, c.events = 0, 0, false, 0
}

// Events returns the number of trace events consumed.
func (c *Collector) Events() uint64 { return c.events }

// Span returns the time range covered by the consumed events.
func (c *Collector) Span() (first, last sim.Time) { return c.first, c.last }

// Keys returns every interned key in first-seen order. Shared; read-only.
func (c *Collector) Keys() []string { return c.keys }

// OnCPUHist returns key's cpudist histogram (nil if key never ran).
func (c *Collector) OnCPUHist(key string) *Hist { return c.slot(key).on }

// OffCPUHist returns key's offcputime histogram for one block reason (nil
// if key never went off-CPU for that reason).
func (c *Collector) OffCPUHist(key string, r sched.BlockKind) *Hist { return c.slot(key).off[r] }

// RunqHist returns key's runqlat histogram (nil if key was never woken and
// then dispatched).
func (c *Collector) RunqHist(key string) *Hist { return c.slot(key).runq }

// slot returns key's histogram table (empty for a key never interned).
func (c *Collector) slot(key string) keySlot {
	if id, ok := c.keyIDs[key]; ok {
		return c.slots[id]
	}
	return keySlot{}
}

// ThrottleCount returns the throttles observed for one cgroup.
func (c *Collector) ThrottleCount(group string) uint64 { return c.throttles[group] }

// VisitCPUBusy calls f with the accumulated on-CPU time of each touched CPU,
// in ascending id order, without allocating.
func (c *Collector) VisitCPUBusy(f func(cpu int, busy sim.Time)) {
	for id, touched := range c.cpuTouched {
		if touched {
			f(id, c.cpuBusy[id])
		}
	}
}

// VisitThrottles calls f for each group with observed throttles, in
// unspecified order, without allocating.
func (c *Collector) VisitThrottles(f func(group string, n uint64)) {
	for g, n := range c.throttles {
		f(g, n)
	}
}

// internKey resolves a key string to its dense id, registering it (and its
// histogram slot) on first sight.
func (c *Collector) internKey(key string) uint32 {
	if id, ok := c.keyIDs[key]; ok {
		return id
	}
	id := uint32(len(c.keys))
	c.keyIDs[key] = id
	c.keys = append(c.keys, key)
	c.slots = append(c.slots, keySlot{})
	return id
}

// track resolves the per-task state, interning the task's key on first
// sight (the only place the KeyFn runs).
func (c *Collector) track(t *sched.Task) *taskTrack {
	if t == c.lastTask {
		return c.lastTrack
	}
	tr := c.trackOf[t]
	if tr == nil {
		if n := len(c.freeTracks); n > 0 {
			tr = c.freeTracks[n-1]
			c.freeTracks = c.freeTracks[:n-1]
			*tr = taskTrack{}
		} else {
			tr = c.tracks.get()
		}
		tr.keyID = c.internKey(c.Key(t))
		c.trackOf[t] = tr
	}
	c.lastTask, c.lastTrack = t, tr
	return tr
}

// onCPUHist resolves (and caches on the track) the key's cpudist histogram.
func (c *Collector) onCPUHist(tr *taskTrack) *Hist {
	if tr.on != nil {
		return tr.on
	}
	slot := &c.slots[tr.keyID]
	if slot.on == nil {
		slot.on = c.hists.get()
	}
	tr.on = slot.on
	return slot.on
}

func (c *Collector) offCPUHist(tr *taskTrack, reason sched.BlockKind) *Hist {
	if int(reason) >= nBlockKinds {
		// A kind beyond the table means the sched.BlockKind enum grew
		// without nBlockKinds following; silently re-filing the samples
		// would corrupt the offcputime report.
		panic(fmt.Sprintf("trace: BlockKind %d outside the off-CPU table — update nBlockKinds", reason))
	}
	if h := tr.off[reason]; h != nil {
		return h
	}
	slot := &c.slots[tr.keyID]
	if slot.off[reason] == nil {
		slot.off[reason] = c.hists.get()
	}
	tr.off[reason] = slot.off[reason]
	return slot.off[reason]
}

func (c *Collector) runqHist(tr *taskTrack) *Hist {
	if tr.runq != nil {
		return tr.runq
	}
	slot := &c.slots[tr.keyID]
	if slot.runq == nil {
		slot.runq = c.hists.get()
	}
	tr.runq = slot.runq
	return slot.runq
}

// addCPUBusy accumulates on-CPU time into the flat per-CPU table, growing
// it to the highest CPU id seen (growth is bounded by the host size, so it
// stops allocating almost immediately).
func (c *Collector) addCPUBusy(cpu int, d sim.Time) {
	if cpu < 0 {
		return
	}
	for cpu >= len(c.cpuBusy) {
		c.cpuBusy = append(c.cpuBusy, 0)
		c.cpuTouched = append(c.cpuTouched, false)
	}
	c.cpuBusy[cpu] += d
	c.cpuTouched[cpu] = true
}

func (c *Collector) handle(ev sched.TraceEvent) {
	c.events++
	if !c.seen || ev.At < c.first {
		c.first = ev.At
		c.seen = true
	}
	if ev.At > c.last {
		c.last = ev.At
	}
	if ev.Kind == sched.TraceThrottle {
		c.throttles[ev.Group]++
		return
	}
	t := ev.Task
	if t == nil {
		return
	}
	tr := c.track(t)
	switch ev.Kind {
	case sched.TraceRunStart:
		if tr.everRan && !tr.running {
			c.offCPUHist(tr, tr.offReason).Record(ev.At - tr.lastRunEnd)
		}
		if tr.hasWake {
			c.runqHist(tr).Record(ev.At - tr.wokenAt)
			tr.hasWake = false
		}
		tr.running = true
		tr.everRan = true
		tr.offReason = sched.BlockNone
		tr.lastRunStart = ev.At
	case sched.TraceRunEnd:
		if tr.running {
			d := ev.At - tr.lastRunStart
			c.onCPUHist(tr).Record(d)
			c.addCPUBusy(ev.CPU, d)
			tr.running = false
			tr.lastRunEnd = ev.At
		}
	case sched.TraceBlock:
		tr.offReason = ev.Block
	case sched.TraceWake:
		tr.wokenAt = ev.At
		tr.hasWake = true
	case sched.TraceSpawn, sched.TraceFinish:
		// Lifecycle markers; intervals handled via run events.
	}
}

// Report renders the collected instruments in BCC's style: one cpudist
// histogram per key, one offcputime histogram per key and reason, runqlat,
// and the utilization summary.
func (c *Collector) Report(w io.Writer) {
	keys := c.sortedKeys()
	fmt.Fprintf(w, "== cpudist (on-CPU time per scheduling interval, usecs) ==\n")
	for _, k := range keys {
		if h := c.OnCPUHist(k); h != nil && h.Count() > 0 {
			fmt.Fprintf(w, "\n[%s]\n", k)
			h.Render(w, "usecs")
		}
	}
	fmt.Fprintf(w, "\n== offcputime (blocked/waiting durations, usecs) ==\n")
	for _, k := range keys {
		c.visitReasons(k, func(r sched.BlockKind, h *Hist) {
			if h.Count() == 0 {
				return
			}
			fmt.Fprintf(w, "\n[%s / %s]\n", k, r)
			h.Render(w, "usecs")
		})
	}
	fmt.Fprintf(w, "\n== runqlat (wakeup-to-dispatch latency, usecs) ==\n")
	for _, k := range keys {
		if h := c.RunqHist(k); h != nil && h.Count() > 0 {
			fmt.Fprintf(w, "\n[%s]\n", k)
			h.Render(w, "usecs")
		}
	}
	c.reportUtilization(w)
	if len(c.throttles) > 0 {
		fmt.Fprintf(w, "\n== cgroup throttles ==\n")
		gs := c.throttleScratch[:0]
		for g := range c.throttles {
			gs = append(gs, g)
		}
		sort.Strings(gs)
		c.throttleScratch = gs
		for _, g := range gs {
			fmt.Fprintf(w, "  %-20s %d\n", g, c.throttles[g])
		}
	}
}

func (c *Collector) reportUtilization(w io.Writer) {
	if !c.seen || c.last <= c.first {
		return
	}
	span := c.last - c.first
	n := 0
	var total sim.Time
	c.VisitCPUBusy(func(_ int, busy sim.Time) {
		n++
		total += busy
	})
	fmt.Fprintf(w, "\n== cpu utilization (span %v, %d CPUs touched) ==\n", span, n)
	c.VisitCPUBusy(func(id int, busy sim.Time) {
		util := float64(busy) / float64(span) * 100
		fmt.Fprintf(w, "  cpu%-4d %6.1f%%\n", id, util)
	})
	if n > 0 {
		fmt.Fprintf(w, "  total busy %v across %d CPUs\n", total, n)
	}
}

// sortedKeys returns every interned key in sorted order (the report loops
// skip empty histograms); the returned slice is collector-owned scratch,
// valid until the next call.
func (c *Collector) sortedKeys() []string {
	c.keyScratch = append(c.keyScratch[:0], c.keys...)
	sort.Strings(c.keyScratch)
	return c.keyScratch
}

// visitReasons calls f for each block reason with an off-CPU histogram under
// key, in BlockKind order (the interned slot table is already ordered, so no
// sort and no allocation).
func (c *Collector) visitReasons(key string, f func(r sched.BlockKind, h *Hist)) {
	for r, h := range c.slot(key).off {
		if h != nil {
			f(sched.BlockKind(r), h)
		}
	}
}

// Package machine assembles one simulated computer: topology + CFS scheduler
// + cgroup controller + IRQ/device controller + cache/NUMA model, over a
// private event engine. A Machine is either the physical host or a VM guest;
// the hypervisor package builds guest machines with virtualization overlays.
package machine

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"repro/internal/cache"
	"repro/internal/cgroups"
	"repro/internal/irqsim"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Config describes a machine and its calibration. Zero-valued scaling fields
// fall back to neutral values.
type Config struct {
	Name string
	Topo *topology.Topology
	Seed uint64

	Sched sched.Params
	Cache cache.Params
	CG    cgroups.Params
	IRQ   irqsim.Params
	// Channels are the IO devices; defaults to one NIC + one queued disk.
	Channels []irqsim.ChannelSpec

	// ComputeTax is the virtualization multiplier on compute (1 = host,
	// ~2 = guest per the paper's KVM measurements); each task weighs it by
	// its VMTaxWeight.
	ComputeTax float64
	// NUMASockets overrides the socket count used for the NUMA interleave
	// factor (guests pass the host's socket count). 0 = Topo.Sockets.
	NUMASockets int
	// IOScale multiplies device latencies and service times (paravirtual
	// IO). 0 = 1.
	IOScale float64
	// VirtioExtra is the per-IO completion cost inside guests.
	VirtioExtra sim.Time
	// VirtioMiss and VirtioMissProb model the completion vector landing on a
	// stale CPU while vanilla vCPUs wander; pinned VMs set prob 0.
	VirtioMiss     sim.Time
	VirtioMissProb float64
	// MsgSyncCost is the per-message synchronization cost: the host-kernel
	// futex/IPI path on hosts, the hypervisor's shared-memory path in
	// guests.
	MsgSyncCost sim.Time
	// MsgCopyPerKB is the per-KiB copy cost of message payloads.
	MsgCopyPerKB sim.Time
	// MsgNSPerCPU is the per-machine-CPU network-namespace cost added to
	// each message sent by a containerized task (Docker bridge path).
	MsgNSPerCPU sim.Time
	// MsgNSCopyScale multiplies copy costs for containerized senders.
	MsgNSCopyScale float64
	// MsgLineScale multiplies receiver-side line-transfer costs (guests set
	// it to reflect host-socket distances hidden by the flat vCPU topology).
	MsgLineScale float64
	// WakeExtra is the per-block-wakeup cost (guest vIPI/VM-exit path).
	WakeExtra sim.Time
	// WanderStallRate/WanderStallCost model floating-vCPU stalls (vanilla
	// guests only).
	WanderStallRate float64
	WanderStallCost sim.Time
	// NestedSwitchCost is the per-context-switch cost of guest-level cgroup
	// accounting under virtualized timekeeping; nonzero only for VMCN
	// guests. NestedSwitchMax caps one charge.
	NestedSwitchCost sim.Time
	NestedSwitchMax  sim.Time
	// Trace, when non-nil, receives the machine's scheduler tracepoint
	// stream (the BCC instrumentation analog; see internal/trace). Guests
	// built from this config inherit it, so a VMCN profile includes the
	// guest scheduler's events.
	Trace sched.TraceFn
}

// HostDefaults returns the calibrated host configuration for a topology.
func HostDefaults(topo *topology.Topology, seed uint64) Config {
	return Config{
		Name:           "host-" + topo.Name,
		Topo:           topo,
		Seed:           seed,
		Sched:          sched.DefaultParams(),
		Cache:          cache.DefaultParams(),
		CG:             cgroups.DefaultParams(),
		IRQ:            irqsim.DefaultParams(),
		ComputeTax:     1,
		IOScale:        1,
		MsgSyncCost:    8 * sim.Microsecond,
		MsgCopyPerKB:   250 * sim.Nanosecond,
		MsgNSPerCPU:    250 * sim.Nanosecond,
		MsgNSCopyScale: 6.0,
		MsgLineScale:   1.0,
	}
}

// Ablation is a set of overhead mechanisms to switch off in a host
// configuration, one bit per mechanism. It is plain data, so an ablated run
// can be fingerprinted, memoized and reused like any other. The zero value
// ablates nothing. The bit values are part of durable trial keys: add new
// bits at the end and never renumber existing ones.
type Ablation uint8

const (
	// AblateAcctWalk removes the per-host-CPU cgroup accounting walk.
	AblateAcctWalk Ablation = 1 << iota
	// AblateNUMA removes the memory-interleave penalty.
	AblateNUMA
	// AblateIRQDistance flattens the IRQ same- and cross-socket wake costs.
	AblateIRQDistance
	// AblateChurnWorkingSet forces the unthrottle-churn working-set factor
	// to 1.
	AblateChurnWorkingSet
	// AblateCacheLocality zeroes the cache-refill penalties a migration pays.
	// It is not what separates vanilla from pinned containers: on a Fig 3
	// Large container it removes under 1% of vanilla CN's excess over
	// pinned CN (finding cache-locality-separates-cn-modes, Refuted).
	AblateCacheLocality
	// AblateVMFastpath makes intra-guest messages expensive. It changes no
	// host setting: internal/hypervisor owns what it means
	// (hypervisor.ParamsFor).
	AblateVMFastpath
)

// ablationNames are the bits' JSON names, in bit order.
var ablationNames = [...]string{"acct-walk", "numa", "irq-distance", "churn-ws", "cache-locality", "vm-fastpath"}

// MarshalJSON encodes the set as a list of mechanism names in bit order.
func (a Ablation) MarshalJSON() ([]byte, error) {
	if rest := a &^ (1<<len(ablationNames) - 1); rest != 0 {
		return nil, fmt.Errorf("machine: unknown ablation bits %#x", uint8(rest))
	}
	names := []string{}
	for i, n := range ablationNames {
		if a&(1<<i) != 0 {
			names = append(names, n)
		}
	}
	return json.Marshal(names)
}

// UnmarshalJSON decodes a list of mechanism names; an unknown name is an
// error that lists the valid ones.
func (a *Ablation) UnmarshalJSON(data []byte) error {
	var names []string
	if err := json.Unmarshal(data, &names); err != nil {
		return fmt.Errorf("machine: ablations are a list of names: %w", err)
	}
	var out Ablation
	for _, n := range names {
		i := slices.Index(ablationNames[:], n)
		if i < 0 {
			return fmt.Errorf("machine: unknown ablation %q (have %s)", n, strings.Join(ablationNames[:], ", "))
		}
		out |= 1 << i
	}
	*a = out
	return nil
}

// Apply switches off every mechanism in a on c.
func (a Ablation) Apply(c *Config) {
	if a&AblateAcctWalk != 0 {
		c.CG.AcctPerCPU = 0
	}
	if a&AblateNUMA != 0 {
		c.Cache.NUMAPenaltyPerRemoteSocketFraction = 0
	}
	if a&AblateIRQDistance != 0 {
		c.IRQ.SameSocketCost = 0
		c.IRQ.CrossSocketCost = 0
	}
	if a&AblateChurnWorkingSet != 0 {
		c.CG.ChurnScaleOverride = 1
	}
	if a&AblateCacheLocality != 0 {
		c.Cache.SMTSiblingPenalty = 0
		c.Cache.SameSocketPenalty = 0
		c.Cache.CrossSocketPenalty = 0
	}
}

// Machine is one simulated computer.
type Machine struct {
	Cfg   Config
	Eng   *sim.Engine
	Topo  *topology.Topology
	Cache *cache.Model
	CG    *cgroups.Controller
	IRQ   *irqsim.Controller
	Sched *sched.Scheduler
	RNG   *sim.RNG
}

// New builds a machine from cfg.
func New(cfg Config) (*Machine, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("machine: nil topology")
	}
	if err := cfg.Topo.Validate(); err != nil {
		return nil, err
	}
	if cfg.ComputeTax <= 0 {
		cfg.ComputeTax = 1
	}
	if cfg.IOScale <= 0 {
		cfg.IOScale = 1
	}
	if cfg.NUMASockets <= 0 {
		cfg.NUMASockets = cfg.Topo.Sockets
	}
	if cfg.Sched == (sched.Params{}) {
		cfg.Sched = sched.DefaultParams()
	}
	if cfg.Cache == (cache.Params{}) {
		cfg.Cache = cache.DefaultParams()
	}
	if cfg.IRQ == (irqsim.Params{}) {
		cfg.IRQ = irqsim.DefaultParams()
	}
	eng := sim.NewEngine()
	rng := sim.NewRNG(cfg.Seed)
	m := &Machine{
		Cfg:   cfg,
		Eng:   eng,
		Topo:  cfg.Topo,
		Cache: cache.New(cfg.Topo, cfg.Cache),
		CG:    cgroups.NewController(eng, cfg.Topo, cfg.CG),
		IRQ:   irqsim.NewController(cfg.Topo, cfg.IRQ, cfg.Channels),
		RNG:   rng,
	}
	m.Sched = sched.New(eng, m.schedConfig(cfg))
	return m, nil
}

// Reset returns the machine to the state New(cfg) would construct while
// keeping every arena the previous run grew: the event engine's heap array,
// the scheduler's cpuRun/runqueue/task backings, the cgroup and IRQ
// controller structures. It is the per-trial reuse path — repetitions of
// one deployment shape differ only by cfg.Seed, so resetting and
// redeploying replays byte-identically to a fresh machine while allocating
// almost nothing. cfg.Topo must be the same *Topology the machine was
// built with (deployment reuse keys by host/guest shape, and guest
// topologies are interned, so this holds by construction); a different
// topology returns an error and the caller falls back to New.
func (m *Machine) Reset(cfg Config) error {
	if cfg.Topo != m.Topo {
		return fmt.Errorf("machine: Reset with a different topology (%s vs %s) — rebuild instead",
			cfg.Topo.Name, m.Topo.Name)
	}
	if cfg.ComputeTax <= 0 {
		cfg.ComputeTax = 1
	}
	if cfg.IOScale <= 0 {
		cfg.IOScale = 1
	}
	if cfg.NUMASockets <= 0 {
		cfg.NUMASockets = cfg.Topo.Sockets
	}
	if cfg.Sched == (sched.Params{}) {
		cfg.Sched = sched.DefaultParams()
	}
	if cfg.Cache == (cache.Params{}) {
		cfg.Cache = cache.DefaultParams()
	}
	if cfg.IRQ == (irqsim.Params{}) {
		cfg.IRQ = irqsim.DefaultParams()
	}
	m.Cfg = cfg
	m.Eng.Reset()
	m.RNG.Reseed(cfg.Seed)
	// The cache model is stateless (params + topology); rebuild only when
	// the calibration actually changed.
	if m.Cache.P != cfg.Cache {
		m.Cache = cache.New(cfg.Topo, cfg.Cache)
	}
	m.CG.Reset(cfg.CG)
	m.IRQ.Reset(cfg.IRQ, cfg.Channels)
	m.Sched.Reset(m.schedConfig(cfg))
	return nil
}

// schedConfig assembles the scheduler wiring for cfg — shared by New and
// Reset so the two paths cannot drift.
func (m *Machine) schedConfig(cfg Config) sched.Config {
	scfg := sched.Config{
		Params:           cfg.Sched,
		Topo:             cfg.Topo,
		Cache:            m.Cache,
		IRQ:              m.IRQ,
		RNG:              m.RNG,
		Trace:            cfg.Trace,
		IOScale:          cfg.IOScale,
		MsgSyncCost:      cfg.MsgSyncCost,
		MsgCopyPerKB:     cfg.MsgCopyPerKB,
		MsgNSPerCPU:      cfg.MsgNSPerCPU,
		MsgNSCopyScale:   cfg.MsgNSCopyScale,
		MsgLineScale:     cfg.MsgLineScale,
		WakeExtra:        cfg.WakeExtra,
		NestedSwitchMax:  cfg.NestedSwitchMax,
		WanderStallRate:  cfg.WanderStallRate,
		WanderStallCost:  cfg.WanderStallCost,
		NestedSwitchCost: cfg.NestedSwitchCost,
		// Method values instead of closures: the hooks read m.Cfg, so the
		// (large) Config no longer escapes into its own heap cell per
		// machine — construction is a per-trial steady-state cost.
		ComputeScale: m.computeScale,
	}
	if cfg.VirtioExtra > 0 || cfg.VirtioMissProb > 0 {
		scfg.PerIOExtra = m.perIOExtra
	}
	return scfg
}

// computeScale is the wall-time multiplier bound into the scheduler:
// virtualization tax (weighted per task) × NUMA interleave factor.
func (m *Machine) computeScale(t *sched.Task) float64 {
	tax := 1 + (m.Cfg.ComputeTax-1)*t.Spec.VMTaxWeight
	numa := m.Cache.NUMAFactorForSockets(t.Spec.MemBound, m.Cfg.NUMASockets)
	return tax * numa
}

// perIOExtra is the per-IO-completion guest cost hook (virtio ring plus the
// affinity-miss path of wandering vanilla vCPUs).
func (m *Machine) perIOExtra(*sched.Task) sim.Time {
	extra := m.Cfg.VirtioExtra
	if m.Cfg.VirtioMissProb > 0 && m.RNG.Float64() < m.Cfg.VirtioMissProb {
		extra += m.Cfg.VirtioMiss
	}
	return extra
}

// MustNew is New that panics on error (tests, examples).
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// NewGroup creates a cgroup on this machine. quotaCores <= 0 means no
// bandwidth quota; an empty cpuset means all CPUs.
func (m *Machine) NewGroup(name string, quotaCores float64, cpus topology.CPUSet) *cgroups.Group {
	return m.CG.NewGroup(name, quotaCores, cpus)
}

// Spawn schedules a task's arrival.
func (m *Machine) Spawn(spec sched.TaskSpec, at sim.Time) *sched.Task {
	return m.Sched.Spawn(spec, at)
}

// SpawnBatch schedules one task per spec, all arriving at the same instant.
// Equivalent to calling Spawn for each spec in order, but the arrival events
// are applied to the event queue as one batch (see sched.SpawnBatch).
func (m *Machine) SpawnBatch(specs []sched.TaskSpec, at sim.Time) []*sched.Task {
	return m.Sched.SpawnBatch(specs, at)
}

// SpecScratch returns the scheduler's reusable TaskSpec build buffer (see
// sched.Scheduler.SpecScratch): zero length, capacity for at least n specs.
func (m *Machine) SpecScratch(n int) []sched.TaskSpec {
	return m.Sched.SpecScratch(n)
}

// Result summarizes one run.
type Result struct {
	Makespan     sim.Time // last task completion time
	MeanResponse sim.Time // mean of per-task (finish - spawn)
	Responses    []sim.Time
	Breakdown    sched.Breakdown
	Events       uint64
	TimedOut     bool
}

// Run executes the machine until all spawned tasks finish, or until limit of
// simulated time elapses (0 = no limit). A limit hit marks the result
// TimedOut rather than erroring: the Cassandra Large "thrash" case is a
// legitimate outcome the experiments flag as out-of-range.
func (m *Machine) Run(limit sim.Time) Result {
	res := Result{}
	// RunWhile holds the engine's reentrancy guard for the whole run — one
	// enter/leave instead of one per event. The condition reproduces the old
	// per-step loop exactly: the limit is tested first (it can only trip
	// after a step advanced the clock, and the old loop flagged a timeout
	// even when that step finished the last task).
	drained := m.Eng.RunWhile(func() bool {
		if limit > 0 && m.Eng.Now() > limit {
			res.TimedOut = true
			return false
		}
		return m.Sched.Live() > 0
	})
	if !drained {
		// No events but live tasks: a deadlock in the task graph.
		panic(fmt.Sprintf("machine %s: %d tasks live with empty event queue",
			m.Cfg.Name, m.Sched.Live()))
	}
	for _, g := range m.CG.Groups() {
		g.Stop()
	}
	res.Breakdown = m.Sched.Breakdown()
	res.Events = m.Eng.Processed()
	for _, t := range m.Sched.Tasks() {
		if !t.Finished() {
			continue
		}
		if t.FinishedAt > res.Makespan {
			res.Makespan = t.FinishedAt
		}
		if res.Responses == nil {
			res.Responses = make([]sim.Time, 0, len(m.Sched.Tasks()))
		}
		res.Responses = append(res.Responses, t.ResponseTime())
	}
	if len(res.Responses) > 0 {
		var sum sim.Time
		for _, r := range res.Responses {
			sum += r
		}
		res.MeanResponse = sum / sim.Time(len(res.Responses))
	}
	return res
}

// Package cgroups models the Linux control-group CPU controllers the paper
// holds responsible for container overhead (§IV-B): the cpu controller's CFS
// bandwidth quota (Docker --cpus, "vanilla" mode) and the cpuset controller
// (Docker --cpuset-cpus, "pinned" mode), plus the resource-usage accounting
// cost that every scheduling event of a grouped task pays.
//
// The accounting cost model follows the paper's observation that cgroups
// usage tracking is an atomic kernel-space operation whose cost scales with
// the number of per-CPU structures that must be visited — i.e. with the size
// of the *host*, not of the container. That is the mechanism behind Fig 7:
// the same 16-core container pays more accounting tax on a 112-core host
// than on a 16-core host, pinned or not.
package cgroups

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Params calibrate the cgroup cost model.
type Params struct {
	// Period is the CFS bandwidth enforcement period (cpu.cfs_period_us).
	Period sim.Time
	// AcctBase is the fixed user→kernel transition cost of one accounting
	// invocation.
	AcctBase sim.Time
	// AcctPerCPU is the per-host-CPU cost of walking per-CPU usage
	// structures during one accounting invocation.
	AcctPerCPU sim.Time
	// UnthrottleThreadCost is charged per runnable thread at each unthrottle:
	// bandwidth-slice redistribution, staggered wakeup and cold-cache refill
	// after a throttle gap. It burns quota (it is real CPU time) and delays
	// the thread. This is the dominant PSO term for small vanilla containers.
	UnthrottleThreadCost sim.Time
	// ChurnSaturation scales the unthrottle cost by the time spent
	// throttled: a group throttled for a moment at the period edge loses
	// almost nothing (its caches are warm, slices still distributed); one
	// parked for most of the period pays the full cost.
	ChurnSaturation sim.Time
	// ChurnPerSpreadCPU caps the total churn of one unthrottle by the
	// number of host CPUs the group's tasks touched this period: the kernel
	// redistributes bandwidth slices and reestablishes state per CPU, not
	// per thread. Because the spread is bounded by the *host* size, the
	// absolute churn is roughly constant while the quota grows with the
	// instance — which is exactly why PSO fades as CHR rises (§IV-A).
	ChurnPerSpreadCPU sim.Time
	// ChurnQuotaFrac is a safety bound: one unthrottle's churn never burns
	// more than this fraction of the period quota, so huge thread counts
	// degrade a group severely but cannot starve it of all progress.
	ChurnQuotaFrac float64
	// ThrottlePerSpreadCPU is the resched-IPI cost per CPU the group touched
	// in the period, charged when the group throttles.
	ThrottlePerSpreadCPU sim.Time
	// ChurnScaleOverride, when positive, replaces the scheduler-reported
	// working-set churn factor with a fixed value (1 = ablate the
	// working-set scaling entirely; used by the ablation benchmarks).
	ChurnScaleOverride float64
	// AcctAmplification multiplies accounting costs; >1 inside guests where
	// each accounting read hits virtualized timekeeping (used by VMCN).
	AcctAmplification float64
}

// DefaultParams returns calibrated defaults.
func DefaultParams() Params {
	return Params{
		Period:               100 * sim.Millisecond,
		AcctBase:             1 * sim.Microsecond,
		AcctPerCPU:           80 * sim.Nanosecond,
		UnthrottleThreadCost: 6 * sim.Millisecond,
		ChurnSaturation:      20 * sim.Millisecond,
		ChurnPerSpreadCPU:    10 * sim.Millisecond,
		ChurnQuotaFrac:       1.2,
		ThrottlePerSpreadCPU: 20 * sim.Microsecond,
		AcctAmplification:    1,
	}
}

// GroupStats aggregates the overheads a group generated.
type GroupStats struct {
	AcctInvocations  uint64
	AcctTime         sim.Time
	Throttles        uint64
	ThrottledTime    sim.Time
	UnthrottleChurn  sim.Time
	QuotaConsumed    sim.Time
	PeriodsElapsed   uint64
	MaxSpreadPerCPUs int
}

// Group is one container-equivalent control group.
type Group struct {
	Name string
	// QuotaCores is the CFS bandwidth quota expressed in cores
	// (cpu.cfs_quota_us / cpu.cfs_period_us). 0 means unlimited.
	QuotaCores float64
	// CPUs is the cpuset (empty = all host CPUs allowed).
	CPUs topology.CPUSet

	ctl *Controller

	periodStart    sim.Time
	consumed       sim.Time // runtime consumed in the current period
	throttled      bool
	throttledAt    sim.Time
	throttleSpread int             // spread snapshot at the throttle point
	spread         topology.CPUSet // CPUs that ran group tasks this period
	periodTimer    sim.Timer       // bandwidth-period tick; bound at first arm
	onUnthrottle   func(churnPerThread sim.Time)
	runnable       int     // runnable threads, maintained by the scheduler
	live           int     // unfinished threads, maintained by the scheduler
	churnScale     float64 // working-set factor for unthrottle churn (0 = 1)

	Stats GroupStats
}

// Controller owns the groups of one machine.
type Controller struct {
	P      Params
	eng    *sim.Engine
	topo   *topology.Topology
	groups []*Group
	// acctCost is AcctCost's per-invocation charge, fixed by (P, topo) at
	// construction/Reset and precomputed off the per-switch hot path.
	acctCost sim.Time
}

// NewController returns a controller for one machine.
func NewController(eng *sim.Engine, topo *topology.Topology, p Params) *Controller {
	if p.Period <= 0 {
		p.Period = 100 * sim.Millisecond
	}
	if p.AcctAmplification <= 0 {
		p.AcctAmplification = 1
	}
	c := &Controller{P: p, eng: eng, topo: topo}
	c.acctCost = c.computeAcctCost()
	return c
}

func (c *Controller) computeAcctCost() sim.Time {
	return sim.Time(float64(c.P.AcctBase+sim.Time(int64(c.P.AcctPerCPU)*int64(c.topo.NumCPUs()))) * c.P.AcctAmplification)
}

// Reset returns the controller to the state NewController(eng, topo, p)
// would construct, keeping the engine/topology wiring and the group-list
// backing. Groups created before the Reset are dead — the scheduler and
// deployment that referenced them are reset alongside — and their structs
// are recycled by the next NewGroup calls.
func (c *Controller) Reset(p Params) {
	if p.Period <= 0 {
		p.Period = 100 * sim.Millisecond
	}
	if p.AcctAmplification <= 0 {
		p.AcctAmplification = 1
	}
	c.P = p
	c.acctCost = c.computeAcctCost()
	c.groups = c.groups[:0]
}

// NewGroup creates a group. quotaCores <= 0 means no bandwidth limit; an
// empty cpuset means all CPUs.
func (c *Controller) NewGroup(name string, quotaCores float64, cpus topology.CPUSet) *Group {
	// Recycle the struct of a same-position group from before a Reset: the
	// full overwrite also zeroes its embedded period timer, which rebinds
	// lazily at the first bandwidth charge.
	if n := len(c.groups); n < cap(c.groups) && c.groups[:n+1][n] != nil {
		c.groups = c.groups[:n+1]
		g := c.groups[n]
		*g = Group{Name: name, QuotaCores: quotaCores, CPUs: cpus, ctl: c}
		return g
	}
	g := &Group{Name: name, QuotaCores: quotaCores, CPUs: cpus, ctl: c}
	c.groups = append(c.groups, g)
	return g
}

// Groups returns the controller's groups.
func (c *Controller) Groups() []*Group { return c.groups }

// AllowedCPUs resolves the group's effective cpuset on the controller's host.
func (g *Group) AllowedCPUs() topology.CPUSet {
	if g == nil || g.CPUs.IsEmpty() {
		if g == nil {
			return topology.CPUSet{}
		}
		return g.ctl.topo.AllCPUs()
	}
	return g.CPUs
}

// Quota returns the per-period runtime budget, or 0 for unlimited.
func (g *Group) Quota() sim.Time {
	if g.QuotaCores <= 0 {
		return 0
	}
	return sim.Time(g.QuotaCores * float64(g.ctl.P.Period))
}

// SetUnthrottleFn registers the scheduler callback invoked when the group's
// bandwidth refreshes after a throttle. The callback receives the churn
// delay to apply per waking thread.
func (g *Group) SetUnthrottleFn(fn func(churnPerThread sim.Time)) { g.onUnthrottle = fn }

// SetRunnable lets the scheduler report the group's current runnable-thread
// count.
func (g *Group) SetRunnable(n int) { g.runnable = n }

// AddRunnable adjusts the runnable-thread count by delta. The scheduler
// calls it on every runnable transition, so it must stay allocation- and
// lookup-free.
func (g *Group) AddRunnable(delta int) { g.runnable += delta }

// Runnable returns the scheduler-reported runnable-thread count.
func (g *Group) Runnable() int { return g.runnable }

// SetLive lets the scheduler report the group's unfinished-thread count.
// Unthrottle churn is sized by it: threads blocked on IO at the period
// boundary still resume onto cold caches and re-established IO channels
// (§IV-C), so they pay the refill cost too, not just the currently-runnable
// ones.
func (g *Group) SetLive(n int) { g.live = n }

// AddLive adjusts the unfinished-thread count by delta.
func (g *Group) AddLive(delta int) { g.live += delta }

// Live returns the scheduler-reported unfinished-thread count.
func (g *Group) Live() int { return g.live }

// SetChurnScale lets the scheduler report the group's working-set factor:
// the per-thread refill cost of an unthrottle scales with how much state a
// thread must pull back into cache (a JVM heap vs a PHP worker's pages).
// Applied before the spread and quota caps. 0 or negative resets to 1.
func (g *Group) SetChurnScale(s float64) {
	if s <= 0 {
		s = 1
	}
	g.churnScale = s
}

// churnThreads is the thread count one unthrottle's churn is sized by.
func (g *Group) churnThreads() int {
	if g.live > g.runnable {
		return g.live
	}
	return g.runnable
}

// Throttled reports whether the group is currently banned from running.
func (g *Group) Throttled() bool { return g.throttled }

// AcctCost returns the cost of one accounting invocation (tick, context
// switch or wakeup of a grouped task) and records it.
func (g *Group) AcctCost() sim.Time {
	c := g.ctl.acctCost
	g.Stats.AcctInvocations++
	g.Stats.AcctTime += c
	return c
}

// AcctCostN records n accounting invocations at once and returns their
// total cost — bookkeeping identical to n consecutive AcctCost calls,
// without the per-call loop (the per-invocation charge is a constant).
func (g *Group) AcctCostN(n int64) sim.Time {
	total := g.ctl.acctCost * sim.Time(n)
	g.Stats.AcctInvocations += uint64(n)
	g.Stats.AcctTime += total
	return total
}

// ensurePeriod lazily starts the bandwidth period timer.
func (g *Group) ensurePeriod() {
	if g.Quota() == 0 || (g.periodTimer.Bound() && g.periodTimer.Pending()) {
		return
	}
	g.periodStart = g.ctl.eng.Now()
	g.schedulePeriodRefresh()
}

func (g *Group) schedulePeriodRefresh() {
	if !g.periodTimer.Bound() {
		// The static callback is bound once to the embedded timer; every
		// later period tick re-arms that same timer in the event heap, so
		// steady-state bandwidth enforcement allocates nothing — not even
		// the Timer or a method-value closure.
		g.periodTimer.InitArg(g.ctl.eng, groupPeriodFired, g)
	}
	g.periodTimer.ResetAt(g.periodStart + g.ctl.P.Period)
}

// groupPeriodFired is the static bandwidth-period callback.
func groupPeriodFired(a any) { a.(*Group).refreshPeriod() }

func (g *Group) refreshPeriod() {
	g.Stats.PeriodsElapsed++
	spread := g.spread.Count()
	if spread > g.Stats.MaxSpreadPerCPUs {
		g.Stats.MaxSpreadPerCPUs = spread
	}
	g.periodStart = g.ctl.eng.Now()
	// Carry overshoot debt: slices are charged at their end, so a group can
	// overrun its quota by up to one slice per CPU; the kernel claws that
	// back from the next period. Without the carry, coarse charging would
	// silently inflate the effective quota.
	q := g.Quota()
	if g.consumed > q {
		g.consumed -= q
	} else {
		g.consumed = 0
	}
	g.spread = topology.CPUSet{}
	wasThrottled := g.throttled
	if !wasThrottled && g.consumed == 0 && spread == 0 {
		// No activity in the elapsed period and no debt: idle the timer, as
		// the kernel's bandwidth slack timer does. The next Charge restarts
		// the period clock via ensurePeriod.
		return
	}
	g.schedulePeriodRefresh()
	if g.consumed >= q {
		// Debt alone exceeds the fresh quota: remain throttled.
		g.throttled = true
		return
	}
	g.throttled = false
	if nthr := g.churnThreads(); wasThrottled && nthr > 0 {
		dur := g.ctl.eng.Now() - g.throttledAt
		g.Stats.ThrottledTime += dur
		// Total churn of this unthrottle: per-thread refill cost scaled by
		// the group's working-set factor, capped by the per-CPU
		// slice-redistribution bound and the quota safety bound.
		scale := g.churnScale
		if o := g.ctl.P.ChurnScaleOverride; o > 0 {
			scale = o
		}
		if scale <= 0 {
			scale = 1
		}
		total := sim.Time(float64(g.ctl.P.UnthrottleThreadCost) * float64(nthr) * scale)
		if s := g.throttleSpread; s > spread {
			spread = s
		}
		if lim := sim.Time(int64(g.ctl.P.ChurnPerSpreadCPU) * int64(spread)); g.ctl.P.ChurnPerSpreadCPU > 0 && total > lim {
			total = lim
		}
		if f := g.ctl.P.ChurnQuotaFrac; f > 0 {
			if lim := sim.Time(f * float64(q)); total > lim {
				total = lim
			}
		}
		if sat := g.ctl.P.ChurnSaturation; sat > 0 && dur < sat {
			total = sim.Time(int64(total) * int64(dur) / int64(sat))
		}
		// The churn (bandwidth-slice redistribution, cold-cache refill) is
		// charged to the waking threads by the scheduler, where it also
		// consumes quota naturally through slice charging.
		g.Stats.UnthrottleChurn += total
		churn := total / sim.Time(nthr)
		if g.onUnthrottle != nil && churn > 0 {
			g.onUnthrottle(churn)
		}
	}
}

// Charge bills dur of CPU time consumed on cpu to the group and reports
// whether the group just hit its quota and must throttle.
func (g *Group) Charge(cpu int, dur sim.Time) (throttleNow bool) {
	g.Stats.QuotaConsumed += dur
	q := g.Quota()
	if q == 0 {
		return false
	}
	g.ensurePeriod()
	g.spread.Add(cpu)
	g.consumed += dur
	if !g.throttled && g.consumed >= q {
		g.throttled = true
		g.throttledAt = g.ctl.eng.Now()
		g.throttleSpread = g.spread.Count()
		g.Stats.Throttles++
		return true
	}
	return false
}

// ThrottleCost returns the resched-IPI cost of stopping the group, scaled by
// how many CPUs it is currently spread over.
func (g *Group) ThrottleCost() sim.Time {
	return sim.Time(int64(g.ctl.P.ThrottlePerSpreadCPU) * int64(g.spread.Count()))
}

// Stop cancels the group's timers (end of run).
func (g *Group) Stop() {
	if g.periodTimer.Bound() {
		g.periodTimer.Stop()
	}
}

// String describes the group configuration.
func (g *Group) String() string {
	mode := "pinned cpuset=" + g.CPUs.String()
	if g.CPUs.IsEmpty() {
		mode = fmt.Sprintf("vanilla quota=%.2f cores", g.QuotaCores)
	}
	return fmt.Sprintf("cgroup %s (%s)", g.Name, mode)
}

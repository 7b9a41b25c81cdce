package cgroups

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

func controller() (*sim.Engine, *Controller) {
	eng := sim.NewEngine()
	return eng, NewController(eng, topology.PaperHost(), DefaultParams())
}

// at runs fn at t on eng through a Timer of its own.
func at(eng *sim.Engine, t sim.Time, fn func()) {
	tm := new(sim.Timer)
	tm.InitArg(eng, func(any) { fn() }, nil)
	tm.ResetAt(t)
}

func TestGroupDefaults(t *testing.T) {
	_, c := controller()
	g := c.NewGroup("g", 0, topology.CPUSet{})
	if g.Quota() != 0 {
		t.Fatal("no quota expected")
	}
	if g.AllowedCPUs().Count() != 112 {
		t.Fatal("empty cpuset must mean all CPUs")
	}
	if g.Throttled() {
		t.Fatal("fresh group throttled")
	}
	pinned := c.NewGroup("p", 0, topology.NewCPUSet(1, 2))
	if pinned.AllowedCPUs().Count() != 2 {
		t.Fatal("cpuset not honored")
	}
	if len(c.Groups()) != 2 {
		t.Fatal("controller lost groups")
	}
}

func TestQuotaThrottlesAndRefreshes(t *testing.T) {
	eng, c := controller()
	g := c.NewGroup("g", 2, topology.CPUSet{}) // 200ms per 100ms period
	g.SetRunnable(4)

	if g.Charge(0, 50*sim.Millisecond) {
		t.Fatal("under quota should not throttle")
	}
	if !g.Charge(1, 160*sim.Millisecond) {
		t.Fatal("exceeding quota must throttle")
	}
	if !g.Throttled() {
		t.Fatal("group should be throttled")
	}
	// Additional charges while throttled do not re-trigger.
	if g.Charge(2, 10*sim.Millisecond) {
		t.Fatal("already-throttled group re-throttled")
	}
	unthrottled := false
	g.SetUnthrottleFn(func(churn sim.Time) {
		unthrottled = true
		if churn <= 0 {
			t.Error("churn must be positive")
		}
	})
	eng.Run(0) // period refresh fires
	if g.Throttled() {
		t.Fatal("group should unthrottle at the period boundary")
	}
	if !unthrottled {
		t.Fatal("unthrottle callback not invoked")
	}
	if g.Stats.Throttles != 1 || g.Stats.PeriodsElapsed == 0 {
		t.Fatalf("stats: %+v", g.Stats)
	}
	g.Stop()
}

func TestQuotaDebtCarry(t *testing.T) {
	eng, c := controller()
	g := c.NewGroup("g", 1, topology.CPUSet{}) // 100ms/period
	g.SetRunnable(1)
	// Consume 350ms at once: 250ms debt = throttled through two more
	// refreshes.
	if !g.Charge(0, 350*sim.Millisecond) {
		t.Fatal("should throttle")
	}
	deadline := eng.Now() + 110*sim.Millisecond
	eng.RunUntil(deadline)
	if !g.Throttled() {
		t.Fatal("debt of 250ms must keep the group throttled after one period")
	}
	eng.RunUntil(deadline + 100*sim.Millisecond)
	if !g.Throttled() {
		t.Fatal("still 150ms debt")
	}
	eng.RunUntil(deadline + 200*sim.Millisecond)
	if g.Throttled() {
		t.Fatal("debt repaid; group should run")
	}
	g.Stop()
}

func TestChurnCaps(t *testing.T) {
	eng, c := controller()
	g := c.NewGroup("g", 1, topology.CPUSet{})
	// Enormous runnable count: total churn must be capped by the spread and
	// quota bounds, so per-thread churn becomes small but positive.
	g.SetRunnable(1000)
	var got sim.Time
	g.SetUnthrottleFn(func(churn sim.Time) { got = churn })
	if !g.Charge(0, 150*sim.Millisecond) {
		t.Fatal("should throttle")
	}
	eng.Run(0)
	if got <= 0 {
		t.Fatal("churn should be distributed")
	}
	total := got * 1000
	maxTotal := sim.Time(c.P.ChurnQuotaFrac * float64(g.Quota()))
	if total > maxTotal+sim.Time(1000) { // rounding slack
		t.Fatalf("churn %v exceeds quota cap %v", total, maxTotal)
	}
	g.Stop()
}

func TestChurnSaturationScalesShortThrottles(t *testing.T) {
	eng, c := controller()
	g := c.NewGroup("g", 1, topology.CPUSet{})
	g.SetRunnable(2)
	var got sim.Time
	g.SetUnthrottleFn(func(churn sim.Time) { got = churn })
	// Open the period at t=0 (the timer starts lazily at the first charge),
	// then throttle 99ms into it: throttled for ~1ms ≪ saturation.
	at(eng, 0, func() { g.Charge(0, sim.Millisecond) })
	at(eng, 99*sim.Millisecond, func() { g.Charge(0, 150*sim.Millisecond) })
	eng.Run(0)
	full := c.P.UnthrottleThreadCost
	if got >= full/2 {
		t.Fatalf("short throttle should scale churn down: got %v of %v", got, full)
	}
	g.Stop()
}

func TestChurnSizedByLiveThreads(t *testing.T) {
	// Two groups, identical quota pressure; one reports 2 runnable of 2
	// live, the other 2 runnable of 40 live (the rest blocked on IO). The
	// live-heavy group must generate more total churn (§IV-C: blocked
	// threads resume onto cold caches too).
	run := func(live int) sim.Time {
		eng, c := controller()
		g := c.NewGroup("g", 1, topology.CPUSet{})
		g.SetRunnable(2)
		g.SetLive(live)
		// Spread wide enough that the per-spread-CPU cap does not mask the
		// live-thread sizing.
		for cpu := 0; cpu < 30; cpu++ {
			g.Charge(cpu, 5*sim.Millisecond)
		}
		eng.Run(0)
		g.Stop()
		return g.Stats.UnthrottleChurn
	}
	small, big := run(2), run(40)
	if big <= small {
		t.Fatalf("churn must grow with live threads: %v vs %v", small, big)
	}
}

func TestChurnWorkingSetScale(t *testing.T) {
	run := func(scale float64) sim.Time {
		eng, c := controller()
		g := c.NewGroup("g", 4, topology.CPUSet{}) // roomy quota: caps off
		g.SetRunnable(2)
		g.SetChurnScale(scale)
		// Spread over four CPUs so the per-spread-CPU cap stays above the
		// scaled total.
		for cpu := 0; cpu < 4; cpu++ {
			g.Charge(cpu, 120*sim.Millisecond)
		}
		eng.Run(0)
		g.Stop()
		return g.Stats.UnthrottleChurn
	}
	base, heavy := run(1), run(3)
	if heavy != 3*base {
		t.Fatalf("working-set scale must multiply churn: %v vs %v", base, heavy)
	}
	// Zero/negative resets to neutral.
	if got := run(-1); got != base {
		t.Fatalf("negative scale must mean 1: %v vs %v", got, base)
	}
}

func TestChurnScaleOverrideAblates(t *testing.T) {
	p := DefaultParams()
	p.ChurnScaleOverride = 1
	eng := sim.NewEngine()
	c := NewController(eng, topology.PaperHost(), p)
	g := c.NewGroup("g", 4, topology.CPUSet{})
	g.SetRunnable(2)
	g.SetChurnScale(3) // would triple churn, but the override pins it to 1
	g.Charge(0, 450*sim.Millisecond)
	eng.Run(0)
	g.Stop()

	eng2, c2 := controller()
	g2 := c2.NewGroup("g", 4, topology.CPUSet{})
	g2.SetRunnable(2)
	g2.Charge(0, 450*sim.Millisecond)
	eng2.Run(0)
	g2.Stop()

	if g.Stats.UnthrottleChurn != g2.Stats.UnthrottleChurn {
		t.Fatalf("override must ablate the working-set factor: %v vs %v",
			g.Stats.UnthrottleChurn, g2.Stats.UnthrottleChurn)
	}
}

func TestIdlePeriodTimerStops(t *testing.T) {
	eng, c := controller()
	g := c.NewGroup("g", 1, topology.CPUSet{})
	g.SetRunnable(1)
	g.Charge(0, 30*sim.Millisecond) // under quota: never throttles
	eng.Run(0)                      // must terminate (timer idles after a quiet period)
	if g.Throttled() {
		t.Fatal("group should not be throttled")
	}
	if g.Stats.PeriodsElapsed < 1 || g.Stats.PeriodsElapsed > 3 {
		t.Fatalf("timer should idle after the quiet period, saw %d periods", g.Stats.PeriodsElapsed)
	}
	// Re-charging restarts the period clock.
	g.Charge(0, 150*sim.Millisecond)
	if !g.Throttled() {
		t.Fatal("fresh charge over quota must throttle")
	}
	eng.Run(0)
	if g.Throttled() {
		t.Fatal("restarted timer must unthrottle the group")
	}
	g.Stop()
}

func TestAcctCostScalesWithHostSize(t *testing.T) {
	engBig := sim.NewEngine()
	big := NewController(engBig, topology.PaperHost(), DefaultParams())
	engSmall := sim.NewEngine()
	small := NewController(engSmall, topology.SmallHost16(), DefaultParams())
	gb := big.NewGroup("b", 0, topology.CPUSet{})
	gs := small.NewGroup("s", 0, topology.CPUSet{})
	if gb.AcctCost() <= gs.AcctCost() {
		t.Fatal("accounting on a 112-CPU host must cost more than on 16 CPUs")
	}
	if gb.Stats.AcctInvocations != 1 || gb.Stats.AcctTime == 0 {
		t.Fatalf("stats not recorded: %+v", gb.Stats)
	}
}

func TestAcctAmplification(t *testing.T) {
	eng := sim.NewEngine()
	p := DefaultParams()
	p.AcctAmplification = 3
	c := NewController(eng, topology.PaperHost(), p)
	g := c.NewGroup("g", 0, topology.CPUSet{})
	base := NewController(sim.NewEngine(), topology.PaperHost(), DefaultParams()).NewGroup("b", 0, topology.CPUSet{})
	if g.AcctCost() != 3*base.AcctCost() {
		t.Fatal("amplification not applied")
	}
}

func TestThrottleCostScalesWithSpread(t *testing.T) {
	_, c := controller()
	g := c.NewGroup("g", 4, topology.CPUSet{})
	g.SetRunnable(8)
	g.Charge(0, 10*sim.Millisecond)
	g.Charge(5, 10*sim.Millisecond)
	g.Charge(60, 10*sim.Millisecond)
	cost3 := g.ThrottleCost()
	want := sim.Time(3 * int64(c.P.ThrottlePerSpreadCPU))
	if cost3 != want {
		t.Fatalf("throttle cost %v, want %v", cost3, want)
	}
}

func TestGroupString(t *testing.T) {
	_, c := controller()
	v := c.NewGroup("web", 4, topology.CPUSet{})
	if !strings.Contains(v.String(), "vanilla") {
		t.Fatalf("vanilla string: %s", v)
	}
	p := c.NewGroup("db", 0, topology.NewCPUSet(0, 2))
	if !strings.Contains(p.String(), "pinned") {
		t.Fatalf("pinned string: %s", p)
	}
}

func TestStopCancelsTimer(t *testing.T) {
	eng, c := controller()
	g := c.NewGroup("g", 1, topology.CPUSet{})
	g.SetRunnable(1)
	g.Charge(0, 150*sim.Millisecond)
	g.Stop()
	pending := eng.Pending()
	eng.Run(0)
	if g.Throttled() == false && pending > 0 {
		// The canceled refresh may remain in the heap but must not fire.
		t.Log("timer canceled correctly")
	}
	if eng.Processed() != 0 {
		t.Fatalf("canceled period timer fired (%d events)", eng.Processed())
	}
}

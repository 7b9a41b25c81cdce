package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
)

// buildTraced runs a tiny two-task workload (one compute-only, one IO-heavy,
// the latter in a cgroup) with a collector attached and returns it.
func buildTraced(t *testing.T) *Collector {
	t.Helper()
	col := NewCollector(nil)
	topo, err := topology.New("t", 1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.HostDefaults(topo, 1)
	cfg.Trace = col.Fn()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := m.NewGroup("web", 0, topology.NewCPUSet(0, 1))
	m.Spawn(sched.TaskSpec{
		Name:    "cruncher",
		Program: sched.Sequence(sched.Compute(40*sim.Millisecond), sched.Compute(40*sim.Millisecond)),
	}, 0)
	m.Spawn(sched.TaskSpec{
		Name:  "webproc",
		Group: g,
		Program: sched.Sequence(
			sched.Compute(time1ms), sched.IO(0, 2*sim.Millisecond),
			sched.Compute(time1ms), sched.IO(1, 2*sim.Millisecond),
			sched.Compute(time1ms),
		),
	}, 0)
	res := m.Run(0)
	if res.TimedOut || len(res.Responses) != 2 {
		t.Fatalf("run: %+v", res)
	}
	return col
}

const time1ms = sim.Millisecond

func TestCollectorBuildsInstruments(t *testing.T) {
	col := buildTraced(t)
	if col.Events() == 0 {
		t.Fatal("no trace events consumed")
	}
	host := col.OnCPUHist("host")
	if host == nil || host.Count() == 0 {
		t.Fatal("host cpudist empty")
	}
	web := col.OnCPUHist("web")
	if web == nil || web.Count() == 0 {
		t.Fatal("grouped cpudist empty")
	}
	// The web task blocks twice for IO: offcputime must hold IO intervals.
	offWeb := col.OffCPUHist("web", sched.BlockIO)
	if offWeb == nil || offWeb.Count() != 2 {
		t.Fatalf("web IO off-cpu intervals: %+v", offWeb)
	}
	// IO off-CPU time must be on the order of the device latency (the
	// scheduler jitters latencies slightly, so allow a generous floor).
	if offWeb.Min() < sim.Millisecond {
		t.Fatalf("IO off-cpu interval %v far below device latency", offWeb.Min())
	}
	first, last := col.Span()
	if last <= first {
		t.Fatal("span not recorded")
	}
}

func TestCollectorCPUBusyMatchesOnCPU(t *testing.T) {
	col := buildTraced(t)
	var busy sim.Time
	col.VisitCPUBusy(func(_ int, d sim.Time) { busy += d })
	var on sim.Time
	for _, k := range col.Keys() {
		if h := col.OnCPUHist(k); h != nil {
			on += h.Sum()
		}
	}
	if busy != on {
		t.Fatalf("per-CPU busy %v != sum of cpudist %v", busy, on)
	}
}

func TestCollectorReport(t *testing.T) {
	col := buildTraced(t)
	var buf bytes.Buffer
	col.Report(&buf)
	out := buf.String()
	for _, want := range []string{"cpudist", "offcputime", "runqlat", "cpu utilization", "[web / io]", "[host]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// ByTaskName keys samples by the task's configured name: a per-task KeyFn
// for the tests, which the default per-cgroup key would not separate.
func ByTaskName(t *sched.Task) string {
	if t == nil {
		return "?"
	}
	return t.Spec.Name
}

func TestCollectorByTaskName(t *testing.T) {
	col := NewCollector(ByTaskName)
	topo, _ := topology.New("t", 1, 2, 1)
	cfg := machine.HostDefaults(topo, 1)
	cfg.Trace = col.Fn()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Spawn(sched.TaskSpec{Name: "alpha", Program: sched.Sequence(sched.Compute(sim.Millisecond))}, 0)
	m.Spawn(sched.TaskSpec{Name: "beta", Program: sched.Sequence(sched.Compute(sim.Millisecond))}, 0)
	m.Run(0)
	if col.OnCPUHist("alpha") == nil || col.OnCPUHist("beta") == nil {
		t.Fatal("task-name keying broken")
	}
}

func TestCollectorThrottleCounts(t *testing.T) {
	col := NewCollector(nil)
	topo, _ := topology.New("t", 1, 8, 1)
	cfg := machine.HostDefaults(topo, 1)
	cfg.Trace = col.Fn()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A 1-core-quota group with 4 hungry threads must throttle repeatedly.
	g := m.NewGroup("squeezed", 1, topology.CPUSet{})
	for i := 0; i < 4; i++ {
		m.Spawn(sched.TaskSpec{
			Name:    "hog",
			Group:   g,
			Program: sched.Sequence(sched.Compute(200 * sim.Millisecond)),
		}, 0)
	}
	m.Run(0)
	if col.ThrottleCount("squeezed") == 0 {
		t.Fatal("no throttles observed in trace stream")
	}
	var buf bytes.Buffer
	col.Report(&buf)
	if !strings.Contains(buf.String(), "cgroup throttles") {
		t.Fatal("throttle section missing from report")
	}
}

func TestDefaultKeyFallbacks(t *testing.T) {
	if DefaultKey(nil) != "host" {
		t.Fatal("nil task must key to host")
	}
	if ByTaskName(nil) != "?" {
		t.Fatal("nil task name key")
	}
}

// The runqlat instrument must capture wake-to-dispatch latency: a woken task
// on a busy CPU waits for the running slice to yield.
func TestCollectorRunqLatency(t *testing.T) {
	col := buildTraced(t)
	total := uint64(0)
	for _, k := range col.Keys() {
		if h := col.RunqHist(k); h != nil {
			total += h.Count()
		}
	}
	if total == 0 {
		t.Fatal("no runqlat samples; IO wakeups must produce them")
	}
}

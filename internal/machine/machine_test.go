package machine

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil topology must fail")
	}
	bad := &topology.Topology{Name: "bad"}
	if _, err := New(Config{Topo: bad}); err == nil {
		t.Fatal("invalid topology must fail")
	}
}

// TestNewRejectsLiteralTopology: a topology with valid dimensions that
// topology.New did not build has no index; New reports it instead of a
// scheduler lookup dereferencing nil.
func TestNewRejectsLiteralTopology(t *testing.T) {
	lit := &topology.Topology{Name: "lit", Sockets: 1, CoresPerSocket: 4, ThreadsPerCore: 1}
	if _, err := New(Config{Topo: lit}); err == nil {
		t.Fatal("literal topology (not built by topology.New) must fail")
	}
}

func TestDefaultsFilledIn(t *testing.T) {
	topo := topology.SmallHost16()
	m := MustNew(Config{Topo: topo})
	if m.Cfg.ComputeTax != 1 || m.Cfg.IOScale != 1 || m.Cfg.NUMASockets != 1 {
		t.Fatalf("defaults not applied: %+v", m.Cfg)
	}
	if m.Cfg.Sched.TargetLatency == 0 || m.Cfg.Cache.DecayTime == 0 {
		t.Fatal("parameter defaults missing")
	}
}

func TestRunCompletesTasks(t *testing.T) {
	m := MustNew(HostDefaults(topology.SmallHost16(), 1))
	m.Spawn(sched.TaskSpec{Name: "a", Program: sched.Sequence(sched.Compute(5 * sim.Millisecond))}, 0)
	m.Spawn(sched.TaskSpec{Name: "b", Program: sched.Sequence(sched.Compute(8 * sim.Millisecond))}, sim.Millisecond)
	res := m.Run(0)
	if res.TimedOut {
		t.Fatal("unexpected timeout")
	}
	if len(res.Responses) != 2 {
		t.Fatalf("responses: %v", res.Responses)
	}
	if res.Makespan < 8*sim.Millisecond {
		t.Fatalf("makespan %v", res.Makespan)
	}
	if res.MeanResponse <= 0 {
		t.Fatal("mean response missing")
	}
	if res.Events == 0 {
		t.Fatal("no events processed?")
	}
}

func TestRunTimeLimit(t *testing.T) {
	m := MustNew(HostDefaults(topology.SmallHost16(), 1))
	m.Spawn(sched.TaskSpec{Name: "slow", Program: sched.Sequence(sched.Compute(10 * sim.Second))}, 0)
	res := m.Run(50 * sim.Millisecond)
	if !res.TimedOut {
		t.Fatal("expected TimedOut")
	}
}

func TestRunDeadlockPanics(t *testing.T) {
	m := MustNew(HostDefaults(topology.SmallHost16(), 1))
	// A task that blocks on Recv with no sender ever.
	m.Spawn(sched.TaskSpec{Name: "stuck", Program: sched.ProgramFunc(func(*sched.Task) sched.Action {
		return sched.Recv()
	})}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("deadlock must panic with a diagnostic")
		}
	}()
	m.Run(0)
}

func TestNUMASocketOverride(t *testing.T) {
	topo := topology.SmallHost16() // 1 socket
	cfg := HostDefaults(topo, 1)
	cfg.NUMASockets = 4 // pretend guest backed by a 4-socket host
	m := MustNew(cfg)
	m.Spawn(sched.TaskSpec{Name: "m", MemBound: 1,
		Program: sched.Sequence(sched.Compute(100 * sim.Millisecond))}, 0)
	res := m.Run(0)
	if res.Makespan <= 130*sim.Millisecond {
		t.Fatalf("NUMA override not applied: %v", res.Makespan)
	}
}

// TestAblationJSON: an ablation set is a list of mechanism names in bit
// order, it round-trips, and an unknown name or bit is an error naming the
// valid names.
func TestAblationJSON(t *testing.T) {
	a := AblateNUMA | AblateAcctWalk | AblateVMFastpath
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `["acct-walk","numa","vm-fastpath"]` {
		t.Fatalf("marshal = %s", data)
	}
	var back Ablation
	if err := json.Unmarshal([]byte(`["vm-fastpath","numa","acct-walk"]`), &back); err != nil || back != a {
		t.Fatalf("unmarshal = %#x, %v; want %#x", back, err, a)
	}
	err = json.Unmarshal([]byte(`["numa","warp-drive"]`), &back)
	if err == nil || !strings.Contains(err.Error(), `"warp-drive"`) || !strings.Contains(err.Error(), "cache-locality") {
		t.Fatalf("unknown name error = %v", err)
	}
	if _, err := json.Marshal(Ablation(1 << 7)); err == nil {
		t.Fatal("an unnamed bit must not marshal")
	}
}

func TestComputeTaxAppliesByWeight(t *testing.T) {
	run := func(weight float64) sim.Time {
		cfg := HostDefaults(topology.SmallHost16(), 1)
		cfg.ComputeTax = 2
		m := MustNew(cfg)
		m.Spawn(sched.TaskSpec{Name: "t", VMTaxWeight: weight,
			Program: sched.Sequence(sched.Compute(100 * sim.Millisecond))}, 0)
		return m.Run(0).Makespan
	}
	full := run(1)
	none := run(0)
	if full < 195*sim.Millisecond || none > 105*sim.Millisecond {
		t.Fatalf("tax weighting broken: full=%v none=%v", full, none)
	}
}

func TestVirtioExtraCharged(t *testing.T) {
	cfg := HostDefaults(topology.SmallHost16(), 1)
	cfg.VirtioExtra = 100 * sim.Microsecond
	m := MustNew(cfg)
	m.Spawn(sched.TaskSpec{Name: "io", Program: sched.Sequence(
		sched.IO(0, sim.Millisecond), sched.Compute(sim.Millisecond))}, 0)
	res := m.Run(0)
	if res.Breakdown.VirtioTime < 100*sim.Microsecond {
		t.Fatalf("virtio extra not charged: %+v", res.Breakdown)
	}
}

func TestGroupLifecycleThroughMachine(t *testing.T) {
	m := MustNew(HostDefaults(topology.PaperHost(), 1))
	g := m.NewGroup("cn", 2, topology.CPUSet{})
	// 400ms of CPU work against a 200ms-per-100ms-period budget: the first
	// period's burst can deliver at most the 200ms quota, so completion
	// must reach into the second period.
	for i := 0; i < 8; i++ {
		m.Spawn(sched.TaskSpec{Name: "w", Group: g,
			Program: sched.Sequence(sched.Compute(50 * sim.Millisecond))}, 0)
	}
	res := m.Run(0)
	if res.TimedOut {
		t.Fatal("timed out")
	}
	if res.Makespan < 100*sim.Millisecond {
		t.Fatalf("quota not enforced: 400ms of work at 2 cores finished in %v", res.Makespan)
	}
}

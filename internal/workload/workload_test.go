package workload

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topology"
)

func env(seed uint64, cores int) Env {
	m := machine.MustNew(machine.HostDefaults(topology.PaperHost(), seed))
	return EnvFor(m, nil, topology.CPUSet{}, cores)
}

func TestEnvForDefaultsMemory(t *testing.T) {
	e := env(1, 8)
	if e.MemGB != 32 {
		t.Fatalf("Table II memory sizing: %d GB for 8 cores", e.MemGB)
	}
}

func TestTranscodeSpawnsThreadsAndFinishes(t *testing.T) {
	w := DefaultTranscode()
	w.TotalWork = sim.FromSeconds(1)
	w.PerProcessOverhead = 0
	e := env(2, 16)
	inst := w.Spawn(e)
	if got := len(e.M.Sched.Tasks()); got != w.Threads {
		t.Fatalf("spawned %d tasks, want %d", got, w.Threads)
	}
	res := e.M.Run(0)
	secs := inst.Metric(res)
	if secs <= 0 {
		t.Fatalf("metric %v", secs)
	}
	// 1 core-second over ≥10 effective threads on 16 idle cpus ⇒ ≪ 1s wall.
	if secs > 0.5 {
		t.Fatalf("no parallel speedup: %v s", secs)
	}
}

func TestTranscodeSegments(t *testing.T) {
	w := DefaultTranscode()
	w.TotalWork = sim.FromSeconds(1)
	w.PerProcessOverhead = sim.FromSeconds(0.1)
	w.Segments = 3
	e := env(3, 16)
	w.Spawn(e)
	if got := len(e.M.Sched.Tasks()); got != 3*w.Threads {
		t.Fatalf("spawned %d tasks for 3 segments", got)
	}
	if w.Name() != "ffmpeg-3segments" {
		t.Fatal(w.Name())
	}
}

func TestTranscodeSublinearScaling(t *testing.T) {
	run := func(cores int) float64 {
		w := DefaultTranscode()
		m := machine.MustNew(machine.HostDefaults(topology.PaperHost(), 9))
		envv := EnvFor(m, nil, m.Topo.InterleavedCPUs(cores), cores)
		inst := w.Spawn(envv)
		return inst.Metric(m.Run(0))
	}
	t2 := run(2)
	t16 := run(16)
	speedup := t2 / t16
	// The paper's FFmpeg speeds up ≈4× from 2 to 16 cores.
	if speedup < 3.2 || speedup > 5.5 {
		t.Fatalf("2→16 core speedup %.2f, want ≈4", speedup)
	}
}

func TestMPISearchCompletes(t *testing.T) {
	w := DefaultMPISearch()
	w.Rounds = 10
	w.TotalCompute = sim.FromSeconds(0.1)
	e := env(4, 4)
	inst := w.Spawn(e)
	if got := len(e.M.Sched.Tasks()); got != 4 {
		t.Fatalf("ranks: %d", got)
	}
	res := e.M.Run(30 * sim.Second)
	if res.TimedOut {
		t.Fatal("MPI run wedged")
	}
	if inst.Metric(res) <= 0 {
		t.Fatal("no metric")
	}
	if res.Breakdown.Messages == 0 {
		t.Fatal("no messages exchanged")
	}
}

func TestMPISearchSingleRank(t *testing.T) {
	w := DefaultMPISearch()
	w.Ranks = 1
	w.Rounds = 5
	w.TotalCompute = sim.FromSeconds(0.01)
	e := env(5, 2)
	inst := w.Spawn(e)
	res := e.M.Run(10 * sim.Second)
	if res.TimedOut || inst.Metric(res) <= 0 {
		t.Fatal("single-rank MPI must degenerate gracefully")
	}
}

func TestWebMeanResponse(t *testing.T) {
	w := DefaultWeb()
	w.Requests = 64
	w.Workers = 16
	e := env(6, 8)
	inst := w.Spawn(e)
	if got := len(e.M.Sched.Tasks()); got != 16 {
		t.Fatalf("workers spawned: %d", got)
	}
	res := e.M.Run(60 * sim.Second)
	if res.TimedOut {
		t.Fatal("web run wedged")
	}
	secs := inst.Metric(res)
	if secs <= 0 {
		t.Fatal("no mean response")
	}
	if res.Breakdown.IOs < 2*64 {
		t.Fatalf("each request needs ≥2 socket IRQs, got %d", res.Breakdown.IOs)
	}
}

func TestWebWorkerClamping(t *testing.T) {
	w := DefaultWeb()
	w.Requests = 5
	w.Workers = 100
	e := env(7, 4)
	w.Spawn(e)
	if got := len(e.M.Sched.Tasks()); got != 5 {
		t.Fatalf("workers must clamp to requests: %d", got)
	}
}

func TestNoSQLMissProbabilityFollowsMemory(t *testing.T) {
	w := DefaultNoSQL()
	small := w.MissProb(16)
	big := w.MissProb(256)
	if small <= big {
		t.Fatal("more memory must mean fewer misses")
	}
	if big < w.MinMiss {
		t.Fatal("floor violated")
	}
	if !w.Thrashing(8) || w.Thrashing(16) {
		t.Fatal("thrash threshold broken")
	}
}

func TestNoSQLRunsAndRecordsResponses(t *testing.T) {
	w := DefaultNoSQL()
	w.Ops = 100
	w.Threads = 10
	w.OpCPU = 2 * sim.Millisecond
	e := env(8, 8)
	inst := w.Spawn(e)
	if got := len(e.M.Sched.Tasks()); got != 10 {
		t.Fatalf("threads: %d", got)
	}
	res := e.M.Run(60 * sim.Second)
	if res.TimedOut {
		t.Fatal("nosql run wedged")
	}
	if n := inst.(*meanResponse).n; n != 100 {
		t.Fatalf("recorded %d op responses, want 100", n)
	}
	if inst.Metric(res) <= 0 {
		t.Fatal("no metric")
	}
}

func TestNoSQLThrashInflatesWork(t *testing.T) {
	mk := func(memGB int) float64 {
		w := DefaultNoSQL()
		w.Ops = 60
		w.Threads = 10
		m := machine.MustNew(machine.HostDefaults(topology.PaperHost(), 11))
		envv := EnvFor(m, nil, m.Topo.InterleavedCPUs(4), 4)
		envv.MemGB = memGB
		inst := w.Spawn(envv)
		return inst.Metric(m.Run(5 * 60 * sim.Second))
	}
	healthy := mk(64)
	thrashed := mk(8)
	if thrashed < 1.5*healthy {
		t.Fatalf("thrash regime too mild: %v vs %v", thrashed, healthy)
	}
}

func TestCheckEnvPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil machine must panic")
		}
	}()
	DefaultWeb().Spawn(Env{Cores: 2})
}

func TestMicroserviceCompletesAllRequests(t *testing.T) {
	w := DefaultMicroservice()
	w.Requests = 120
	e := env(9, 16)
	inst := w.Spawn(e)
	if got, want := len(e.M.Sched.Tasks()), w.Backends+w.Frontends; got != want {
		t.Fatalf("spawned %d tasks, want %d (backends+frontends)", got, want)
	}
	res := e.M.Run(0)
	if res.TimedOut {
		t.Fatal("microservice run timed out")
	}
	if n := inst.(*meanResponse).n; n != w.Requests {
		t.Fatalf("completed %d responses, want %d", n, w.Requests)
	}
	if inst.Metric(res) <= 0 {
		t.Fatal("metric must be positive")
	}
	// Each request makes exactly one internal RPC (request + reply).
	if got, want := res.Breakdown.Messages, uint64(2*w.Requests); got != want {
		t.Fatalf("messages %d, want %d", got, want)
	}
	// No disk involvement: only NIC IOs, two per request.
	if got, want := res.Breakdown.IOs, uint64(2*w.Requests); got != want {
		t.Fatalf("IOs %d, want %d", got, want)
	}
}

func TestMicroserviceClampsShapes(t *testing.T) {
	w := DefaultMicroservice()
	w.Requests = 3
	w.Frontends = 10 // clamped to 3
	w.Backends = 9   // clamped to frontends
	e := env(10, 4)
	inst := w.Spawn(e)
	res := e.M.Run(0)
	if res.TimedOut || inst.Metric(res) <= 0 {
		t.Fatalf("clamped microservice failed: %+v", res)
	}
	if len(e.M.Sched.Tasks()) != 6 { // 3 frontends + 3 backends
		t.Fatalf("clamping broken: %d tasks", len(e.M.Sched.Tasks()))
	}
}

func TestMicroserviceZeroRequests(t *testing.T) {
	w := DefaultMicroservice()
	w.Requests = 0 // treated as 1
	e := env(11, 4)
	inst := w.Spawn(e)
	res := e.M.Run(0)
	if res.TimedOut || inst.Metric(res) <= 0 {
		t.Fatalf("degenerate microservice failed: %+v", res)
	}
}

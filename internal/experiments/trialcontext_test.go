package experiments

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// buildFresh runs trials through Pool but hands each one a nil
// TrialContext, so every trial builds its deployment from scratch — the
// build-fresh side of the reuse-equivalence tests.
type buildFresh struct{ workers int }

func (b buildFresh) Execute(n int, run func(tc *TrialContext, i int) error, progress func(done, total int)) error {
	return Pool{Workers: b.workers}.Execute(n, func(_ *TrialContext, i int) error { return run(nil, i) }, progress)
}

// TestReuseEquivalence is deployment reuse's correctness contract: every
// quick figure regenerated with every trial built fresh must be
// cell-for-cell identical to the reusing run — same Summary, same Ratio,
// same Breakdown.
func TestReuseEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates six figures twice")
	}
	for n := 3; n <= 8; n++ {
		reused, err := RunFigure(n, Config{Seed: 42, Quick: true, Executor: Pool{Workers: 2}})
		if err != nil {
			t.Fatalf("fig %d reuse on: %v", n, err)
		}
		fresh, err := RunFigure(n, Config{Seed: 42, Quick: true, Executor: buildFresh{workers: 2}})
		if err != nil {
			t.Fatalf("fig %d reuse off: %v", n, err)
		}
		if !reflect.DeepEqual(reused, fresh) {
			t.Fatalf("figure %d: reused deployments changed the result\nreused: %+v\nfresh:  %+v",
				n, reused, fresh)
		}
	}
}

// TestAblationReuseEquivalence: an ablated series reuses deployments like
// any other, so for every ablation bit the reusing run must equal the
// build-fresh run at one and two workers — and must differ from the
// unablated figure, or the ablation never reached the machine.
func TestAblationReuseEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates a one-rep quick figure four times per ablation")
	}
	// Every ablation bit, paired with a quick figure it moves.
	cases := []struct {
		ablate machine.Ablation
		fig    int
	}{
		{machine.AblateAcctWalk, 7},
		{machine.AblateNUMA, 7},
		{machine.AblateIRQDistance, 6},
		{machine.AblateChurnWorkingSet, 6},
		{machine.AblateCacheLocality, 3},
		{machine.AblateVMFastpath, 4},
	}
	var all machine.Ablation
	for _, c := range cases {
		all |= c.ablate
	}
	if all != machine.AblateVMFastpath<<1-1 {
		t.Fatalf("cases cover mask %#x; every ablation bit needs a figure", all)
	}
	plain := map[int]Figure{}
	for _, c := range cases {
		if _, ok := plain[c.fig]; !ok {
			f, err := RunFigure(c.fig, Config{Seed: 42, Quick: true, Reps: 1, Executor: Pool{Workers: 1}})
			if err != nil {
				t.Fatal(err)
			}
			plain[c.fig] = f
		}
		sc := ablated(t, fmt.Sprintf("fig%d", c.fig), c.ablate)
		for _, workers := range []int{1, 2} {
			reused, err := RunScenario(Config{Seed: 42, Quick: true, Reps: 1, Executor: Pool{Workers: workers}}, sc)
			if err != nil {
				t.Fatalf("ablation %#x fig %d reuse on: %v", c.ablate, c.fig, err)
			}
			fresh, err := RunScenario(Config{Seed: 42, Quick: true, Reps: 1, Executor: buildFresh{workers: workers}}, sc)
			if err != nil {
				t.Fatalf("ablation %#x fig %d reuse off: %v", c.ablate, c.fig, err)
			}
			if !reflect.DeepEqual(reused, fresh) {
				t.Fatalf("ablation %#x fig %d workers=%d: reused deployments changed the result", c.ablate, c.fig, workers)
			}
			if reflect.DeepEqual(reused, plain[c.fig]) {
				t.Fatalf("ablation %#x left fig %d unchanged", c.ablate, c.fig)
			}
		}
	}
}

// TestFigAllQuickNoReuseMatchesGolden pins the build-fresh path to the same
// committed golden bytes the reusing path must match: reuse is an
// optimization, not a second behavior.
func TestFigAllQuickNoReuseMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates six figures per worker count")
	}
	golden, err := os.ReadFile("testdata/fig_all_quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		var buf bytes.Buffer
		for n := 3; n <= 8; n++ {
			f, err := RunFigure(n, Config{Seed: 42, Quick: true, Executor: buildFresh{workers: workers}})
			if err != nil {
				t.Fatalf("workers=%d figure %d: %v", workers, n, err)
			}
			f.RenderText(&buf)
		}
		if !bytes.Equal(buf.Bytes(), golden) {
			t.Fatalf("workers=%d build-fresh run diverged from the golden fingerprint\n got sha256 %s\nwant sha256 %s\nfirst divergence at byte %d",
				workers, shortHash(buf.Bytes()), shortHash(golden), firstDiff(buf.Bytes(), golden))
		}
	}
}

// TestDeployStatsCountReuse: a serial quick figure builds each distinct
// machine shape once and rewinds it for every further simulated trial, so
// the counts are exact. A worker's pool keys arenas by the innermost
// machine: the BM and CN series run on the host itself at every size, and
// each guest shape (vm or vmcn, by vCPUs) keeps one arena that its vanilla
// and pinned series share. Only simulated trials deploy: a seed-free
// cell's later repetitions share its result (simulatedTrials). Every cell
// simulates its first repetition, so every shape is still built.
// DeployStats is process-global, and no test in this package runs in
// parallel, so the deltas below are this test's alone.
func TestDeployStatsCountReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a quick figure")
	}
	const reps = 2
	sc, ok := ScenarioByName("fig3")
	if !ok {
		t.Fatal("fig3 not registered")
	}
	type shape struct {
		host, guest string
		vcpus       int
	}
	shapes := map[shape]bool{}
	for _, se := range sc.Series {
		for _, c := range sc.Cells {
			switch se.Platform.Kind {
			case platform.VM:
				shapes[shape{c.Host, "vm", c.Cores}] = true
			case platform.VMCN:
				shapes[shape{c.Host, "vmcn", c.Cores}] = true
			default:
				shapes[shape{host: c.Host}] = true
			}
		}
	}
	cfg := Config{Seed: 7, Quick: true, Reps: reps}
	trials, _ := simulatedTrials(t, cfg, sc)
	wantBuilt := uint64(len(shapes))

	b0, r0 := DeployStats()
	cfg.Executor = Pool{Workers: 1}
	if _, err := RunFigure(3, cfg); err != nil {
		t.Fatal(err)
	}
	b1, r1 := DeployStats()
	if built, reused := b1-b0, r1-r0; built != wantBuilt || reused != trials-wantBuilt {
		t.Fatalf("built %d, reused %d; want %d built (one per machine shape) and %d reused of %d simulated trials",
			built, reused, wantBuilt, trials-wantBuilt, trials)
	}
	cfg.Executor = buildFresh{workers: 1}
	if _, err := RunFigure(3, cfg); err != nil {
		t.Fatal(err)
	}
	b2, r2 := DeployStats()
	if built, reused := b2-b1, r2-r1; built != trials || reused != 0 {
		t.Fatalf("build-fresh run built %d, reused %d; want %d built, 0 reused", built, reused, trials)
	}
}

// BenchmarkTrialReuse isolates the per-trial deployment cost on a warm
// reuse arena: every iteration redeploys one of the paper's four platform
// stacks at a rotating size onto the worker's pooled machine — the price a
// repetition pays now that the arena is rewound instead of rebuilt.
func BenchmarkTrialReuse(b *testing.B) {
	host := topology.PaperHost()
	stacks := []platform.Stack{
		platform.Spec{Kind: platform.BM}.Stack(),
		platform.Spec{Kind: platform.VM}.Stack(),
		platform.Spec{Kind: platform.CN}.Stack(),
		platform.Spec{Kind: platform.VMCN}.Stack(),
	}
	sizes := []int{2, 4, 8, 16}
	tc := new(TrialContext)
	for _, st := range stacks {
		if _, err := tc.deploy(trialInput{host: host, stack: st, size: sizes[0], seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := stacks[i%len(stacks)]
		if _, err := tc.deploy(trialInput{host: host, stack: st, size: sizes[i%len(sizes)], seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestInstanceBufferAllocFree is the drive-by guard: the per-trial instance
// list must not allocate once the context's buffer has grown to the tenant
// count — including counts above the old fixed-size stack buffer (4).
func TestInstanceBufferAllocFree(t *testing.T) {
	tc := new(TrialContext)
	for _, tenants := range []int{1, 4, 9} {
		tc.instances(tenants) // warm the buffer
		if avg := testing.AllocsPerRun(100, func() {
			if got := len(tc.instances(tenants)); got != tenants {
				t.Fatalf("instances(%d) returned %d slots", tenants, got)
			}
		}); avg != 0 {
			t.Fatalf("%d tenants: %v allocs per trial instance list, want 0", tenants, avg)
		}
	}
}

// sentinelProgram computes once and exits. A finalizer on it reports when
// the task holding it became unreachable: a program is referenced only by
// its task's spec, and it points at nothing, so it forms no cycle that
// could keep its own finalizer from running.
type sentinelProgram struct {
	done bool
	next *sentinelProgram // a pointer field keeps it out of the tiny allocator
}

func (p *sentinelProgram) Next(*sched.Task) sched.Action {
	if p.done {
		return sched.Done()
	}
	p.done = true
	return sched.Compute(sim.Millisecond)
}

// sentinelWorkload spawns tasks tasks at time 0, each running its own
// sentinelProgram; with collected set, each program's finalizer counts it.
type sentinelWorkload struct {
	tasks     int
	collected *atomic.Int32
}

func (sentinelWorkload) Name() string { return "sentinel" }

func (w sentinelWorkload) Spawn(env workload.Env) workload.Instance {
	for range w.tasks {
		p := new(sentinelProgram)
		if w.collected != nil {
			runtime.SetFinalizer(p, func(*sentinelProgram) { w.collected.Add(1) })
		}
		env.M.Spawn(sched.TaskSpec{Name: "sentinel", Group: env.Group, Affinity: env.Affinity, Program: p}, 0)
	}
	return sentinelInstance{}
}

type sentinelInstance struct{}

func (sentinelInstance) Metric(machine.Result) float64 { return 0 }

// TestResetReleasesFirstTrialTasks: once a pooled machine is reset and
// redeployed for its next trial, nothing keeps the first trial's tasks
// reachable. The first trial queues enough tasks per CPU to grow the
// runqueue heaps past their initial carve of the scheduler's shared heap
// slab; the old carve used to keep its stale task pointers, and with them
// the first trial's whole task arena, for the machine's lifetime.
func TestResetReleasesFirstTrialTasks(t *testing.T) {
	const tasks = 32
	cfg := Config{Seed: 1}.withDefaults()
	stack := platform.Spec{Kind: platform.BM, Mode: platform.Vanilla, Cores: 2}.Stack()
	var collected atomic.Int32
	tc := new(TrialContext)
	_, reused0 := DeployStats()
	for _, w := range []sentinelWorkload{{tasks, &collected}, {tasks, nil}} {
		in := trialInput{host: cfg.Host, stack: stack, size: 2, ws: []workload.Workload{w}, memGB: 8, seed: 1}
		if _, _, err := runStack(tc, cfg, in); err != nil {
			t.Fatal(err)
		}
	}
	if _, reused := DeployStats(); reused != reused0+1 {
		t.Fatalf("%d deployments reused, want the second trial to reset the first one's machine", reused-reused0)
	}
	for i := 0; i < 100 && collected.Load() < tasks; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := collected.Load(); n != tasks {
		t.Fatalf("%d of the first trial's %d tasks were collected after a reset and redeploy", n, tasks)
	}
	runtime.KeepAlive(tc)
}
